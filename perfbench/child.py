"""One repeat of a workload in a fresh interpreter: ``child.py PLAN RESULT``.

``run.py`` spawns this script.  It imports wignerlab from the checkout's
``src``, parses and validates every command's config (the set-up), then runs
the commands one after another through ``wignerlab.cli_runner.main``.  With
``"trace": true`` in the plan, wignerlab's public functions are first rebound
to span-recording wrappers; the spans are written to RESULT at the end.  With
``"setup_only": true`` it stops after the set-up, which gives ``run.py`` more
set-up samples per run at little cost.
Times are ``time.monotonic_ns`` so the parent can compare them with its own.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ENV_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WIGNERLAB_THREADS")


def blas_runtime_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib_path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """High-water RSS of this process image since exec.

    Read from VmHWM: the rusage a parent gets from wait4 also counts the
    parent's own pages the child held between fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def machine_state() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_threads": blas_runtime_threads(),
        "env": {var: os.environ.get(var, "unset") for var in ENV_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, str(Path(plan["root"]) / "src"))
    from wignerlab import cli_runner

    tracer = None
    if plan["trace"]:
        import layers
        from spans import Tracer, install, propagate_into_thread_pools

        tracer = Tracer()
        install(tracer, layers.targets())
        propagate_into_thread_pools(tracer)
        run_main = tracer.span("command", cli_runner.main)
    else:
        run_main = cli_runner.main

    # set-up: the config parsing and validation main() repeats for each command
    for cmd in plan["commands"]:
        config = cli_runner.ExperimentConfig.from_mapping(
            cli_runner.parse_config_text(Path(cmd["config"]).read_text())
        )
        config = replace(config, command=cmd["command"], seed=cmd["seed"], out_dir=cmd["out"],
                         threads=cmd["threads"])
        diags = cli_runner.validate(config)
        if diags:
            print(f"{cmd['name']}: invalid config: {'; '.join(diags)}", file=sys.stderr)
            return 3

    first_start = time.monotonic_ns()
    if plan.get("setup_only"):
        Path(result_path).write_text(json.dumps({"first_start_ns": first_start}))
        return 0
    records = []
    for cmd in plan["commands"]:
        if tracer is not None:
            tracer.command = cmd["name"]
        argv = [cmd["command"], "--config", cmd["config"], "--seed", str(cmd["seed"]),
                "--out", cmd["out"], "--threads", str(cmd["threads"])]
        start = time.monotonic_ns()
        try:
            rc = run_main(argv)
        except Exception:  # a crashed command is a failed operation; go on with the rest
            traceback.print_exc()
            rc = 1
        records.append({"name": cmd["name"], "rc": rc, "start_ns": start, "end_ns": time.monotonic_ns()})
    last_end = time.monotonic_ns()

    result = {
        "first_start_ns": first_start,
        "last_end_ns": last_end,
        "peak_rss_mb": peak_rss_mb(),
        "commands": records,
        "machine": machine_state(),
        "spans": None,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
