"""wignerlab benchmark: whole CLI commands, end to end, plus a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repeat spawns a fresh
interpreter (``child.py``) that imports wignerlab from ``src``, validates
the workload's configs and runs its commands through
``wignerlab.cli_runner.main``.  Repeats run one at a time until about
``--seconds`` have passed (at least ``MIN_REPEATS``).  Every command's CSVs
are checked, and every repeat must reproduce the first repeat's CSV bytes.

``--trace 0`` prints the end-to-end metrics, each the median over repeats:

- ``run_s``: first command start to last command return, in the child;
- ``setup_s``: spawn to first command start (interpreter start, imports,
  config parsing and validation), also sampled by set-up-only children
  after each untraced repeat;
- ``peak_rss_mb``: the child's high-water RSS after exec (its VmHWM);
- ``cpu_s``: the child's user + system CPU time, from ``wait4``;
- ``check_pass_ratio``: output checks passed over checks attempted.

``--trace 1`` alternates untraced and traced repeats and prints the
per-layer metrics of ``layers.py`` (medians over traced repeats), the
failure share of the output checks, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count CLI commands run and commands that did not exit 0.  The
lines before it give the machine state and every failed check.  Scratch
files go to ``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
from child import ENV_THREAD_VARS
from spans import from_rows
from workloads import WORKLOADS, command_seed, write_configs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 4  # two untraced, two traced
SETUP_PROBES_PER_REPEAT = 2
CHILD_TIMEOUT_S = 150


@dataclass
class Repeat:
    traced: bool
    setup_s: float
    run_s: float
    peak_rss_mb: float
    cpu_s: float
    rcs: list[int]
    command_s: dict[str, float]
    checksums: dict[str, str]
    machine: dict
    layer_values: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    """The caller's environment without thread-count overrides."""
    env = {k: v for k, v in os.environ.items() if k not in ENV_THREAD_VARS}
    env.pop("PYTHONPATH", None)
    return env


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def spawn(args: list[str], log: Path) -> tuple[int, float, int]:
    """Run a child to completion: (exit code, CPU s, spawn time ns)."""
    with open(log, "ab") as fh:
        spawned = time.monotonic_ns()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    # wait4 reaped the child; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, spawned


def launch(plan: dict, work: Path, tag: str) -> tuple[dict, float, int]:
    """Run ``child.py`` on ``plan``: (its result, its CPU seconds, spawn time ns)."""
    plan_path = work / f"plan_{tag}.json"
    result_path = work / f"result_{tag}.json"
    plan_path.write_text(json.dumps({"root": str(ROOT), **plan}))
    rc, cpu, spawned = spawn([sys.executable, str(CHILD), str(plan_path), str(result_path)], work / "child.log")
    if rc != 0 or not result_path.is_file():
        raise RuntimeError(f"child {tag} exited {rc}; see {work / 'child.log'}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result, cpu, spawned


def plan_commands(workload: str, seed: int, configs: list[Path], out_root: Path) -> list[dict]:
    return [
        {
            "name": cmd.name,
            "command": cmd.command,
            "config": str(cfg),
            "seed": command_seed(seed, i),
            "threads": cmd.threads,
            "out": str(out_root / cmd.name),
        }
        for i, (cmd, cfg) in enumerate(zip(WORKLOADS[workload], configs))
    ]


def setup_probe(commands: list[dict], work: Path, tag: str) -> float:
    """Set-up seconds of a child that validates the configs and exits."""
    result, _, spawned = launch({"trace": False, "setup_only": True, "commands": commands}, work, tag)
    return (result["first_start_ns"] - spawned) / 1e9


def run_repeat(commands: list[dict], traced: bool, work: Path, tag: str) -> Repeat:
    result, cpu, spawned = launch({"trace": traced, "commands": commands}, work, tag)
    sums = {}
    for c in commands:
        for csv_path in sorted(Path(c["out"]).glob("*.csv")):
            sums[f"{c['name']}/{csv_path.name}"] = sha256(csv_path)
    rep = Repeat(
        traced=traced,
        setup_s=(result["first_start_ns"] - spawned) / 1e9,
        run_s=(result["last_end_ns"] - result["first_start_ns"]) / 1e9,
        peak_rss_mb=result["peak_rss_mb"],
        cpu_s=cpu,
        rcs=[r["rc"] for r in result["commands"]],
        command_s={r["name"]: (r["end_ns"] - r["start_ns"]) / 1e9 for r in result["commands"]},
        checksums=sums,
        machine=result["machine"],
    )
    if traced:
        rep.layer_values = layers.layer_values(from_rows(result["spans"]))
    return rep


def value_checks(workload: str, out_root: Path) -> list[checks.Check]:
    found = []
    for cmd in WORKLOADS[workload]:
        found.extend(checks.check_command(cmd, out_root / cmd.name))
    return found


def reproducibility_checks(repeats: list[Repeat]) -> list[checks.Check]:
    """One check per CSV of the first repeat: every later repeat has the same bytes."""
    first = repeats[0].checksums
    found = []
    for name, digest in sorted(first.items()):
        same = all(r.checksums.get(name) == digest for r in repeats[1:])
        found.append(checks.Check(f"{name}: identical in {len(repeats)} repeats", same))
    if any(set(r.checksums) != set(first) for r in repeats[1:]):
        found.append(checks.Check("csv file sets identical across repeats", False))
    return found


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "wignerlab" / "cli_runner.py").is_file():
        print(f"error: no wignerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs = write_configs(WORKLOADS[args.workload], work / "configs")
    # warm the bytecode cache so the first measured set-up is not a compile
    rc, *_ = spawn([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import wignerlab.cli_runner"],
                   work / "child.log")
    if rc != 0:
        print(f"error: cannot import wignerlab; see {work / 'child.log'}", file=sys.stderr)
        return 2

    repeats: list[Repeat] = []
    setups: list[float] = []
    started = time.monotonic()
    try:
        while True:
            i = len(repeats)
            traced = bool(args.trace) and i % 2 == 1
            commands = plan_commands(args.workload, args.seed, configs, work / f"r{i}")
            repeats.append(run_repeat(commands, traced, work, f"r{i}"))
            if not traced:
                setups.append(repeats[-1].setup_s)
                setups += [setup_probe(commands, work, f"r{i}_setup{j}") for j in range(SETUP_PROBES_PER_REPEAT)]
            if i == 0:
                found = value_checks(args.workload, work / "r0")
            else:
                shutil.rmtree(work / f"r{i}")
            elapsed = time.monotonic() - started
            per_repeat = elapsed / len(repeats)
            enough = len(repeats) >= (MIN_TRACED_REPEATS if args.trace else MIN_REPEATS)
            if enough and elapsed + per_repeat > args.seconds:
                break
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    found += reproducibility_checks(repeats)

    failed_checks = [c for c in found if not c.ok]
    unexpected = [c for c in failed_checks if c.name not in checks.KNOWN_DEFECTS]
    commands_run = sum(len(r.rcs) for r in repeats)
    commands_failed = sum(rc != 0 for r in repeats for rc in r.rcs)

    machine = dict(repeats[0].machine)
    machine.update(
        git_commit=git_commit(ROOT),
        workload=args.workload,
        threads={cmd.name: cmd.threads for cmd in WORKLOADS[args.workload]},
        repeats=len(repeats),
    )
    print("machine " + json.dumps(machine, sort_keys=True))
    for c in failed_checks:
        tag = f"known defect ({checks.KNOWN_DEFECTS[c.name]})" if c.name in checks.KNOWN_DEFECTS else "FAILED"
        print(f"check {tag}: {c.name}: {c.detail}")
    print(f"checks: {len(found) - len(failed_checks)} of {len(found)} passed")
    for i, r in enumerate(repeats):
        per_command = " ".join(f"{name}={t:.3f}" for name, t in r.command_s.items())
        print(f"repeat {i}{' traced' if r.traced else ''}: run_s={r.run_s:.4f} setup_s={r.setup_s:.4f} "
              f"cpu_s={r.cpu_s:.3f} peak_rss_mb={r.peak_rss_mb:.1f} ({per_command})")

    untraced = [r for r in repeats if not r.traced]
    run_s = statistics.median(r.run_s for r in untraced)
    if args.trace:
        traced = [r for r in repeats if r.traced]
        units = layers.metric_units()
        metrics = {
            name: metric(statistics.median(r.layer_values[name] for r in traced), units[name][0])
            for name in traced[0].layer_values
        }
        metrics["tracing_overhead_s"] = metric(statistics.median(r.run_s for r in traced) - run_s, "s")
        metrics["check_fail_ratio"] = metric(len(failed_checks) / len(found), "ratio")
    else:
        metrics = {
            "run_s": metric(run_s, "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in untraced), "MB"),
            "cpu_s": metric(statistics.median(r.cpu_s for r in untraced), "s"),
            "check_pass_ratio": metric(1.0 - len(failed_checks) / len(found), "ratio"),
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not unexpected and commands_failed == 0,
        "attempted": commands_run,
        "failed": commands_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
