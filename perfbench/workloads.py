"""The benchmark's workloads: CLI commands with configs made from one seed.

Each workload stresses a different set of wignerlab modules; ``WHY`` records
which.  Command ``i`` of a workload run with benchmark seed ``s`` gets
``--seed 10*s + i``, so the same benchmark seed always gives the same inputs.
Thread counts are capped at the machine's CPU count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    name: str
    command: str
    threads: int
    config: tuple[tuple[str, str], ...]

    def get(self, key: str, default: str | None = None) -> str:
        value = dict(self.config).get(key, default)
        if value is None:
            raise KeyError(key)
        return value

    def ints(self, key: str) -> list[int]:
        return [int(v) for v in self.get(key).split(",")]

    def floats(self, key: str) -> list[float]:
        return [float(v) for v in self.get(key).split(",")]


def command_spec(name: str, command: str, threads: int, **config: str) -> Command:
    items = {"command": command}
    items.update({k.replace("__", "."): v for k, v in config.items()})
    return Command(name, command, min(threads, os.cpu_count() or 1), tuple(items.items()))


WIGNER_GAUSS = {"ensemble__preset": "wigner_unit", "ensemble__law": "gaussian_real"}

WORKLOADS: dict[str, tuple[Command, ...]] = {
    "stats_small_n": (
        command_spec("simulate", "simulate", 2, sizes="256, 1024", trials="4", **WIGNER_GAUSS),
        command_spec(
            "stieltjes", "stieltjes", 2, sizes="256", trials="64", **WIGNER_GAUSS,
            stieltjes__z="0.1j, 1.5+0.05j, 1j, 0.5+1j, -1+0.2j",
            stieltjes__grid="-3, 3, 0.001",
            stieltjes__bandwidth="0.02",
        ),
        command_spec(
            "concentration", "concentration", 2, sizes="128", trials="200",
            ensemble__preset="wigner_unit", ensemble__law="rademacher",
            concentration__t="0.25, 0.5, 1.0",
            concentration__bernoulli_p="0.01",
            concentration__bernoulli_count="100",
            concentration__bernoulli_x="5.0",
        ),
    ),
    "spectrum_large": (
        command_spec("moments", "moments", 1, sizes="2048", trials="2", moments__k="2, 4, 6, 8", **WIGNER_GAUSS),
        command_spec(
            "stieltjes", "stieltjes", 1, sizes="2048", trials="1",
            ensemble__preset="wigner_unit", ensemble__law="gaussian_complex",
            stieltjes__z="1j, 0.5+1j, 2j",
            stieltjes__grid="-3, 3, 0.01",
            stieltjes__bandwidth="0.05",
        ),
    ),
    "walk_oracle": (
        command_spec("walks", "walks", 1, walks__k="2, 3, 4, 5, 6, 7, 8, 9, 10"),
        command_spec(
            "oracle", "moments", 1, sizes="4, 5", trials="2000", moments__k="2, 4, 6, 8",
            moments__exact_oracle="true",
            ensemble__law="rademacher", ensemble__profile="banded",
            ensemble__band_width="1", ensemble__band_inside="1/n", ensemble__band_outside="0.05",
        ),
        # ROADMAP open item 4: the oracle ignores ensemble.diagonal_law, so this
        # probe fails until that is fixed; it is counted, never skipped.
        command_spec(
            "diag_probe", "moments", 1, sizes="3", trials="2000", moments__k="4",
            moments__exact_oracle="true", ensemble__diagonal_law="constant_zero",
        ),
    ),
    "reduce_banded": (
        command_spec(
            "reduce", "reduce", 1, sizes="1024", trials="16",
            ensemble__law="pareto_symmetric", ensemble__alpha="2.5", ensemble__scale="1",
            ensemble__profile="banded", ensemble__band_width="64",
            ensemble__band_inside="1/n", ensemble__band_outside="5e-4",
            reduce__eta="auto", reduce__c="1",
        ),
    ),
}

WHY = {
    "stats_small_n": "statistic layers (levy, stieltjes, concentration) dominate, eigvalsh is cheap; 2 trial threads over default BLAS threads",
    "spectrum_large": "n=2048 sampling, HermitianMatrix construction and real and complex eigvalsh dominate; statistics are under 3%",
    "walk_oracle": "walk census, exact oracle and CSV writing only; includes the ROADMAP item 4 diagonal-law probe",
    "reduce_banded": "only workload running reductions; HermitianMatrix built 5 times per trial without eigvalsh, heavy-tailed banded input",
}


def command_seed(seed: int, index: int) -> int:
    return 10 * seed + index


def write_configs(commands: tuple[Command, ...], directory: Path) -> list[Path]:
    """One ``key = value`` config file per command, in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for cmd in commands:
        path = directory / f"{cmd.name}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cmd.config))
        paths.append(path)
    return paths
