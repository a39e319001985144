"""Reproducible experiment driver.

Parses flat key-value configs, builds ensembles per requested size,
dispatches to the library, and writes CSV results plus a JSON manifest with
seed, checksums, and version.  Outputs are byte-identical for a fixed
(config, seed) regardless of the thread count: every trial draws from its
own derived stream and rows are written in a fixed order by a single
thread.

Exit codes: 0 success, 2 unknown command / bad usage, 3 malformed or
invalid config, or a run that runs out of memory, 4 unwritable output path.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .concentration import MIN_TAIL_TRIALS, bernstein_tail_check, empirical_tail
from .ensembles import (
    EnsembleSpec,
    EntryLaw,
    VarianceProfile,
    condition_sums,
    gaussian_row_check,
    heavy_tail_spec,
    sample_trial,
    solve_workers,
    trial_block,
    trial_eigenvalues,
    wigner_unit_spec,
)
from .hermitian_core import blas_runtime_threads
from .reductions import _reduction_costs, auto_eta, rescale_to_row_bound, truncated_profile
from .spectral_measures import (
    RampFunction,
    SemicircleLaw,
    esd,
    kolmogorov_distance,
    levy_distance,
    semicircle_moment,
)
from .stieltjes import atomic_density, semicircle_stieltjes, stieltjes_atomic
from .streams import STREAM_LAYOUT, parallel_map
from .walk_combinatorics import (
    ORACLE_MAX_K,
    ORACLE_MAX_N,
    WalkClass,
    census_blocks,
    walk_sum_moment,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "parse_config_text",
    "validate",
    "run",
    "main",
]

# commands that sample one n x n matrix per trial
SAMPLING_COMMANDS = ("simulate", "moments", "stieltjes", "concentration", "reduce")
# copies of a size's spectra, n 8-byte eigenvalues per trial, that a command
# keeps for every trial at once: trial_eigenvalues' (trials, n) array, with
# what each command builds from it whole, rounded up from the tracemalloc peak
# of a run at n = 64 with 4,000 trials: moments' eigs**k (2.39 x the array),
# concentration's ramp values (2.003 x) and stieltjes' pooled esd (5.13 x)
_KEPT_SPECTRA = {"simulate": 1, "moments": 3, "stieltjes": 6, "concentration": 3}
# bytes per trial of trial_eigenvalues' Philox key table (streams.stream_keys
# derives it in fixed chunks, so its own temporaries stay near 100 kB)
_KEY_BYTES = 16
# a held trial matrix's bytes, in matrices: what tracemalloc sees of the matrix and its
# sampling and check temporaries, plus any copy LAPACK solves outside its view.
# trial_eigenvalues' tracemalloc peak per held matrix is at most 1.79 (n = 8; 1.13
# from n = 256 up).  A block of B > 1 trials (n < 512) is one eigvalsh call, which
# copies one matrix at a time, so a fresh process's VmHWM rises by at most 1.60 per
# held matrix (n = 256 to 511, B = 2); a block of one is solved in place and raises
# it by 1.06-1.17 matrices from n = 600 to 2048.  A fresh process's first complex
# solve from n = 512 up (zheevd_2stage) also touches about 1.8 MB of one-time BLAS
# state: 1.61 matrices at n = 512, 1.08 after a first such solve.  A reduce
# worker's sample, with the cost pass's difference array and masks beside it,
# peaks at 2.6 (complex; 2.3 real).
# reduce's per-size rescaling table counts one n x n float64 array beside them: its
# build peaks at 2.13-2.17 such arrays, below one worker's three copies and the table
_TRIAL_COPIES, _REDUCE_COPIES = 2, 3
# bytes each busy worker holds beside its matrices: below n = 8 a block's matrices
# weigh less than the fixed temporaries around them (deriving the stream keys of
# 512 trials peaks at 60 kB), so there trial_eigenvalues' tracemalloc peak passes
# two copies of the block (14.7 per held matrix at n = 1, 2.5 at n = 4), by at most
# 52 kB (real, n = 1); rounded up
_WORKER_BYTES = 1 << 19

LAW_BUILDERS: dict[str, Callable[..., EntryLaw]] = {
    "rademacher": EntryLaw.rademacher,
    "gaussian_real": EntryLaw.gaussian_real,
    "gaussian_complex": EntryLaw.gaussian_complex,
    "uniform_bounded": EntryLaw.uniform_bounded,
    "constant_zero": EntryLaw.constant_zero,
}


class ConfigError(ValueError):
    """Raised for configs that cannot be parsed or fail validation."""


# -- config parsing ----------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; later keys override."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _list(item: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda text: tuple(item(p.strip()) for p in text.split(",") if p.strip())


def _grid(text: str) -> tuple[float, ...]:
    values = _list(float)(text)
    if values and len(values) != 3:
        raise ValueError(text)
    return values


# Readers: a parse that raises ValueError on a bad value, and what it expects.
# `_read` applies one, and rejects a NaN or infinite number from any of them.
_TEXT = (str, "text")
_INT = (int, "integer")
_NUMBER = (float, "number")
_BOOL = (_bool, "boolean")
_INTS = (_list(int), "integers")
_NUMBERS = (_list(float), "numbers")
_COMPLEXES = (_list(lambda p: complex(p.replace(" ", ""))), "complex numbers")
_GRID = (_grid, "'min, max, step'")
_ETA = (lambda text: None if text == "auto" else float(text), "number or 'auto'")


def _read(key: str, text: str, reader: tuple[Callable[[str], object], str]):
    """``text`` through ``reader``: a ConfigError names ``key`` if the parse fails or is not finite."""
    read, expected = reader
    try:
        value = read(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {expected}, got {text!r}") from exc
    items = value if isinstance(value, tuple) else (value,)
    if not all(cmath.isfinite(v) for v in items if isinstance(v, (float, complex))):
        raise ConfigError(f"{key}: expected finite {expected}, got {text!r}")
    return value


def _key(keys: str | tuple[str, ...], reader: tuple[Callable[[str], object], str], default):
    """A field set by config key(s) through `reader`; of two keys the later wins."""
    keys = (keys,) if isinstance(keys, str) else keys
    return field(default=default, metadata={"keys": keys, "reader": reader})


@dataclass(frozen=True)
class EnsembleConfig:
    """Declarative ensemble block; built into an EnsembleSpec per size."""

    preset: str | None = _key("ensemble.preset", _TEXT, None)
    law_kind: str = _key("ensemble.law", _TEXT, "gaussian_real")
    alpha: float = _key("ensemble.alpha", _NUMBER, 0.0)
    scale: float = _key("ensemble.scale", _NUMBER, 0.0)
    profile_kind: str = _key("ensemble.profile", _TEXT, "uniform")
    variance: str = _key("ensemble.variance", _TEXT, "1/n")
    band_width: int = _key("ensemble.band_width", _INT, 0)
    band_inside: str = _key("ensemble.band_inside", _TEXT, "1/n")
    band_outside: str = _key("ensemble.band_outside", _TEXT, "0")
    diagonal_law: str | None = _key("ensemble.diagonal_law", _TEXT, None)

    def _law(self) -> EntryLaw:
        if self.law_kind == "pareto_symmetric":
            return EntryLaw.pareto_symmetric(self.alpha, self.scale)
        if self.law_kind in LAW_BUILDERS:
            return LAW_BUILDERS[self.law_kind]()
        raise ConfigError(f"unknown entry law {self.law_kind!r}")

    def _value(self, name: str, n: int) -> float:
        """Field ``name`` at size n: '1/n', or a finite number."""
        expr = getattr(self, name)
        if expr == "1/n":
            return 1.0 / n
        key = self.__dataclass_fields__[name].metadata["keys"][0]
        return _read(key, expr, (float, "number or '1/n'"))

    def build(self, n: int, seed: int) -> EnsembleSpec:
        if self.preset == "wigner_unit":
            return wigner_unit_spec(n, self._law(), seed=seed)
        if self.preset == "heavy_tail":
            return heavy_tail_spec(n, seed=seed)
        if self.preset is not None:
            raise ConfigError(f"unknown ensemble preset {self.preset!r}")
        if self.profile_kind == "uniform":
            profile = VarianceProfile.uniform(self._value("variance", n))
        elif self.profile_kind == "banded":
            profile = VarianceProfile.banded(
                self.band_width,
                self._value("band_inside", n),
                self._value("band_outside", n),
            )
        else:
            raise ConfigError(f"unknown profile kind {self.profile_kind!r}")
        dlaw = None
        if self.diagonal_law is not None:
            if self.diagonal_law not in LAW_BUILDERS:
                raise ConfigError(f"unknown diagonal law {self.diagonal_law!r}")
            dlaw = LAW_BUILDERS[self.diagonal_law]()
        return EnsembleSpec(n, self._law(), profile, diagonal_law=dlaw, seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a command plus everything needed to reproduce it."""

    command: str = _key("command", _TEXT, "")
    sizes: tuple[int, ...] = _key("sizes", _INTS, ())
    trials: int = _key("trials", _INT, 1)
    seed: int = _key("seed", _INT, 0)
    out_dir: str = _key("out", _TEXT, "results")
    threads: int = _key("threads", _INT, 1)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    k_list: tuple[int, ...] = _key(("walks.k", "moments.k"), _INTS, ())
    exact_oracle: bool = _key("moments.exact_oracle", _BOOL, False)
    z_list: tuple[complex, ...] = _key("stieltjes.z", _COMPLEXES, ())
    grid: tuple[float, float, float] | None = _key("stieltjes.grid", _GRID, None)
    bandwidth: float = _key("stieltjes.bandwidth", _NUMBER, 1e-2)
    c_bound: float = _key(("reduce.c", "conditions.c"), _NUMBER, 1.0)
    eps_list: tuple[float, ...] = _key("conditions.eps", _NUMBERS, (0.125, 0.25, 0.5, 1.0))
    t_list: tuple[float, ...] = _key("concentration.t", _NUMBERS, ())
    ramp_p: float = _key("concentration.ramp_p", _NUMBER, -0.5)
    ramp_q: float = _key("concentration.ramp_q", _NUMBER, 0.5)
    bernoulli_p: float = _key("concentration.bernoulli_p", _NUMBER, 0.0)
    bernoulli_count: int = _key("concentration.bernoulli_count", _INT, 0)
    bernoulli_x: float = _key("concentration.bernoulli_x", _NUMBER, 0.0)
    eta: float | None = _key("reduce.eta", _ETA, None)
    raw: tuple[tuple[str, str], ...] = ()

    @classmethod
    def from_mapping(cls, m: dict[str, str]) -> "ExperimentConfig":
        """Read every key of `m` through CONFIG_KEYS; `raw` echoes `m` sorted.

        An absent key, or a list value with no items, leaves its field's
        default.  A key not in CONFIG_KEYS, or an ensemble key the preset
        does not read, is a ConfigError.
        """
        unknown = sorted(set(m) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError("unknown config key " + ", ".join(map(repr, unknown)))
        values: dict[type, dict] = {EnsembleConfig: {}, ExperimentConfig: {}}
        for key, (owner, f) in CONFIG_KEYS.items():
            if key not in m:
                continue
            value = _read(key, m[key], f.metadata["reader"])
            if value != ():
                values[owner][f.name] = value
        preset = values[EnsembleConfig].get("preset")
        if preset in PRESET_FIELDS:
            for key in sorted(m):
                owner, f = CONFIG_KEYS[key]
                if owner is EnsembleConfig and f.name not in PRESET_FIELDS[preset]:
                    raise ConfigError(f"preset {preset!r} ignores {key}")
        return cls(
            ensemble=EnsembleConfig(**values[EnsembleConfig]),
            raw=tuple(sorted(m.items())),
            **values[ExperimentConfig],
        )


# Every config key, in field order, with the class and field it sets.
CONFIG_KEYS = {
    key: (owner, f)
    for owner in (EnsembleConfig, ExperimentConfig)
    for f in fields(owner)
    for key in f.metadata.get("keys", ())
}

# The EnsembleConfig fields each preset reads; a key for any other is an error.
PRESET_FIELDS = {"wigner_unit": ("preset", "law_kind", "alpha", "scale"), "heavy_tail": ("preset",)}


# thread-count variables of the BLAS libraries numpy may link
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _machine_state(threads: int) -> tuple[tuple[str, object], ...]:
    """What the run's numbers may depend on beyond config and seed.

    numpy and its BLAS, the BLAS thread variables ("unset" when absent),
    OpenBLAS's runtime thread count outside the trial fan-out (None when it
    cannot be read), the CPU count and the worker threads.  Eigenvalues can
    differ in the last bits between BLAS builds, and from n = 512 up between
    BLAS thread counts; below 512 the trial fan-out runs one BLAS thread.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        ("numpy", np.__version__),
        ("blas_name", blas.get("name")),
        ("blas_version", blas.get("version")),
        *((var, os.environ.get(var, "unset")) for var in _BLAS_THREAD_VARS),
        ("blas_runtime_threads", blas_runtime_threads()),
        ("cpu_count", os.cpu_count()),
        ("threads", threads),
    )


@dataclass(frozen=True)
class RunManifest:
    """Provenance record: config echo, seed, checksums, wall time, version, stream layout, machine."""

    command: str
    master_seed: int
    config: tuple[tuple[str, str], ...]
    checksums: tuple[tuple[str, str], ...]
    wall_time_s: float
    version: str
    stream_layout: int
    machine: tuple[tuple[str, object], ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "master_seed": self.master_seed,
                "config": dict(self.config),
                "checksums": dict(self.checksums),
                "wall_time_s": self.wall_time_s,
                "version": self.version,
                "stream_layout": self.stream_layout,
                "machine": dict(self.machine),
            },
            indent=2,
            sort_keys=True,
        )


def _physical_memory() -> int | None:
    """Bytes of physical memory from `os.sysconf`, or None where it has no answer."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _memory_need(config: ExperimentConfig, spec: EnsembleSpec) -> tuple[int, str]:
    """Bytes the memory preflight counts at one size, and what holds them: the workers
    busy at once, each with its fixed temporaries and its trial matrices (a
    ``trial_eigenvalues`` worker's block of ``trial_block(n)``, with ``solve_workers`` of
    them, or a ``reduce`` worker's one), then the spectra and stream keys kept for every
    trial, or for ``reduce`` its table beside the workers' matrices."""
    n, trials = spec.n, config.trials
    itemsize = 16 if spec.law.is_complex else 8
    copies = _KEPT_SPECTRA.get(config.command, 0)
    trial_path = (trial_block(n), solve_workers(n, config.threads), _TRIAL_COPIES)
    block, workers, matrix_copies = trial_path if copies else (1, config.threads, _REDUCE_COPIES)
    workers = min(workers, -(-trials // block))
    matrices = min(workers * block, trials)
    kept = trials * (copies * n * 8 + _KEY_BYTES) if copies else 0
    held = (
        f"{matrices} concurrent {n}x{n} trial matrices of {itemsize}-byte entries ({matrix_copies} copies each)"
        f" and {workers} x {_WORKER_BYTES} bytes of worker temporaries"
    )
    if kept:
        held += (
            f" and {kept} bytes of {trials} trials' kept spectra "
            f"({copies} x {n} x 8 bytes each) and stream keys ({_KEY_BYTES} bytes each)"
        )
    need = matrix_copies * n * n * itemsize * matrices + kept
    if config.command == "reduce":
        held += f" beside the {n}x{n} rescaling table"
        need += n * n * 8
    return need + _WORKER_BYTES * workers, held


def validate(config: ExperimentConfig) -> list[str]:
    """All problems with the config; an empty list means runnable."""
    diags: list[str] = []
    if config.command not in COMMANDS:
        diags.append(f"unknown command: {config.command!r}")
        return diags
    needs_sizes = config.command != "walks"
    if needs_sizes:
        if not config.sizes:
            diags.append("sizes must be nonempty")
        elif any(n < 1 for n in config.sizes):
            diags.append("sizes must be positive")
    if config.trials < 1:
        diags.append("trials must be at least 1")
    if config.threads < 1:
        diags.append("threads must be at least 1")
    if config.sizes and not diags:
        memory = _physical_memory() if config.command in SAMPLING_COMMANDS else None
        for n in config.sizes:
            try:
                spec = config.ensemble.build(n, config.seed)
            except (ConfigError, ValueError) as exc:
                diags.append(f"ensemble at n={n}: {exc}")
                break
            need, held = _memory_need(config, spec)
            if memory and need > memory:
                diags.append(
                    f"sizes: n={n} needs {need / 2**30:.3g} GiB for {held}; physical "
                    f"memory is {memory / 2**30:.3g} GiB"
                )
                break
    cmd = config.command
    if cmd in ("moments", "walks") and not config.k_list:
        diags.append(f"{cmd}.k must be nonempty")
    if cmd == "moments" and any(k < 1 for k in config.k_list):
        diags.append("moments.k must be positive")
    if cmd == "moments" and config.exact_oracle:
        try:
            law = config.ensemble.build(max(config.sizes or (1,)), config.seed).law
        except (ConfigError, ValueError):
            law = None
        if law is not None and config.k_list and not law.has_moments_to(max(config.k_list)):
            diags.append("oracle requires finite moments")
        if config.sizes and max(config.sizes) > ORACLE_MAX_N:
            diags.append(f"exact oracle limited to n <= {ORACLE_MAX_N}")
        if config.k_list and max(config.k_list) > ORACLE_MAX_K:
            diags.append(f"exact oracle limited to k <= {ORACLE_MAX_K}")
    if cmd == "walks" and config.k_list:
        if min(config.k_list) < 1:
            diags.append("walks.k must be positive")
        if max(config.k_list) > 12:
            diags.append("walk census limited to k <= 12")
    if cmd == "stieltjes":
        if not config.z_list:
            diags.append("stieltjes.z must be nonempty")
        elif any(z.imag <= 0 for z in config.z_list):
            diags.append("stieltjes points must lie in the upper half plane")
        if config.grid is not None:
            lo, hi, step = config.grid
            if not (step > 0 and hi > lo):
                diags.append("stieltjes.grid must satisfy min < max and step > 0")
        if config.bandwidth <= 0:
            diags.append("stieltjes.bandwidth must be positive")
    if cmd == "conditions":
        if config.c_bound <= 0:
            diags.append("conditions.c must be positive")
        if any(e <= 0 for e in config.eps_list):
            diags.append("conditions.eps must be positive")
    if cmd == "concentration":
        if not config.t_list:
            diags.append("concentration.t must be nonempty")
        elif any(t <= 0 for t in config.t_list):
            diags.append("concentration.t must be positive")
        if config.ramp_p >= config.ramp_q:
            diags.append("concentration ramp requires ramp_p < ramp_q")
        if config.trials < MIN_TAIL_TRIALS:
            diags.append(f"concentration needs at least {MIN_TAIL_TRIALS} trials")
        if config.bernoulli_count < 0:
            diags.append("concentration.bernoulli_count must be nonnegative")
        if config.bernoulli_count > 0 and not (0 <= config.bernoulli_p <= 1):
            diags.append("concentration.bernoulli_p must lie in [0, 1]")
        if config.bernoulli_count > 0 and config.bernoulli_x <= 0:
            diags.append("concentration.bernoulli_x must be positive for a positive bernoulli_count")
    if cmd == "reduce":
        if config.eta is not None and config.eta <= 0:
            diags.append("reduce.eta must be positive or 'auto'")
        if config.c_bound <= 0:
            diags.append("reduce.c must be positive")
    return diags


# -- output helpers ----------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


# -- commands ----------------------------------------------------------------

def _cmd_simulate(config: ExperimentConfig, out: Path) -> list[Path]:
    sc = SemicircleLaw()

    def rows():
        # written as they come: a size's spectra array is all that is kept per trial
        for n in config.sizes:
            spec = config.ensemble.build(n, config.seed)
            for trial, lam in enumerate(trial_eigenvalues(spec, config.trials, config.threads)):
                dist = esd(lam)
                yield n, trial, levy_distance(dist, sc), kolmogorov_distance(dist, sc)

    path = out / "simulate.csv"
    _write_csv(path, ("n", "trial", "levy_to_sc", "kolmogorov_to_sc"), rows())
    return [path]


def _cmd_moments(config: ExperimentConfig, out: Path) -> list[Path]:
    rows = []
    oracle_rows = []
    for n in config.sizes:
        spec = config.ensemble.build(n, config.seed)
        eigs = trial_eigenvalues(spec, config.trials, config.threads)
        for k in config.k_list:
            # the mean of each trial's (1/n) tr W^k, each row summed as np.mean sums one spectrum
            empirical = float(np.mean(np.mean(eigs**k, axis=1)))
            catalan = semicircle_moment(k)
            rows.append((n, k, config.trials, empirical, catalan, abs(empirical - catalan)))
            if config.exact_oracle:
                exact = walk_sum_moment(spec.law, spec.profile, n, k, spec.effective_diagonal_law)
                oracle_rows.append((n, k, exact, empirical, abs(empirical - exact)))
    path = out / "moments.csv"
    _write_csv(path, ("n", "k", "trials", "empirical", "catalan", "abs_err"), rows)
    written = [path]
    if config.exact_oracle:
        opath = out / "moments_oracle.csv"
        _write_csv(opath, ("n", "k", "walk_sum", "empirical", "abs_err"), oracle_rows)
        written.append(opath)
    return written


# every name is 11 bytes, so a line's width does not depend on its class
_CLASS_NAMES = np.array([c.value for c in WalkClass], dtype="S")


def _walk_lines(k: int, t: int, first_id: int, rows: np.ndarray, codes: np.ndarray) -> bytes:
    """The walks.csv lines of one census block as fixed-width byte rows.

    While t < 10 every label is one digit, so a line's width changes only
    with its class id's digit count, that is at the powers of ten.  The block
    is split there into runs of equal-width rows.  Each run is a uint8 matrix
    in one buffer: a template line copied into every row, then the id digits,
    labels and class names written column by column.  The buffer is written
    with one ``tobytes()``.  From t = 10 on, each label takes two columns and
    a one-digit label is led by a 0 byte, a byte no CSV line contains; those
    are dropped at the end.  The text equals ``_fmt`` of each cell.
    """
    count, width = rows.shape
    label_width = len(str(t))
    names = _CLASS_NAMES[codes].view(np.uint8).reshape(count, _CLASS_NAMES.itemsize)

    def template(digits: int) -> bytes:
        """A line with every id digit, label digit and name byte still to write."""
        sequence = "-".join(["0" * label_width] * width)
        return f"{k},{t},{'0' * digits},{sequence},{'_' * names.shape[1]}\n".encode()

    runs, lo = [], first_id  # (lo, hi, template): the ids lo..hi-1 share a digit count
    while lo < first_id + count:
        hi = min(first_id + count, 10 ** len(str(lo)))
        runs.append((lo, hi, np.frombuffer(template(len(str(lo))), dtype=np.uint8)))
        lo = hi
    buf = np.empty(sum((hi - lo) * len(row) for lo, hi, row in runs), dtype=np.uint8)
    at, head = 0, len(f"{k},{t},")
    for lo, hi, row in runs:
        digits = len(str(lo))
        line = buf[at : at + (hi - lo) * len(row)].reshape(hi - lo, -1)
        at += line.size
        line[:] = row
        ids = np.arange(lo, hi, dtype=np.min_scalar_type(hi))
        for c in range(head + digits - 1, head - 1, -1):  # last digit first
            ids, digit = np.divmod(ids, 10)
            line[:, c] += digit
        labels, s = rows[lo - first_id : hi - first_id].view(np.uint8), head + digits + 1
        step = label_width + 1  # a label and its dash
        stop = s + step * width - 1
        if label_width == 1:
            line[:, s:stop:2] += labels
        else:  # a label with fewer digits is led by 0 bytes
            for c in range(label_width):
                power = 10 ** (label_width - 1 - c)
                line[:, s + c : stop : step] = np.where(labels >= power, labels // power % 10 + 48, 0)
        line[:, -1 - names.shape[1] : -1] = names[lo - first_id : hi - first_id]
    return (buf[buf != 0] if label_width > 1 else buf).tobytes()


def _cmd_walks(config: ExperimentConfig, out: Path) -> list[Path]:
    path = out / "walks.csv"
    with open(path, "wb") as fh:
        fh.write(b"k,t,class_id,sequence,classification\n")
        for k in config.k_list:
            class_id = 0
            for t, rows, codes in census_blocks(k):
                fh.write(_walk_lines(k, t, class_id, rows, codes))
                class_id += len(rows)
    return [path]


def _cmd_stieltjes(config: ExperimentConfig, out: Path) -> list[Path]:
    rows = []
    density_paths = []
    for n in config.sizes:
        spec = config.ensemble.build(n, config.seed)
        pooled = esd(trial_eigenvalues(spec, config.trials, config.threads))
        for z in config.z_list:
            s = stieltjes_atomic(pooled, z)
            sc = semicircle_stieltjes(z)
            residual = abs(s + 1.0 / (z + s))
            rows.append((n, z.real, z.imag, s.real, s.imag, sc.real, sc.imag, residual))
        if config.grid is not None:
            lo, hi, step = config.grid
            pts = np.arange(lo, hi + 0.5 * step, step)
            try:
                dens = atomic_density(pooled, config.bandwidth, pts, config.threads)
            except ValueError as exc:  # the grid undersamples a sharp density
                raise ConfigError(
                    f"stieltjes.grid step {step:g} is too coarse for "
                    f"stieltjes.bandwidth {config.bandwidth:g}: {exc}"
                ) from exc
            dpath = out / f"density_n{n}.csv"
            _write_csv(dpath, ("a", "density"), list(zip(dens.grid, dens.values)))
            density_paths.append(dpath)
    path = out / "stieltjes.csv"
    _write_csv(
        path,
        ("n", "z_re", "z_im", "s_re", "s_im", "sc_re", "sc_im", "residual"),
        rows,
    )
    return [path, *density_paths]


def _cmd_conditions(config: ExperimentConfig, out: Path) -> list[Path]:
    rows = []
    for n in config.sizes:
        spec = config.ensemble.build(n, config.seed)
        base = condition_sums(spec, config.c_bound, config.eps_list)
        gauss = gaussian_row_check(spec, config.eps_list)
        tail_by_eps = dict(gauss.tail_prob_sums)
        lind_by_eps = dict(base.lindeberg)
        for eps in config.eps_list:
            rows.append(
                (
                    n,
                    base.C,
                    eps,
                    base.var_row_sum_stat,
                    base.row_excess_stat,
                    lind_by_eps[eps],
                    tail_by_eps[eps],
                    gauss.truncated_mean_sum,
                    gauss.truncated_variance_sum,
                    base.finite_variance,
                )
            )
    path = out / "conditions.csv"
    _write_csv(
        path,
        (
            "n",
            "c",
            "eps",
            "var_row_sum",
            "row_excess",
            "lindeberg",
            "tail_prob_row_max",
            "trunc_mean_row_max",
            "trunc_var_row_worst",
            "finite_variance",
        ),
        rows,
    )
    return [path]


def _cmd_concentration(config: ExperimentConfig, out: Path) -> list[Path]:
    rows = []
    ramp = RampFunction(config.ramp_p, config.ramp_q)
    for n in config.sizes:
        spec = config.ensemble.build(n, config.seed)
        estimates = empirical_tail(
            spec, ramp, list(config.t_list), config.trials, threads=config.threads
        )
        for est in estimates:
            rows.append(
                (est.statistic_name, est.t, est.empirical_prob, est.bound, est.trials, n, config.seed)
            )
    if config.bernoulli_count > 0:
        probs = [config.bernoulli_p] * config.bernoulli_count
        est = bernstein_tail_check(probs, config.bernoulli_x, config.trials, seed=config.seed)
        rows.append(
            (
                est.statistic_name,
                est.t,
                est.empirical_prob,
                est.bound,
                est.trials,
                config.bernoulli_count,
                config.seed,
            )
        )
    path = out / "concentration.csv"
    _write_csv(path, ("statistic", "t", "empirical", "bound", "trials", "n", "seed"), rows)
    return [path]


def _reduce_table(spec: EnsembleSpec, eta: float, c_bound: float) -> tuple[np.ndarray, tuple[float, float]]:
    """The read-only rescaling table of one size and its (min, max) over the entries with
    variance to rescale (all, when none has): a zero-variance entry's c rescales nothing.
    The variances and the mask, read through ``where=``, are dropped before any trial."""
    variances = truncated_profile(spec, eta)
    coeffs = rescale_to_row_bound(variances, c_bound)
    coeffs.setflags(write=False)
    live = variances > 0.0
    if not live.any():
        live = True
    return coeffs, (float(coeffs.min(where=live, initial=np.inf)), float(coeffs.max(where=live, initial=-np.inf)))


def _cmd_reduce(config: ExperimentConfig, out: Path) -> list[Path]:
    rows = []
    for n in config.sizes:
        spec = config.ensemble.build(n, config.seed)
        eta = config.eta if config.eta is not None else auto_eta(spec)
        # one read-only table per size, shared by every trial's thread
        coeffs, coeff_range = _reduce_table(spec, eta, config.c_bound)

        def one(trial: int):
            # pipeline's trace from the sample alone: no truncated or rescaled matrix is
            # built, and the centralize stage's costs are its exact zeros
            removed, delta_truncate, delta_rescale = _reduction_costs(sample_trial(spec, trial).entries, eta, coeffs)
            return (eta, removed, 0.0, delta_truncate, 0.0, delta_rescale) + coeff_range

        for trial, vals in enumerate(parallel_map(one, range(config.trials), config.threads)):
            rows.append((n, trial) + vals)
    path = out / "reduce.csv"
    _write_csv(
        path,
        (
            "n",
            "trial",
            "eta",
            "truncated_count",
            "centering_norm_sq",
            "delta_truncate",
            "delta_centralize",
            "delta_rescale",
            "coeff_min",
            "coeff_max",
        ),
        rows,
    )
    return [path]


# in the order --help lists them
_COMMAND_FNS = {
    "simulate": _cmd_simulate,
    "moments": _cmd_moments,
    "walks": _cmd_walks,
    "stieltjes": _cmd_stieltjes,
    "concentration": _cmd_concentration,
    "reduce": _cmd_reduce,
    "conditions": _cmd_conditions,
}
COMMANDS = tuple(_COMMAND_FNS)


def _sha256(path: Path) -> str:
    h, buf = hashlib.sha256(), bytearray(1 << 18)
    piece = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:  # through one buffer: a k = 12 walks.csv is over 200 MB
        while size := fh.readinto(buf):
            h.update(piece[:size])
    return h.hexdigest()


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one experiment and persist CSVs plus manifest.json."""
    diags = validate(config)
    if diags:
        raise ConfigError("; ".join(diags))
    t0 = time.perf_counter()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = _COMMAND_FNS[config.command](config, out)
    checksums = tuple((p.name, _sha256(p)) for p in written)
    manifest = RunManifest(
        command=config.command,
        master_seed=config.seed,
        config=config.raw,
        checksums=checksums,
        wall_time_s=time.perf_counter() - t0,
        version=__version__,
        stream_layout=STREAM_LAYOUT,
        machine=_machine_state(config.threads),
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Sample Hermitian ensembles and check semicircle-law predictions.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: WIGNERLAB_THREADS, then config, then 1)",
    )
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        config = ExperimentConfig.from_mapping(parse_config_text(text))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    overrides: dict = {"command": args.command}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    threads = args.threads
    if threads is None and "WIGNERLAB_THREADS" in os.environ:
        try:
            threads = int(os.environ["WIGNERLAB_THREADS"])
        except ValueError:
            print("error: WIGNERLAB_THREADS must be an integer", file=sys.stderr)
            return 3
    if threads is not None:
        overrides["threads"] = threads
    config = replace(config, **overrides)
    try:
        manifest = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # numpy's _ArrayMemoryError included: the preflight in validate() is a lower bound
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}; try smaller sizes or fewer threads", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"error: eigensolver failed: {exc}", file=sys.stderr)
        return 3
    names = ", ".join(name for name, _ in manifest.checksums)
    print(
        f"{config.command}: wrote {names} + manifest.json to {config.out_dir} "
        f"in {manifest.wall_time_s:.2f}s (seed {config.seed})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
