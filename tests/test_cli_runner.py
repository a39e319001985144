"""Config parsing, validation diagnostics, CSV outputs, and exit codes."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; not inside a traced run
import pytest

from wignerlab import cli_runner, ensembles
from wignerlab.cli_runner import (
    COMMANDS,
    CONFIG_KEYS,
    ConfigError,
    EnsembleConfig,
    ExperimentConfig,
    main,
    parse_config_text,
    run,
    validate,
)
from wignerlab.ensembles import sample_trial
from wignerlab.hermitian_core import HermitianMatrix, blas_runtime_threads, eigenvalues_desc
from wignerlab.reductions import auto_eta, rescale_to_row_bound, truncated_profile
from wignerlab.spectral_measures import SemicircleLaw, esd, levy_distance
from wignerlab.stieltjes import recursion_residual
from wignerlab.streams import STREAM_LAYOUT
from wignerlab.walk_combinatorics import WalkClass, census_blocks

from _oracles import chained_reduction_costs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# reduce specs as config keys: the benchmark's banded Pareto spec, a complex law
# (its real diagonal law has its own truncated terms) and a constant_zero
# diagonal; each c lies below some truncated row sums, so the rescale stage does work
REDUCE_SPECS = {
    "banded_pareto": {
        "ensemble.preset": None, "ensemble.law": "pareto_symmetric", "ensemble.alpha": "2.5",
        "ensemble.scale": "1", "ensemble.profile": "banded", "ensemble.band_width": "64",
        "ensemble.band_inside": "1/n", "ensemble.band_outside": "5e-4", "reduce.eta": "auto", "reduce.c": "0.25",
    },
    "gaussian_complex": {
        "ensemble.preset": None, "ensemble.law": "gaussian_complex", "reduce.eta": "0.15", "reduce.c": "0.3",
    },
    "constant_zero_diagonal": {
        "ensemble.preset": None, "ensemble.law": "gaussian_real", "ensemble.diagonal_law": "constant_zero",
        "reduce.eta": "0.25", "reduce.c": "0.7",
    },
}


def make_config(command: str, out_dir: str, **overrides: str | None) -> ExperimentConfig:
    """A small, fast config for `command` with raw-key overrides; None drops a key."""
    mapping = {
        "command": command,
        "sizes": "16",
        "trials": "2",
        "seed": "42",
        "out": out_dir,
        "ensemble.law": "rademacher",
        "ensemble.preset": "wigner_unit",
    }
    if command in ("moments", "walks"):
        mapping.setdefault("moments.k", "2,4")
    if command == "stieltjes":
        mapping.setdefault("stieltjes.z", "1j")
    if command == "concentration":
        mapping["trials"] = "100"
        mapping.setdefault("concentration.t", "0.5,1.0")
    mapping.update(overrides)
    return ExperimentConfig.from_mapping({k: v for k, v in mapping.items() if v is not None})


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# config text parsing
# ---------------------------------------------------------------------------


def test_parse_basic_key_values():
    text = "sizes = 64, 128\ntrials=4\n  seed =  7  \n"
    assert parse_config_text(text) == {"sizes": "64, 128", "trials": "4", "seed": "7"}


def test_parse_comments_and_blank_lines():
    text = "# full-line comment\n\nseed = 3  # trailing comment\n   \n# another\n"
    assert parse_config_text(text) == {"seed": "3"}


def test_parse_later_keys_override():
    assert parse_config_text("seed = 1\nseed = 2\n") == {"seed": "2"}


def test_parse_value_may_contain_equals():
    assert parse_config_text("note = a=b\n") == {"note": "a=b"}


def test_parse_rejects_line_without_equals():
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_config_text("seed = 1\nnot a pair\n")


def test_parse_rejects_empty_key():
    with pytest.raises(ConfigError, match="line 1: empty key"):
        parse_config_text("= 3\n")


# ---------------------------------------------------------------------------
# mapping -> ExperimentConfig
# ---------------------------------------------------------------------------


def test_from_mapping_defaults():
    config = ExperimentConfig.from_mapping({"command": "simulate", "sizes": "8"})
    assert config.command == "simulate"
    assert config.sizes == (8,)
    assert config.trials == 1
    assert config.seed == 0
    assert config.out_dir == "results"
    assert config.threads == 1
    assert config.k_list == ()
    assert config.exact_oracle is False
    assert config.bandwidth == pytest.approx(1e-2)
    assert config.c_bound == pytest.approx(1.0)
    assert config.eps_list == (0.125, 0.25, 0.5, 1.0)
    assert config.ramp_p == pytest.approx(-0.5)
    assert config.ramp_q == pytest.approx(0.5)
    assert config.eta is None  # "auto" unless a number is given


def test_from_mapping_parses_lists_and_grid():
    config = ExperimentConfig.from_mapping(
        {
            "command": "stieltjes",
            "sizes": "16, 32",
            "stieltjes.z": "1j, 0.5+1j",
            "stieltjes.grid": "-3, 3, 0.01",
            "conditions.eps": "0.5, 1.0",
        }
    )
    assert config.sizes == (16, 32)
    assert config.z_list == (1j, 0.5 + 1j)
    assert config.grid == (-3.0, 3.0, 0.01)
    assert config.eps_list == (0.5, 1.0)


def test_from_mapping_k_list_from_either_section():
    by_moments = ExperimentConfig.from_mapping({"command": "moments", "moments.k": "2,4"})
    by_walks = ExperimentConfig.from_mapping({"command": "walks", "walks.k": "3,5"})
    assert by_moments.k_list == (2, 4)
    assert by_walks.k_list == (3, 5)


def test_from_mapping_c_bound_prefers_conditions_over_reduce():
    both = ExperimentConfig.from_mapping({"conditions.c": "2.0", "reduce.c": "3.0"})
    only_reduce = ExperimentConfig.from_mapping({"reduce.c": "3.0"})
    assert both.c_bound == pytest.approx(2.0)
    assert only_reduce.c_bound == pytest.approx(3.0)


def test_from_mapping_eta_auto_and_number():
    assert ExperimentConfig.from_mapping({"reduce.eta": "auto"}).eta is None
    assert ExperimentConfig.from_mapping({"reduce.eta": "0.25"}).eta == pytest.approx(0.25)
    with pytest.raises(ConfigError, match="reduce.eta: expected number or 'auto'"):
        ExperimentConfig.from_mapping({"reduce.eta": "sometimes"})


def test_from_mapping_grid_needs_three_numbers():
    with pytest.raises(ConfigError, match="stieltjes.grid: expected 'min, max, step'"):
        ExperimentConfig.from_mapping({"stieltjes.grid": "-3, 3"})


def test_from_mapping_type_errors():
    with pytest.raises(ConfigError, match="trials: expected integer"):
        ExperimentConfig.from_mapping({"trials": "many"})
    with pytest.raises(ConfigError, match="sizes: expected integers"):
        ExperimentConfig.from_mapping({"sizes": "64, big"})
    with pytest.raises(ConfigError, match="stieltjes.bandwidth: expected number"):
        ExperimentConfig.from_mapping({"stieltjes.bandwidth": "wide"})
    with pytest.raises(ConfigError, match="moments.exact_oracle: expected boolean"):
        ExperimentConfig.from_mapping({"moments.exact_oracle": "maybe"})
    with pytest.raises(ConfigError, match="stieltjes.z: expected complex numbers"):
        ExperimentConfig.from_mapping({"stieltjes.z": "up"})


def test_from_mapping_empty_list_leaves_default():
    config = ExperimentConfig.from_mapping({"moments.k": "", "walks.k": "3", "conditions.eps": ""})
    assert config.k_list == (3,)  # an empty moments.k falls back to walks.k
    assert config.eps_list == (0.125, 0.25, 0.5, 1.0)
    both = ExperimentConfig.from_mapping({"moments.k": "2", "walks.k": "3"})
    assert both.k_list == (2,)


def test_from_mapping_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'stieltjes.bandwith'"):
        ExperimentConfig.from_mapping({"stieltjes.bandwith": "0.05"})


@pytest.mark.parametrize(
    "preset, key",
    [
        ("wigner_unit", "ensemble.diagonal_law"),
        ("wigner_unit", "ensemble.profile"),
        ("wigner_unit", "ensemble.band_width"),
        ("heavy_tail", "ensemble.law"),
        ("heavy_tail", "ensemble.alpha"),
    ],
)
def test_from_mapping_rejects_key_the_preset_ignores(preset, key):
    with pytest.raises(ConfigError, match=f"preset '{preset}' ignores {key}"):
        ExperimentConfig.from_mapping({"ensemble.preset": preset, key: "1"})


def test_every_documented_key_is_read():
    """README's key table and CONFIG_KEYS name the same keys."""
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    section = readme.split("### Config format", 1)[1].split("###", 1)[0]
    documented = {
        key
        for line in section.splitlines()
        if line.startswith("| `")
        for key in re.findall(r"`([a-z_.]+)`", line.split("|")[1])
    }
    assert documented == set(CONFIG_KEYS)


def test_from_mapping_echoes_raw_items_sorted():
    config = ExperimentConfig.from_mapping({"seed": "9", "command": "simulate"})
    assert config.raw == (("command", "simulate"), ("seed", "9"))


# ---------------------------------------------------------------------------
# ensemble block
# ---------------------------------------------------------------------------


def test_ensemble_build_preset_wigner_unit():
    spec = EnsembleConfig(preset="wigner_unit", law_kind="rademacher").build(8, 3)
    assert spec.n == 8
    assert spec.seed == 3
    assert spec.law.kind == "rademacher_scaled"
    assert spec.profile.matrix(8) == pytest.approx(np.full((8, 8), 1 / 8))


def test_ensemble_build_preset_heavy_tail():
    spec = EnsembleConfig(preset="heavy_tail").build(16, 0)
    assert spec.law.kind == "pareto_symmetric"
    assert spec.law.alpha == pytest.approx(2.0)


def test_ensemble_build_explicit_banded_profile():
    cfg = EnsembleConfig(
        law_kind="gaussian_real",
        profile_kind="banded",
        band_width=1,
        band_inside="0.5",
        band_outside="0",
    )
    spec = cfg.build(4, 0)
    assert spec.profile.matrix(4)[0].tolist() == [0.5, 0.5, 0.0, 0.0]


def test_ensemble_build_variance_accepts_one_over_n():
    spec = EnsembleConfig(law_kind="gaussian_real", variance="1/n").build(10, 0)
    assert spec.profile.matrix(10)[0, 0] == pytest.approx(0.1)
    with pytest.raises(ConfigError, match="expected number or '1/n'"):
        EnsembleConfig(law_kind="gaussian_real", variance="2/n").build(10, 0)


def test_ensemble_build_pareto_requires_parameters():
    spec = EnsembleConfig(law_kind="pareto_symmetric", alpha=2.5, scale=1.0).build(8, 0)
    assert spec.law.alpha == pytest.approx(2.5)
    with pytest.raises(ValueError, match="pareto_symmetric requires alpha > 0"):
        EnsembleConfig(law_kind="pareto_symmetric").build(8, 0)


def test_ensemble_build_unknown_names_fail():
    with pytest.raises(ConfigError, match="unknown ensemble preset 'goe'"):
        EnsembleConfig(preset="goe").build(8, 0)
    with pytest.raises(ConfigError, match="unknown entry law 'cauchy'"):
        EnsembleConfig(law_kind="cauchy").build(8, 0)
    with pytest.raises(ConfigError, match="unknown profile kind 'circulant'"):
        EnsembleConfig(law_kind="gaussian_real", profile_kind="circulant").build(8, 0)
    with pytest.raises(ConfigError, match="unknown diagonal law 'pareto_symmetric'"):
        EnsembleConfig(law_kind="gaussian_real", diagonal_law="pareto_symmetric").build(8, 0)


# ---------------------------------------------------------------------------
# validation diagnostics
# ---------------------------------------------------------------------------


def test_validate_empty_sizes():
    config = ExperimentConfig.from_mapping({"command": "simulate"})
    assert "sizes must be nonempty" in validate(config)


def test_validate_oracle_requires_finite_moments(tmp_path):
    config = make_config(
        "moments",
        str(tmp_path),
        **{
            "ensemble.law": "pareto_symmetric",
            "ensemble.alpha": "2.5",
            "ensemble.scale": "1.0",
            "moments.k": "2,4",
            "moments.exact_oracle": "true",
            "sizes": "6",
        },
    )
    assert validate(config) == ["oracle requires finite moments"]


def test_validate_bundled_configs_are_runnable():
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        mapping = parse_config_text(path.read_text())
        mapping["command"] = path.stem.split("_")[0]
        config = ExperimentConfig.from_mapping(mapping)
        assert validate(config) == [], f"{path.name}: {validate(config)}"


def test_validate_unknown_command_short_circuits():
    config = ExperimentConfig.from_mapping({"command": "render"})
    assert validate(config) == ["unknown command: 'render'"]


def test_validate_memory_preflight(tmp_path, monkeypatch):
    """Each worker busy at once counts its fixed temporaries and two copies of
    n^2 entries of 8 bytes (16 complex) for each trial matrix it holds,
    min(solve_workers(n, threads) x ceil(512 / n), trials) of them, plus every
    trial's kept spectrum (n x 8 bytes) and stream key (16 bytes).  A reduce
    worker counts three copies of its one matrix, beside the size's table."""
    worker = cli_runner._WORKER_BYTES
    # two trials are one block of one worker at n = 64 (and at n = 32)
    need = 2 * 64 * 64 * 8 * 2 + worker + 2 * (64 * 8 + 16)
    config = make_config("simulate", str(tmp_path), sizes="32, 64", trials="2", threads="3")
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: need)
    assert validate(config) == []
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: need - 1)
    [diag] = validate(config)
    assert diag.startswith("sizes: n=64 needs")
    assert validate(replace(config, command="conditions")) == []  # no matrix is sampled
    # complex matrices are twice the bytes; moments counts three copies of the spectra
    complex_need = 2 * 64 * 64 * 16 * 2 + worker + 2 * (3 * 64 * 8 + 16)
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: complex_need - 1)
    complex_law = make_config(
        "moments", str(tmp_path), sizes="64", trials="2", threads="3",
        **{"ensemble.law": "gaussian_complex"},
    )
    assert validate(complex_law)[0].startswith("sizes: n=64 needs")
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: complex_need)
    assert validate(complex_law) == []
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: None)
    assert validate(complex_law) == []
    # each worker of trial_eigenvalues holds a block of ceil(512 / n) matrices;
    # a reduce worker holds one, beside the size's rescaling table
    blocks = make_config("simulate", str(tmp_path), sizes="64", trials="100", threads="3")
    block_need = 2 * 64 * 64 * 8 * 24 + 3 * worker + 100 * (64 * 8 + 16)
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: block_need - 1)
    assert validate(blocks)[0].startswith("sizes: n=64 needs")
    assert "24 concurrent 64x64 trial matrices" in validate(blocks)[0]
    assert f"3 x {worker} bytes of worker temporaries" in validate(blocks)[0]
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: block_need)
    assert validate(blocks) == []
    reduce_need = 3 * 64 * 64 * 8 * 3 + 64 * 64 * 8 + 3 * worker
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: reduce_need - 1)
    assert "3 concurrent 64x64 trial matrices" in validate(replace(blocks, command="reduce"))[0]
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: reduce_need)
    assert validate(replace(blocks, command="reduce")) == []
    # a spec whose diagonal law differs from its entry law counts as any other:
    # one worker's matrix and the table, above the table's build of three arrays
    zero_diagonal = make_config(
        "reduce", str(tmp_path), sizes="64", trials="1",
        **{"ensemble.preset": None, "ensemble.law": "gaussian_real", "ensemble.diagonal_law": "constant_zero"},
    )
    build_need = 3 * 64 * 64 * 8 + 64 * 64 * 8 + worker
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: build_need - 1)
    assert "beside the 64x64 rescaling table" in validate(zero_diagonal)[0]
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: build_need)
    assert validate(zero_diagonal) == []
    # from n = 512 up a block holds one trial and solves on the process's BLAS
    # threads: two trial threads over two BLAS threads solve one matrix at a time
    large = make_config("simulate", str(tmp_path), sizes="1024", trials="4", threads="2")
    kept = 4 * (1024 * 8 + 16)
    for blas, matrices in ((2, 1), (1, 2), (None, 2)):
        monkeypatch.setattr(ensembles, "blas_runtime_threads", lambda blas=blas: blas)
        large_need = 2 * 1024 * 1024 * 8 * matrices + matrices * worker + kept
        monkeypatch.setattr(cli_runner, "_physical_memory", lambda: large_need - 1)
        [diag] = validate(large)
        assert f"{matrices} concurrent 1024x1024 trial matrices" in diag, blas
        monkeypatch.setattr(cli_runner, "_physical_memory", lambda: large_need)
        assert validate(large) == [], blas


def test_validate_memory_preflight_accepts_a_lone_solve_that_fits(tmp_path, monkeypatch):
    """On 7.83 GiB a lone complex trial at n = 14000 (2.92 GiB a matrix) fits in its
    two counted copies, one at n = 17000 (4.31 GiB) does not, and a reduce worker's
    three copies at n = 14000 do not either."""
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: int(7.83 * 2**30))
    config = make_config(
        "simulate", str(tmp_path), sizes="14000", trials="1", **{"ensemble.law": "gaussian_complex"}
    )
    assert validate(config) == []
    [diag] = validate(replace(config, sizes=(17000,)))
    assert diag.startswith("sizes: n=17000 needs")
    assert "(2 copies each)" in diag
    [diag] = validate(replace(config, command="reduce"))
    assert diag.startswith("sizes: n=14000 needs")
    assert "(3 copies each)" in diag


def test_trial_eigenvalues_peak_memory_within_the_preflight_at_n_1():
    """At n = 1 the stream keys are most of what trial_eigenvalues holds: their
    derivation stays near the 16 bytes per trial that the preflight counts, and
    a block of 512 trials within its worker's count."""
    config = make_config("simulate", "unused", sizes="1", trials="20000")
    spec = config.ensemble.build(1, config.seed)
    need, _ = cli_runner._memory_need(config, spec)
    ensembles.trial_eigenvalues(spec, 600)  # numpy's and the generator's lazy state
    tracemalloc.start()
    try:
        ensembles.trial_eigenvalues(spec, config.trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= need


@pytest.mark.parametrize("command", ("simulate", "moments", "stieltjes", "concentration"))
def test_validate_memory_preflight_counts_kept_spectra(tmp_path, monkeypatch, command):
    """One n = 4096 matrix fits in 7.8 GiB, but 10^8 trials' spectra (3.3 TB) do not.

    Each command that keeps every trial's spectrum counts its copies of them,
    and the message names their bytes.  ``reduce`` keeps no spectra.
    """
    monkeypatch.setattr(cli_runner, "_physical_memory", lambda: int(7.8 * 2**30))
    config = make_config(
        command, str(tmp_path), sizes="4096", trials="100000000", threads="2",
        **{"moments.k": "2", "stieltjes.z": "1j", "concentration.t": "0.5"},
    )
    copies = {"simulate": 1, "moments": 3, "stieltjes": 6, "concentration": 3}[command]
    kept = 10**8 * (copies * 4096 * 8 + 16)
    [diag] = validate(config)
    assert diag.startswith("sizes: n=4096 needs")
    assert f"{kept} bytes of 100000000 trials' kept spectra ({copies} x 4096 x 8 bytes each)" in diag
    assert "physical memory is 7.8 GiB" in diag
    assert validate(replace(config, command="reduce")) == []
    few = replace(config, trials=1000)  # 33 MB per copy of the spectra, 197 MB for stieltjes
    assert validate(few) == []


@pytest.mark.parametrize(
    "command, n, trials, threads, overrides",
    [
        pytest.param("moments", 64, 4000, 1, {}, id="moments"),
        pytest.param("concentration", 64, 4000, 1, {}, id="concentration"),
        pytest.param("simulate", 256, 64, 1, {}, id="simulate"),
        pytest.param("simulate", 256, 64, 2, {}, id="simulate-2_threads"),
    ]
    + [
        pytest.param("reduce", 512, 3, threads, REDUCE_SPECS[case], id=f"reduce-{case}-{threads}_threads")
        for case in REDUCE_SPECS
        for threads in (1, 2)
    ],
)
def test_command_peak_memory_within_the_counted_copies(tmp_path, command, n, trials, threads, overrides):
    """A whole run stays within the memory preflight's own total for its config:
    the workers' blocks of trial matrices, the stream keys and the copies of the
    (trials, n) spectra array.  For moments and concentration the array with
    moments' eigs**k or concentration's ramp values also stays within their
    counted copies alone.  simulate's rows are written as they come, and at
    n = 256 each worker holds a block of two trial matrices.  reduce holds its
    rescaling table beside each worker's sample and cost pass, after the
    table's build, counted once for every law and diagonal law."""
    config = make_config(
        command, str(tmp_path), sizes=str(n), trials=str(trials), threads=str(threads), **overrides
    )
    need, _ = cli_runner._memory_need(config, config.ensemble.build(n, config.seed))
    tracemalloc.start()
    try:
        run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= need
    if command in ("moments", "concentration"):
        assert peak <= cli_runner._KEPT_SPECTRA[command] * trials * n * 8


def test_validate_walks_needs_no_sizes():
    config = ExperimentConfig.from_mapping({"command": "walks", "walks.k": "2,4"})
    assert validate(config) == []


def test_validate_reports_all_problems_at_once():
    config = ExperimentConfig.from_mapping(
        {"command": "moments", "sizes": "0", "trials": "0", "threads": "0"}
    )
    diags = validate(config)
    assert "sizes must be positive" in diags
    assert "trials must be at least 1" in diags
    assert "threads must be at least 1" in diags
    assert "moments.k must be nonempty" in diags


def test_validate_bad_ensemble_is_reported_per_size():
    config = ExperimentConfig.from_mapping(
        {"command": "simulate", "sizes": "4", "ensemble.preset": "heavy_tail"}
    )
    diags = validate(config)
    assert len(diags) == 1
    assert diags[0].startswith("ensemble at n=4: heavy_tail_spec needs n >= 8")


def test_validate_oracle_size_limits(tmp_path):
    config = make_config(
        "moments",
        str(tmp_path),
        **{"sizes": "8", "moments.k": "2,10", "moments.exact_oracle": "true"},
    )
    diags = validate(config)
    assert "exact oracle limited to n <= 6" in diags
    assert "exact oracle limited to k <= 8" in diags


def test_validate_walk_census_limit(tmp_path):
    config = make_config("walks", str(tmp_path), **{"moments.k": "2,14"})
    assert "walk census limited to k <= 12" in validate(config)


def test_validate_stieltjes_points_and_grid(tmp_path):
    config = make_config(
        "stieltjes",
        str(tmp_path),
        **{"stieltjes.z": "1, 1j", "stieltjes.grid": "3, -3, 0.1", "stieltjes.bandwidth": "0"},
    )
    diags = validate(config)
    assert "stieltjes points must lie in the upper half plane" in diags
    assert "stieltjes.grid must satisfy min < max and step > 0" in diags
    assert "stieltjes.bandwidth must be positive" in diags
    empty = make_config("stieltjes", str(tmp_path), **{"stieltjes.z": ""})
    assert "stieltjes.z must be nonempty" in validate(empty)


def test_validate_conditions_parameters(tmp_path):
    config = make_config(
        "conditions", str(tmp_path), **{"conditions.c": "0", "conditions.eps": "0.5, 0"}
    )
    diags = validate(config)
    assert "conditions.c must be positive" in diags
    assert "conditions.eps must be positive" in diags


def test_validate_concentration_parameters(tmp_path):
    config = make_config(
        "concentration",
        str(tmp_path),
        **{
            "trials": "99",
            "concentration.t": "0.5, -1",
            "concentration.ramp_p": "0.5",
            "concentration.ramp_q": "-0.5",
            "concentration.bernoulli_count": "10",
            "concentration.bernoulli_p": "1.5",
        },
    )
    diags = validate(config)
    assert "concentration.t must be positive" in diags
    assert "concentration ramp requires ramp_p < ramp_q" in diags
    assert "concentration needs at least 100 trials" in diags
    assert "concentration.bernoulli_p must lie in [0, 1]" in diags


def test_validate_reduce_parameters(tmp_path):
    config = make_config(
        "reduce", str(tmp_path), **{"reduce.eta": "-1", "reduce.c": "0"}
    )
    diags = validate(config)
    assert "reduce.eta must be positive or 'auto'" in diags
    assert "reduce.c must be positive" in diags


# ---------------------------------------------------------------------------
# run(): outputs, documented examples, determinism
# ---------------------------------------------------------------------------


def test_run_moments_single_row_near_unit_variance(tmp_path):
    config = make_config(
        "moments",
        str(tmp_path),
        **{"sizes": "64", "trials": "10", "moments.k": "2", "ensemble.law": "gaussian_real"},
    )
    manifest = run(config)
    header, rows = read_csv(tmp_path / "moments.csv")
    assert header == ["n", "k", "trials", "empirical", "catalan", "abs_err"]
    assert len(rows) == 1
    n, k, trials, empirical, catalan, abs_err = rows[0]
    assert (n, k, trials) == ("64", "2", "10")
    assert float(catalan) == 1.0
    assert abs(float(empirical) - 1.0) < 0.2
    assert float(abs_err) == pytest.approx(abs(float(empirical) - 1.0))
    assert manifest.command == "moments"


def test_run_walks_census_double_tree_counts(tmp_path):
    config = make_config("walks", str(tmp_path), **{"moments.k": "2,4,6"})
    run(config)
    header, rows = read_csv(tmp_path / "walks.csv")
    assert header == ["k", "t", "class_id", "sequence", "classification"]
    doubles = {k: 0 for k in ("2", "4", "6")}
    for k, _t, _cid, _seq, label in rows:
        if label == "double_tree":
            doubles[k] += 1
    assert doubles == {"2": 1, "4": 2, "6": 5}
    census_sizes = {"2": 2, "4": 15, "6": 203}  # Bell numbers for k-step walks
    for k, expected in census_sizes.items():
        assert sum(1 for row in rows if row[0] == k) == expected


def test_run_walks_census_k1_to_10_checksum(tmp_path):
    """The k = 1..10 census, the benchmark's range plus the one-step edge case, pinned byte for byte."""
    k_list = ",".join(str(k) for k in range(1, 11))
    manifest = run(make_config("walks", str(tmp_path), **{"moments.k": None, "walks.k": k_list}))
    expected = "fd4f8161acaf94ac1fa5be39c0fe7c41d78a08d2373478474d7ebe0f94c4aa6d"
    data = (tmp_path / "walks.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == expected
    assert dict(manifest.checksums) == {"walks.csv": expected}
    assert data.count(b"\n") == 142418  # header + Bell(1) + ... + Bell(10)


def _reference_walk_lines(k, t, first_id, rows, codes) -> bytes:
    """The walks.csv lines of a census block through ``csv.writer`` and ``_fmt``."""
    lines = io.StringIO()
    writer = csv.writer(lines, lineterminator="\n")
    names = [c.value for c in WalkClass]
    for i, (row, code) in enumerate(zip(rows.tolist(), codes.tolist())):
        sequence = "-".join(cli_runner._fmt(v) for v in row)
        writer.writerow([cli_runner._fmt(x) for x in (k, t, first_id + i, sequence, names[code])])
    return lines.getvalue().encode()


def _walk_line_cases():
    """Blocks whose lines change width: two-digit labels, and ids crossing a power of ten."""
    first_id = 0
    for t, rows, codes in census_blocks(11):
        if t >= 9:  # labels up to 9, 10 and 11
            yield f"k11_t{t}_at{first_id}", (11, t, first_id, rows, codes)
        first_id += len(rows)
    rows, codes = next((r, c) for t, r, c in census_blocks(6) if t == 3)  # 90 rows
    yield "ids_7_to_96", (6, 3, 7, rows, codes)  # one, two digits
    yield "ids_95_to_184", (6, 3, 95, rows, codes)  # two, three digits
    yield "ids_end_at_1000", (6, 3, 1000 - len(rows), rows, codes)  # last id 999
    _, rows, codes = next(b for b in census_blocks(11) if b[0] == 10)
    yield "t10_ids_95_on", (11, 10, 95, rows, codes)  # both widths change


@pytest.mark.parametrize("case", [pytest.param(c, id=i) for i, c in _walk_line_cases()])
def test_walk_lines_match_csv_writer(case):
    assert cli_runner._walk_lines(*case) == _reference_walk_lines(*case)


def test_walk_lines_peak_memory():
    """The k = 10, t = 4 block (16,384 rows, 726,170 bytes of lines): its row buffer
    and the bytes object, within 3 output sizes, measured 2.29.  Zero-padded rows
    compressed by a mask, built from int64 digit temporaries, peaked at 6.21."""
    _, rows, codes = next(b for b in census_blocks(10) if b[0] == 4)
    size = len(cli_runner._walk_lines(10, 4, 0, rows, codes))  # one-time state
    assert (len(rows), size) == (16384, 726170)
    tracemalloc.start()
    try:
        cli_runner._walk_lines(10, 4, 0, rows, codes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * size, peak / size


def test_run_same_config_twice_identical_checksums(tmp_path):
    config_a = make_config("simulate", str(tmp_path / "a"))
    config_b = make_config("simulate", str(tmp_path / "b"))
    first, second = run(config_a), run(config_b)
    assert first.checksums == second.checksums


def test_run_thread_count_does_not_change_bytes(tmp_path):
    serial = make_config("simulate", str(tmp_path / "serial"), threads="1", sizes="16,24")
    pooled = make_config("simulate", str(tmp_path / "pooled"), threads="3", sizes="16,24")
    run(serial)
    run(pooled)
    assert (tmp_path / "serial" / "simulate.csv").read_bytes() == (
        tmp_path / "pooled" / "simulate.csv"
    ).read_bytes()


def test_main_stieltjes_bytes_do_not_depend_on_threads(tmp_path):
    """512 pooled atoms at n = 64 split the 601-point grid into three density blocks."""
    path = write_config(
        tmp_path,
        **{
            "sizes": "16, 64",
            "trials": "8",
            "stieltjes.z": "1j, 0.5+1j",
            "stieltjes.grid": "-3, 3, 0.01",
            "stieltjes.bandwidth": "0.05",
        },
    )
    outputs = []
    for threads in (1, 2, 3):
        out = tmp_path / f"threads{threads}"
        assert main(["stieltjes", "--config", str(path), "--out", str(out), "--threads", str(threads)]) == 0
        names = ("stieltjes.csv", "density_n16.csv", "density_n64.csv")
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1] == outputs[2]


def test_run_simulate_csv_round_trips_doubles(tmp_path):
    config = make_config("simulate", str(tmp_path), sizes="16", trials="2")
    run(config)
    header, rows = read_csv(tmp_path / "simulate.csv")
    assert header == ["n", "trial", "levy_to_sc", "kolmogorov_to_sc"]
    spec = config.ensemble.build(16, config.seed)
    sc = SemicircleLaw()
    for row in rows:
        trial = int(row[1])
        expected = levy_distance(esd(eigenvalues_desc(sample_trial(spec, trial))), sc)
        assert float(row[2]) == expected  # 17 significant digits are lossless


def test_run_rejects_invalid_config(tmp_path):
    config = make_config("simulate", str(tmp_path), sizes="")
    with pytest.raises(ConfigError, match="sizes must be nonempty"):
        run(config)
    assert not (tmp_path / "manifest.json").exists()


def test_run_manifest_contents(tmp_path):
    config = make_config("simulate", str(tmp_path))
    manifest = run(config)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["command"] == "simulate"
    assert on_disk["master_seed"] == 42
    assert on_disk["config"] == dict(config.raw)
    assert on_disk["wall_time_s"] >= 0
    assert on_disk["version"] == manifest.version
    assert on_disk["stream_layout"] == manifest.stream_layout == STREAM_LAYOUT
    machine = on_disk["machine"]
    assert machine == dict(manifest.machine)
    assert machine["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (machine["blas_name"], machine["blas_version"]) == (blas["name"], blas["version"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert machine[var] == os.environ.get(var, "unset")
    assert machine["blas_runtime_threads"] == blas_runtime_threads()
    assert machine["cpu_count"] == os.cpu_count()
    assert machine["threads"] == config.threads == 1
    digest = hashlib.sha256((tmp_path / "simulate.csv").read_bytes()).hexdigest()
    assert on_disk["checksums"] == {"simulate.csv": digest}


def test_sha256_reads_through_one_buffer_at_any_length(tmp_path):
    """Files shorter than, as long as and longer than the 256 KiB read buffer hash as
    one read of their bytes would."""
    data = np.random.default_rng(3).bytes(3 * 2**18 + 7)
    for size in (0, 1, 2**18 - 1, 2**18, 2**18 + 1, len(data)):
        path = tmp_path / f"{size}.bin"
        path.write_bytes(data[:size])
        assert cli_runner._sha256(path) == hashlib.sha256(data[:size]).hexdigest(), size


@pytest.mark.parametrize(
    "n, trials, law",
    ((3, 2000, "rademacher"), (64, 10, "gaussian_complex")),
    ids=("n3-rademacher", "n64-complex"),
)
def test_run_moments_empirical_equals_per_trial_means(tmp_path, n, trials, law):
    """moments.csv's empirical has the bytes of the mean of per-trial np.mean calls."""
    ks = (1, 2, 3, 4, 6, 8)
    config = make_config(
        "moments",
        str(tmp_path),
        **{"sizes": str(n), "trials": str(trials), "moments.k": ", ".join(map(str, ks)), "ensemble.law": law},
    )
    run(config)
    _, rows = read_csv(tmp_path / "moments.csv")
    eigs = ensembles.trial_eigenvalues(config.ensemble.build(n, config.seed), trials)
    want = [float(np.mean([np.mean(lam**k) for lam in eigs])) for k in ks]
    assert [row[3] for row in rows] == [format(x, ".17g") for x in want]


def test_run_moments_oracle_emits_second_csv(tmp_path):
    config = make_config(
        "moments",
        str(tmp_path),
        **{"sizes": "4", "trials": "200", "moments.k": "2", "moments.exact_oracle": "true"},
    )
    run(config)
    header, rows = read_csv(tmp_path / "moments_oracle.csv")
    assert header == ["n", "k", "walk_sum", "empirical", "abs_err"]
    [(n, k, walk_sum, empirical, abs_err)] = rows
    assert float(walk_sum) == 1.0  # unit-variance rows make the k=2 moment exact
    assert abs(float(empirical) - 1.0) < 0.25
    assert float(abs_err) == pytest.approx(abs(float(empirical) - 1.0))


def test_run_moments_oracle_uses_diagonal_law(tmp_path):
    """With a zero diagonal at n=3 (sigma^2 = 1/3), (1/n) E tr W^4 is 10/9."""
    config = ExperimentConfig.from_mapping(
        {
            "command": "moments",
            "sizes": "3",
            "trials": "2",
            "out": str(tmp_path),
            "ensemble.law": "gaussian_real",
            "ensemble.variance": "1/n",
            "ensemble.diagonal_law": "constant_zero",
            "moments.k": "4",
            "moments.exact_oracle": "true",
        }
    )
    run(config)
    _, [(_, _, walk_sum, _, _)] = read_csv(tmp_path / "moments_oracle.csv")
    assert float(walk_sum) == pytest.approx(10 / 9, rel=1e-12)


def test_run_stieltjes_outputs_points_and_density(tmp_path):
    config = make_config(
        "stieltjes",
        str(tmp_path),
        **{
            "sizes": "32",
            "trials": "4",
            "stieltjes.z": "1j, 2j",
            "stieltjes.grid": "-2.5, 2.5, 0.5",
            "stieltjes.bandwidth": "0.05",
        },
    )
    manifest = run(config)
    assert [name for name, _ in manifest.checksums] == ["stieltjes.csv", "density_n32.csv"]
    header, rows = read_csv(tmp_path / "stieltjes.csv")
    assert header == ["n", "z_re", "z_im", "s_re", "s_im", "sc_re", "sc_im", "residual"]
    assert [(r[1], r[2]) for r in rows] == [("0", "1"), ("0", "2")]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert float(rows[0][6]) == pytest.approx(golden, abs=1e-12)  # Im s_sc(i)
    assert all(float(r[7]) < 0.5 for r in rows)  # fixed-point residual stays moderate
    dheader, drows = read_csv(tmp_path / "density_n32.csv")
    assert dheader == ["a", "density"]
    assert len(drows) == 11  # -2.5 .. 2.5 inclusive at step 0.5
    assert all(float(r[1]) >= 0 for r in drows)


def test_run_stieltjes_residual_is_recursion_residual(tmp_path):
    config = make_config(
        "stieltjes",
        str(tmp_path),
        **{"sizes": "64", "trials": "8", "seed": "3", "ensemble.law": "gaussian_real"},
    )
    run(config)
    _, [row] = read_csv(tmp_path / "stieltjes.csv")
    assert float(row[7]) == recursion_residual(config.ensemble.build(64, 3), 1j, 8)


def test_run_conditions_row_per_size_and_eps(tmp_path):
    config = make_config(
        "conditions",
        str(tmp_path),
        **{"sizes": "16, 32", "conditions.eps": "0.25, 0.5", "ensemble.law": "gaussian_real"},
    )
    run(config)
    header, rows = read_csv(tmp_path / "conditions.csv")
    assert header == [
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
    ]
    assert [(r[0], r[2]) for r in rows] == [
        ("16", "0.25"),
        ("16", "0.5"),
        ("32", "0.25"),
        ("32", "0.5"),
    ]
    for row in rows:
        assert float(row[3]) == 0.0  # unit rows deviate from 1 by nothing
        assert float(row[4]) == 0.0  # and never exceed C = 1
        assert row[9] == "1"  # booleans serialize as 0/1


def test_run_conditions_computes_each_report_once_per_size(tmp_path, monkeypatch):
    calls = {"condition_sums": [], "gaussian_row_check": []}
    for name in calls:
        real = getattr(ensembles, name)

        def counted(spec, *args, real=real, name=name, **kwargs):
            calls[name].append(spec.n)
            return real(spec, *args, **kwargs)

        # a call from the library resolves the name in ensembles, one from the runner in cli_runner
        monkeypatch.setattr(ensembles, name, counted)
        monkeypatch.setattr(cli_runner, name, counted)
    run(make_config("conditions", str(tmp_path), sizes="8, 16, 32"))
    assert calls == {"condition_sums": [8, 16, 32], "gaussian_row_check": [8, 16, 32]}


def test_run_concentration_rows_and_bernoulli(tmp_path):
    config = make_config(
        "concentration",
        str(tmp_path),
        **{
            "sizes": "8",
            "concentration.t": "0.5, 1.0",
            "concentration.bernoulli_count": "20",
            "concentration.bernoulli_p": "0.05",
            "concentration.bernoulli_x": "4.0",
        },
    )
    run(config)
    header, rows = read_csv(tmp_path / "concentration.csv")
    assert header == ["statistic", "t", "empirical", "bound", "trials", "n", "seed"]
    assert [r[0] for r in rows] == ["ramp(-0.5,0.5)", "ramp(-0.5,0.5)", "bernoulli_sum"]
    assert [r[4] for r in rows] == ["100", "100", "100"]
    assert rows[-1][5] == "20"  # bernoulli row reports the coin count
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0


def test_run_reduce_trace_columns(tmp_path):
    config = make_config(
        "reduce",
        str(tmp_path),
        **{
            "sizes": "16",
            "trials": "3",
            "ensemble.preset": "heavy_tail",
            "ensemble.law": None,
            "reduce.eta": "1.0",
            "reduce.c": "1.0",
        },
    )
    run(config)
    header, rows = read_csv(tmp_path / "reduce.csv")
    assert header == [
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
    ]
    assert len(rows) == 3
    for row in rows:
        assert float(row[2]) == 1.0
        assert int(row[3]) >= 0
        assert all(float(x) >= 0 for x in row[4:8])
        assert 0.0 <= float(row[8]) <= float(row[9]) <= 1.0


def test_run_reduce_coefficient_range_skips_zero_variance_entries(tmp_path):
    """coeff_min and coeff_max range over entries whose truncated variance is positive.

    Under a constant_zero diagonal the last row's free part is c[63, 63] alone,
    which has zero variance and so is never lowered from 1; the largest
    coefficient on an entry with variance is 0.98126.
    """
    config = make_config(
        "reduce",
        str(tmp_path),
        **{
            "sizes": "64",
            "trials": "1",
            "ensemble.preset": None,
            "ensemble.law": "gaussian_real",
            "ensemble.variance": "1/n",
            "ensemble.diagonal_law": "constant_zero",
            "reduce.eta": "0.25",
            "reduce.c": "0.7",
        },
    )
    run(config)
    _, rows = read_csv(tmp_path / "reduce.csv")
    spec = config.ensemble.build(64, config.seed)
    variances = truncated_profile(spec, 0.25)
    coeffs = rescale_to_row_bound(variances, 0.7)
    live = coeffs[variances > 0]
    assert coeffs[63, 63] == 1.0 and variances[63, 63] == 0.0
    assert (float(rows[0][8]), float(rows[0][9])) == (float(live.min()), float(live.max()))
    assert float(rows[0][9]) == pytest.approx(0.98126, abs=1e-5)


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize(
    "case, sizes",
    [("banded_pareto", "100, 333"), ("gaussian_complex", "64, 200"), ("constant_zero_diagonal", "64, 200")],
)
def test_run_reduce_rows_equal_the_stage_chain(tmp_path, case, sizes, threads):
    """Every reduce.csv row's count and costs are, bit for bit, those of the stage
    chain on the trial's sample: the truncated matrix built whole, then c times
    it, then their difference and its sum of squared moduli."""
    config = make_config("reduce", str(tmp_path), sizes=sizes, trials="3", threads=str(threads), **REDUCE_SPECS[case])
    run(config)
    _, rows = read_csv(tmp_path / "reduce.csv")
    assert len(rows) == 3 * len(config.sizes)
    tables = {}
    for row in rows:
        n, trial, eta = int(row[0]), int(row[1]), float(row[2])
        spec = config.ensemble.build(n, config.seed)
        assert eta == (auto_eta(spec) if config.eta is None else config.eta)
        if n not in tables:
            tables[n] = rescale_to_row_bound(truncated_profile(spec, eta), config.c_bound)
        want = chained_reduction_costs(sample_trial(spec, trial).entries, eta, tables[n])
        assert (int(row[3]), float(row[5]), float(row[7])) == want, row
        assert float(row[4]) == float(row[6]) == 0.0
    assert all(int(row[3]) > 0 and float(row[7]) > 0.0 for row in rows)


# reduce.csv at n = 64, 128 and c = 0.7, three trials, for specs whose diagonal law
# differs from the entry law; the checksums were recorded while the truncated
# variances went through an explicit profile, before they became one gather
REDUCE_PINS = {
    "gaussian_complex": (
        {"ensemble.law": "gaussian_complex", "reduce.eta": "0.25"},
        "a3a9dac462a5004a59b0cdcaeec500adb8a2529f8d33870b8435d5efacc0181b",
    ),
    "constant_zero_diagonal": (
        {"ensemble.law": "gaussian_real", "ensemble.diagonal_law": "constant_zero", "reduce.eta": "0.25"},
        "8e61301c5f2310574797d954e9e37d5065d6335ab19ef4c69392792603a2052c",
    ),
    "rademacher_diagonal_banded": (
        {
            "ensemble.law": "gaussian_real", "ensemble.diagonal_law": "rademacher", "ensemble.profile": "banded",
            "ensemble.band_width": "8", "ensemble.band_inside": "0.05", "ensemble.band_outside": "1e-3",
            "reduce.eta": "auto",
        },
        "413b1d1830ecb67722fa2ddd6f044066f72e1490ac7c758e5e79cd6dad88711d",
    ),
}


@pytest.mark.parametrize("case", REDUCE_PINS)
def test_run_reduce_csv_pins_for_a_separate_diagonal_law(tmp_path, case):
    overrides, digest = REDUCE_PINS[case]
    config = ExperimentConfig.from_mapping(
        {"command": "reduce", "sizes": "64, 128", "trials": "3", "seed": "42", "out": str(tmp_path),
         "reduce.c": "0.7", **overrides}
    )
    run(config)
    assert hashlib.sha256((tmp_path / "reduce.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("n", (256, 512))
@pytest.mark.parametrize("case", ("gaussian_complex", "constant_zero_diagonal"))
def test_reduce_table_peak_memory(case, n):
    """Building a size's table holds the truncated variances, the table and a mask,
    for a separate diagonal law too: within 2.5 n x n float64 arrays, measured 2.13.
    An explicit truncated profile, copied, checked and sorted into its levels, peaked
    at 7.13."""
    config = make_config("reduce", "unused", sizes=str(n), **REDUCE_SPECS[case])
    spec = config.ensemble.build(n, config.seed)
    cli_runner._reduce_table(spec, config.eta, config.c_bound)  # one-time state
    tracemalloc.start()
    try:
        cli_runner._reduce_table(spec, config.eta, config.c_bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8, peak / (n * n * 8)


def test_run_reduce_builds_only_the_samples(tmp_path, monkeypatch):
    """Each trial builds one HermitianMatrix, its sample, through ``_trusted``; the
    costs are read off it, with no truncated or rescaled matrix built."""
    built = []
    trusted = HermitianMatrix._trusted.__func__

    def counting(cls, a):
        built.append(a.shape)
        return trusted(cls, a)

    def checked(self):
        raise AssertionError("reduce built a matrix through the checked constructor")

    monkeypatch.setattr(HermitianMatrix, "_trusted", classmethod(counting))
    monkeypatch.setattr(HermitianMatrix, "__post_init__", checked)
    run(make_config("reduce", str(tmp_path), sizes="16, 32", trials="4", threads="2"))
    assert sorted(built) == [(16, 16)] * 4 + [(32, 32)] * 4


def test_run_every_command_emits_header_and_manifest(tmp_path):
    for command in COMMANDS:
        out = tmp_path / command
        run(make_config(command, str(out)))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checksums"], command
        for name in manifest["checksums"]:
            header, _rows = read_csv(out / name)
            assert header, f"{command}/{name} is missing a header row"


# ---------------------------------------------------------------------------
# command line entry point
# ---------------------------------------------------------------------------


def write_config(tmp_path: Path, **extra: str) -> Path:
    lines = [
        "sizes = 16",
        "trials = 2",
        "seed = 42",
        f"out = {tmp_path / 'results'}",
        "ensemble.preset = wigner_unit",
        "ensemble.law = rademacher",
    ]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_main_success_prints_summary(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "simulate: wrote simulate.csv + manifest.json" in out
    assert "(seed 42)" in out
    assert (tmp_path / "results" / "simulate.csv").exists()


def test_main_unknown_command_exits_2(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["render", "--config", str(path)])
    assert excinfo.value.code == 2


def test_main_missing_config_exits_3(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 3
    assert "cannot read config" in capsys.readouterr().err


def test_main_malformed_config_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    assert main(["simulate", "--config", str(path)]) == 3
    assert "expected 'key = value'" in capsys.readouterr().err


def test_main_failed_validation_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, sizes="0")
    assert main(["simulate", "--config", str(path)]) == 3
    assert "sizes must be positive" in capsys.readouterr().err


def test_main_overflowing_pareto_law_exits_3(tmp_path, capsys):
    path = tmp_path / "pareto.cfg"
    path.write_text(
        "sizes = 64\n"
        f"out = {tmp_path / 'results'}\n"
        "ensemble.law = pareto_symmetric\n"
        "ensemble.alpha = 0.01\n"
        "ensemble.scale = 1\n"
    )
    assert main(["simulate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "overflow float64" in err
    assert not (tmp_path / "results").exists()


def test_main_grid_too_coarse_for_bandwidth_exits_3(tmp_path, capsys):
    path = tmp_path / "coarse.cfg"
    path.write_text(
        "sizes = 2\n"
        f"out = {tmp_path / 'results'}\n"
        "ensemble.law = constant_zero\n"
        "stieltjes.z = 1j\n"
        "stieltjes.grid = -1, 1, 0.5\n"
        "stieltjes.bandwidth = 0.01\n"
    )
    assert main(["stieltjes", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "stieltjes.grid step 0.5 is too coarse for stieltjes.bandwidth 0.01" in err
    assert "trapezoid mass" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("stieltjes.grid", "-inf, 3, 0.01", "stieltjes.grid: expected finite 'min, max, step', got '-inf, 3, 0.01'"),
        ("stieltjes.z", "1+nanj", "stieltjes.z: expected finite complex numbers, got '1+nanj'"),
        ("stieltjes.z", "infj", "stieltjes.z: expected finite complex numbers, got 'infj'"),
        ("stieltjes.bandwidth", "nan", "stieltjes.bandwidth: expected finite number, got 'nan'"),
        ("stieltjes.bandwidth", "inf", "stieltjes.bandwidth: expected finite number, got 'inf'"),
        ("concentration.t", "0.5, nan", "concentration.t: expected finite numbers, got '0.5, nan'"),
        ("concentration.ramp_p", "nan", "concentration.ramp_p: expected finite number, got 'nan'"),
        ("concentration.bernoulli_x", "inf", "concentration.bernoulli_x: expected finite number, got 'inf'"),
        ("reduce.eta", "nan", "reduce.eta: expected finite number or 'auto', got 'nan'"),
        ("reduce.c", "inf", "reduce.c: expected finite number, got 'inf'"),
        ("conditions.c", "nan", "conditions.c: expected finite number, got 'nan'"),
        ("conditions.eps", "nan, 0.5", "conditions.eps: expected finite numbers, got 'nan, 0.5'"),
        ("ensemble.variance", "nan", "ensemble.variance: expected finite number or '1/n', got 'nan'"),
        ("ensemble.variance", "inf", "ensemble.variance: expected finite number or '1/n', got 'inf'"),
        ("ensemble.band_outside", "inf", "ensemble.band_outside: expected finite number or '1/n', got 'inf'"),
    ],
    ids=["grid_min_inf", "z_im_nan", "z_im_inf", "bandwidth_nan", "bandwidth_inf", "t_nan", "ramp_p_nan",
         "bernoulli_x_inf", "eta_nan", "reduce_c_inf", "conditions_c_nan", "eps_nan", "variance_nan",
         "variance_inf", "band_outside_inf"],
)
def test_main_non_finite_stieltjes_input_exits_3(tmp_path, capsys, key, value, message):
    settings = {"stieltjes.z": "1j", "stieltjes.grid": "-3, 3, 0.01", key: value}
    if key == "ensemble.band_outside":
        settings["ensemble.profile"] = "banded"
    path = write_config(tmp_path, **settings)
    if key.startswith("ensemble."):  # the preset reads no profile key
        path.write_text(path.read_text().replace("ensemble.preset = wigner_unit\n", ""))
    assert main(["stieltjes", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"concentration.bernoulli_count": "-3"}, "concentration.bernoulli_count must be nonnegative"),
        (
            {"concentration.bernoulli_count": "10", "concentration.bernoulli_x": "0"},
            "concentration.bernoulli_x must be positive for a positive bernoulli_count",
        ),
    ],
    ids=["negative_count", "count_without_x"],
)
def test_main_bernoulli_check_that_would_write_no_row_exits_3(tmp_path, capsys, settings, message):
    """A Bernoulli count the check cannot run is an error, not a run without its row."""
    path = write_config(tmp_path, trials="100", **{"concentration.t": "0.5"}, **settings)
    assert main(["concentration", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "results").exists()


def test_main_unknown_key_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, **{"stieltjes.z": "1j", "stieltjes.bandwith": "0.05"})
    assert main(["stieltjes", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'stieltjes.bandwith'" in err
    assert not (tmp_path / "results").exists()


def test_main_key_the_preset_ignores_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, **{"moments.k": "2", "ensemble.diagonal_law": "constant_zero"})
    assert main(["moments", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "preset 'wigner_unit' ignores ensemble.diagonal_law" in err
    assert not (tmp_path / "results").exists()


def test_main_size_beyond_memory_exits_3(tmp_path, capsys):
    """A 3,000,000 x 3,000,000 float64 matrix needs 65.5 TiB; nothing is allocated."""
    path = write_config(tmp_path, sizes="3000000")
    assert main(["simulate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sizes: n=3000000 needs")
    assert "physical memory" in err
    assert not (tmp_path / "results").exists()


def test_main_kept_spectra_beyond_memory_exit_3(tmp_path, capsys):
    """sizes = 4096, trials = 10^8: the matrix fits, the 3.3 TB of spectra do not."""
    memory = cli_runner._physical_memory()
    if memory is None or memory > 10**8 * (4096 * 8 + 16):
        pytest.skip("os.sysconf gives no physical memory, or more than the spectra need")
    path = write_config(tmp_path, sizes="4096", trials="100000000")
    assert main(["simulate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sizes: n=4096 needs")
    assert "3278400000000 bytes of 100000000 trials' kept spectra" in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize(
    "exc",
    [MemoryError(), np._core._exceptions._ArrayMemoryError((2048, 2048), np.dtype(np.float64))],
    ids=["MemoryError", "_ArrayMemoryError"],
)
def test_main_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, exc):
    """An allocation that fails past the preflight is an error line, not a traceback."""

    def exhausted(config, out):
        raise exc

    monkeypatch.setitem(cli_runner._COMMAND_FNS, "simulate", exhausted)
    assert main(["simulate", "--config", str(write_config(tmp_path))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


def test_main_eigensolver_failure_exits_3(tmp_path, capsys, monkeypatch):
    """A LAPACK convergence failure inside a trial is an error line, not a traceback:
    from numpy's eigvalsh on a block of 32 trials at n = 16, and from the routine
    a lone matrix at n = 512 goes to, here a fake that reports info = 1."""
    from wignerlab import hermitian_core

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    calls = []

    def routine_no_convergence(*args):
        calls.append(args)
        args[-1][0] = 1  # info

    for size, target, name, fake in (
        ("16", np.linalg, "eigvalsh", no_convergence),
        ("512", hermitian_core, "_lapack_evd", lambda: (routine_no_convergence, routine_no_convergence)),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fake)
            assert main(["simulate", "--config", str(write_config(tmp_path, sizes=size))]) == 3
        err = capsys.readouterr().err
        assert err == "error: eigensolver failed: Eigenvalues did not converge\n"
        assert not (tmp_path / "results" / "manifest.json").exists()
    assert calls


def test_run_reduce_builds_rescale_table_once_per_size(tmp_path, monkeypatch):
    """pipeline takes the table from the command instead of rebuilding it per trial."""
    from wignerlab import reductions

    calls = []
    original = reductions.rescale_to_row_bound

    def counting(variances, C):
        calls.append(len(variances))
        return original(variances, C)

    monkeypatch.setattr(cli_runner, "rescale_to_row_bound", counting)
    monkeypatch.setattr(reductions, "rescale_to_row_bound", counting)
    run(make_config("reduce", str(tmp_path), sizes="16, 32", trials="4", threads="2"))
    assert calls == [16, 32]


def test_main_unwritable_output_exits_4(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory\n")
    path = write_config(tmp_path, out=str(blocker / "nested"))
    assert main(["simulate", "--config", str(path)]) == 4
    assert "cannot write outputs" in capsys.readouterr().err


def test_main_seed_and_out_overrides(tmp_path):
    path = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["simulate", "--config", str(path), "--seed", "7", "--out", str(other)]) == 0
    manifest = json.loads((other / "manifest.json").read_text())
    assert manifest["master_seed"] == 7
    assert manifest["config"]["seed"] == "42"  # echo keeps the file's text verbatim


def test_main_help_gives_threads_precedence(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: WIGNERLAB_THREADS, then config, then 1)" in text


def test_main_threads_env_fallback(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    monkeypatch.setenv("WIGNERLAB_THREADS", "2")
    assert main(["simulate", "--config", str(path)]) == 0
    baseline = (tmp_path / "results" / "simulate.csv").read_bytes()
    monkeypatch.delenv("WIGNERLAB_THREADS")
    assert main(["simulate", "--config", str(path)]) == 0
    assert (tmp_path / "results" / "simulate.csv").read_bytes() == baseline


def test_main_rejects_non_integer_threads_env(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path)
    monkeypatch.setenv("WIGNERLAB_THREADS", "plenty")
    assert main(["simulate", "--config", str(path)]) == 3
    assert "WIGNERLAB_THREADS must be an integer" in capsys.readouterr().err


def test_main_threads_flag_beats_env(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    monkeypatch.setenv("WIGNERLAB_THREADS", "plenty")  # would exit 3 if consulted
    assert main(["simulate", "--config", str(path), "--threads", "2"]) == 0
