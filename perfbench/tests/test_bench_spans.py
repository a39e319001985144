"""Span tooling: self time from parent and child spans, and the traced run.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
from spans import Span, Tracer, covered_ns, install, layer_stats, propagate_into_thread_pools, self_times_ns

BENCH = Path(__file__).resolve().parent.parent


def self_time_residual_s(spans: list[Span], command: str) -> float:
    """Sum of self times within one command minus its root span's duration.

    Zero when every span of the command nests in its root span on one
    thread, because self time then partitions the command's wall time.
    """
    mine = [s for s in spans if s.command == command]
    (root,) = [s for s in mine if s.name == "command"]
    return (sum(self_times_ns(mine).values()) - root.duration_ns) / 1e9


def test_covered_merges_overlaps_and_clips():
    assert covered_ns([(10, 40), (30, 60), (70, 80)], 0, 100) == 60
    assert covered_ns([(10, 40), (30, 60)], 20, 50) == 30
    assert covered_ns([], 0, 100) == 0
    assert covered_ns([(0, 5)], 10, 20) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, 0, "root", 0, 100, "c", 1),
        Span(2, 1, "a", 10, 40, "c", 1),
        Span(3, 1, "b", 30, 60, "c", 2),  # overlaps a: ran on another thread
        Span(4, 2, "leaf", 15, 20, "c", 1),
    ]
    assert self_times_ns(spans) == {1: 50, 2: 25, 3: 30, 4: 5}


def test_busy_counts_outermost_same_name_span_once():
    spans = [
        Span(1, 0, "f", 0, 100, "c", 1),
        Span(2, 1, "f", 10, 50, "c", 1),
        Span(3, 0, "f", 200, 210, "c", 1, 7.0),
    ]
    stats = layer_stats(spans)["f"]
    assert stats.calls == 3
    assert stats.busy_s == pytest.approx(110e-9)
    assert stats.self_s == pytest.approx(110e-9)
    assert stats.work == 7.0


def test_residual_is_zero_for_a_nested_tree():
    spans = [
        Span(1, 0, "command", 0, 1000, "c", 1),
        Span(2, 1, "a", 100, 400, "c", 1),
        Span(3, 2, "b", 150, 200, "c", 1),
        Span(4, 1, "a", 500, 900, "c", 1),
        Span(5, 0, "validate", 0, 10, "setup", 1),
    ]
    assert self_time_residual_s(spans, "c") == 0.0


def _run_traced(tmp_path: Path, command: str, config: str, threads: int, traced: bool) -> tuple[Tracer, Path]:
    from wignerlab import cli_runner

    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(config)
    out = tmp_path / ("traced" if traced else "plain")
    argv = [command, "--config", str(cfg), "--out", str(out), "--threads", str(threads), "--seed", "3"]
    tracer = Tracer()
    if not traced:
        assert cli_runner.main(argv) == 0
        return tracer, out
    undo_install = install(tracer, layers.targets())
    undo_pools = propagate_into_thread_pools(tracer)
    try:
        tracer.command = command
        assert tracer.span("command", cli_runner.main)(argv) == 0
    finally:
        undo_pools()
        undo_install()
    return tracer, out


REDUCE_CFG = """command = reduce
sizes = 48
trials = 3
ensemble.law = pareto_symmetric
ensemble.alpha = 2.5
ensemble.scale = 1
ensemble.profile = banded
ensemble.band_width = 4
ensemble.band_inside = 1/n
ensemble.band_outside = 5e-3
"""


def test_self_times_sum_to_command_wall_time(tmp_path):
    tracer, _ = _run_traced(tmp_path, "reduce", REDUCE_CFG, threads=1, traced=True)
    spans = tracer.spans
    wall_s = next(s for s in spans if s.name == "command").duration_ns / 1e9
    per_layer_self = sum(st.self_s for st in layer_stats(spans).values())
    assert abs(per_layer_self - wall_s) <= 1e-3
    assert abs(self_time_residual_s(spans, "reduce")) <= 1e-3
    values = layers.layer_values(spans)
    assert values["hermitian_core.HermitianMatrix.calls_per_trial"] == 5.0
    assert values["reductions.pipeline.calls"] == 3
    assert values["hermitian_core.eigenvalues_desc.calls"] == 0


def test_worker_spans_are_children_of_the_submitting_span(tmp_path):
    config = "command = simulate\nsizes = 32\ntrials = 6\nensemble.preset = wigner_unit\n"
    tracer, _ = _run_traced(tmp_path, "simulate", config, threads=2, traced=True)
    spans = tracer.spans
    ids = {s.id for s in spans}
    trials = [s for s in spans if s.name == "ensembles.sample_trial"]
    assert len(trials) == 6
    assert all(s.parent in ids for s in trials)
    wall_s = next(s for s in spans if s.name == "command").duration_ns / 1e9
    # overlapping worker spans can only add self time, never hide it
    assert self_time_residual_s(spans, "simulate") >= -1e-3
    assert sum(st.self_s for st in layer_stats(spans).values()) <= 2 * wall_s + 1e-3


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    _, plain = _run_traced(tmp_path, "reduce", REDUCE_CFG, threads=1, traced=False)
    _, traced = _run_traced(tmp_path, "reduce", REDUCE_CFG, threads=1, traced=True)
    assert (plain / "reduce.csv").read_bytes() == (traced / "reduce.csv").read_bytes()


def test_install_undo_restores_every_binding():
    from wignerlab import cli_runner, ensembles, hermitian_core

    before = (cli_runner.sample_trial, ensembles.sample_trial, hermitian_core.HermitianMatrix.__init__)
    undo = install(Tracer(), layers.targets())
    assert cli_runner.sample_trial is not before[0]
    undo()
    assert (cli_runner.sample_trial, ensembles.sample_trial, hermitian_core.HermitianMatrix.__init__) == before


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == layers.metric_units()
