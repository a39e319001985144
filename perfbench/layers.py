"""Which wignerlab functions the traced run wraps, and the per-layer metrics.

Metric names are ``<module>.<public function>.<stat>``.  A layer that does not
run in a workload reports 0 for each of its stats, and
``trial_path.owned_over_eig`` is 0 where eigvalsh does not run.
"""
from __future__ import annotations

from spans import LayerStats, Span, layer_stats


def _eig_gflop(args, kwargs, result) -> float:
    """Flops of values-only eigvalsh, computed from n, not counted.

    Householder tridiagonalisation dominates: 4n^3/3 real flops for a real
    symmetric matrix, 16n^3/3 for a complex Hermitian one.
    """
    a = args[0] if args else kwargs["a"]
    return (16.0 if a.is_complex else 4.0) * a.n**3 / 3.0 / 1e9


def _walk_count(args, kwargs, result) -> float:
    return float(len(result))


def _index_tuples(args, kwargs, result) -> float:
    n, k = args[2:4] if len(args) >= 4 else (kwargs["n"], kwargs["k"])
    return float(n) ** k


# (module, public name, stats to report, how to compute the span's work count)
LAYERS = (
    ("cli_runner", "run", ("self_s",), None),
    ("cli_runner", "validate", ("busy_s",), None),
    ("ensembles", "sample_trial", ("calls", "busy_s", "p50_ms"), None),
    ("streams", "derive_rng", ("calls", "busy_s"), None),
    ("hermitian_core", "HermitianMatrix", ("calls", "busy_s", "calls_per_trial"), None),
    ("hermitian_core", "eigenvalues_desc", ("calls", "busy_s", "p50_ms", "gflop_computed", "gflops"),
     _eig_gflop),
    ("spectral_measures", "levy_distance", ("calls", "busy_s", "p50_ms"), None),
    ("spectral_measures", "kolmogorov_distance", ("calls", "busy_s"), None),
    ("spectral_measures", "esd", ("calls", "busy_s"), None),
    ("spectral_measures", "expected_esd", ("calls", "busy_s"), None),
    ("stieltjes", "stieltjes_atomic", ("calls", "busy_s"), None),
    ("stieltjes", "invert_on_grid", ("calls", "busy_s"), None),
    ("concentration", "empirical_tail", ("busy_s", "self_s"), None),
    ("concentration", "bernstein_tail_check", ("busy_s", "self_s"), None),
    ("reductions", "pipeline", ("calls", "busy_s"), None),
    ("reductions", "truncate", ("calls", "busy_s"), None),
    ("reductions", "centralize", ("calls", "busy_s"), None),
    ("reductions", "rescale_to_row_bound", ("calls", "busy_s"), None),
    ("reductions", "truncated_profile", ("calls", "busy_s"), None),
    ("reductions", "auto_eta", ("calls", "busy_s"), None),
    ("walk_combinatorics", "enumerate_canonical_walks", ("calls", "busy_s", "walks"), _walk_count),
    ("walk_combinatorics", "classify", ("calls", "busy_s"), None),
    ("walk_combinatorics", "walk_sum_moment", ("calls", "busy_s", "index_tuples"), _index_tuples),
)

# self time of these layers is the trial path wignerlab owns, next to eigvalsh
OWNED_TRIAL_PATH = ("ensembles.", "streams.", "hermitian_core.HermitianMatrix", "spectral_measures.",
                    "stieltjes.", "concentration.", "reductions.")

UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "calls_per_trial": "ratio",
    "gflop_computed": "Gflop", "gflops": "Gflop/s", "walks": "count", "index_tuples": "count",
}
BETTER = {"gflops": "higher"}

# derived metrics not tied to one layer: name -> (unit, better)
DERIVED = {
    "trial_path.owned_over_eig": ("ratio", "lower"),
    "tracing_overhead_s": ("s", "lower"),
    "check_fail_ratio": ("ratio", "lower"),
}


def targets():
    """``(module, attr, work function)`` for ``spans.install``."""
    return [(mod, attr, work) for mod, attr, _, work in LAYERS]


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for mod, attr, stats, _ in LAYERS:
        for stat in stats:
            out[f"{mod}.{attr}.{stat}"] = (UNITS[stat], BETTER.get(stat, "lower"))
    out.update(DERIVED)
    return out


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Per-layer metric values of one traced repeat.

    ``tracing_overhead_s`` and ``check_fail_ratio`` need the whole run, so
    ``run.py`` adds them.
    """
    stats = layer_stats(spans)
    empty = LayerStats(0, 0.0, 0.0, 0.0, 0.0)
    trials = stats.get("ensembles.sample_trial", empty).calls
    out = {}
    for mod, attr, wanted, _ in LAYERS:
        s = stats.get(f"{mod}.{attr}", empty)
        values = {
            "calls": s.calls,
            "busy_s": s.busy_s,
            "self_s": s.self_s,
            "p50_ms": s.p50_ms,
            "calls_per_trial": s.calls / trials if trials else 0.0,
            "gflop_computed": s.work,
            "gflops": s.work / s.busy_s if s.busy_s else 0.0,
            "walks": s.work,
            "index_tuples": s.work,
        }
        for stat in wanted:
            out[f"{mod}.{attr}.{stat}"] = values[stat]
    eig = stats.get("hermitian_core.eigenvalues_desc", empty).busy_s
    owned = sum(s.self_s for name, s in stats.items() if name.startswith(OWNED_TRIAL_PATH))
    out["trial_path.owned_over_eig"] = owned / eig if eig else 0.0
    return out
