"""Checks on the CSVs each CLI command writes.

Every check is one named pass/fail verdict, so a workload's failure share is
failed checks over checks attempted.  The reference values (Catalan and Bell
numbers, bounds, tolerances) are computed here without wignerlab.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import NamedTuple

from workloads import Command

# Checks that fail at the time of writing because of a known, tracked defect.
# They still count as failures; they only do not make a run incorrect.
KNOWN_DEFECTS = {
    "diag_probe: oracle n=3 k=4": "ROADMAP item 4: walk_sum_moment ignores ensemble.diagonal_law",
}


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def semicircle_moment(k: int) -> int:
    return 0 if k % 2 else catalan(k // 2)


def bell(k: int) -> int:
    """Number of set partitions of k items (Bell triangle)."""
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _count(cmd: Command, file: str, rows: list, expected: int) -> Check:
    return Check(f"{cmd.name}: {file} rows", len(rows) == expected, f"{len(rows)} rows, expected {expected}")


def moment_tolerance(n: int, k: int, trials: int) -> float:
    """Allowed |sampled - Catalan| for (1/n) tr W^k.

    The finite-n bias and the standard deviation of one trial's moment are
    both O(k C_{k/2} / n); the sampling part shrinks as 1/sqrt(trials).
    """
    return k * semicircle_moment(k) / n * (1.0 + 3.0 / math.sqrt(trials))


def oracle_tolerance(walk_sum: float, trials: int) -> float:
    """Allowed |empirical - walk_sum| for the exact oracle at n <= 5, k <= 8.

    One trial's (1/n) tr W^k has a standard deviation of at most 1.8 |mean|
    for every oracle config of the benchmark (measured over 20,000 trials),
    so this is at least 4.4 standard errors of the trial mean.
    """
    return 8.0 * abs(walk_sum) / math.sqrt(trials)


def stieltjes_tolerance(n: int, z_im: float) -> float:
    """Allowed fixed-point residual |s + 1/(z + s)| of an n-point ESD at Im z."""
    return 2.0 / (n * z_im)


def density_mass_tolerance(bandwidth: float, step: float) -> float:
    """Allowed |mass - 1| of a density inverted on [-3, 3].

    A Cauchy kernel of width b puts at most b/pi of an atom in [-2, 2]
    beyond distance 1, on each side; the trapezoid rule adds O(step).
    """
    return 2.0 * bandwidth / math.pi + step


def check_simulate(cmd: Command, out: Path) -> list[Check]:
    rows = read_rows(out / "simulate.csv")
    checks = [_count(cmd, "simulate.csv", rows, len(cmd.ints("sizes")) * int(cmd.get("trials")))]
    for r in rows:
        lv, kv = float(r["levy_to_sc"]), float(r["kolmogorov_to_sc"])
        checks.append(
            Check(
                f"{cmd.name}: distances n={r['n']} trial={r['trial']}",
                0.0 < lv <= kv < 1.0,
                f"levy {lv:.6g}, kolmogorov {kv:.6g}",
            )
        )
    return checks


def check_moments(cmd: Command, out: Path) -> list[Check]:
    sizes, ks, trials = cmd.ints("sizes"), cmd.ints("moments.k"), int(cmd.get("trials"))
    rows = read_rows(out / "moments.csv")
    checks = [_count(cmd, "moments.csv", rows, len(sizes) * len(ks))]
    if cmd.get("moments.exact_oracle", "false") != "true":
        for r in rows:
            n, k, emp = int(r["n"]), int(r["k"]), float(r["empirical"])
            tol = moment_tolerance(n, k, trials)
            checks.append(
                Check(
                    f"{cmd.name}: catalan n={n} k={k}",
                    float(r["catalan"]) == semicircle_moment(k) and abs(emp - semicircle_moment(k)) <= tol,
                    f"empirical {emp:.6g}, catalan {semicircle_moment(k)}, tol {tol:.3g}",
                )
            )
        return checks
    # small n: the exact finite-n oracle is the reference, not the n -> inf limit
    orows = read_rows(out / "moments_oracle.csv")
    checks.append(_count(cmd, "moments_oracle.csv", orows, len(sizes) * len(ks)))
    for r in orows:
        exact, emp = float(r["walk_sum"]), float(r["empirical"])
        tol = oracle_tolerance(exact, trials)
        checks.append(
            Check(
                f"{cmd.name}: oracle n={r['n']} k={r['k']}",
                abs(emp - exact) <= tol,
                f"walk_sum {exact:.6g}, empirical {emp:.6g}, tol {tol:.3g}",
            )
        )
    return checks


def check_stieltjes(cmd: Command, out: Path) -> list[Check]:
    sizes, zs = cmd.ints("sizes"), cmd.get("stieltjes.z").split(",")
    rows = read_rows(out / "stieltjes.csv")
    checks = [_count(cmd, "stieltjes.csv", rows, len(sizes) * len(zs))]
    for r in rows:
        n, z_im, res = int(r["n"]), float(r["z_im"]), float(r["residual"])
        tol = stieltjes_tolerance(n, z_im)
        checks.append(
            Check(
                f"{cmd.name}: residual n={n} z={r['z_re']}+{r['z_im']}j",
                0.0 <= res <= tol,
                f"residual {res:.3g}, tol {tol:.3g}",
            )
        )
    lo, hi, step = cmd.floats("stieltjes.grid")
    tol = density_mass_tolerance(float(cmd.get("stieltjes.bandwidth")), step)
    for n in sizes:
        name = f"density_n{n}.csv"
        path = out / name
        if not path.is_file():
            checks.append(Check(f"{cmd.name}: {name} mass", False, "missing"))
            continue
        pts = [(float(r["a"]), float(r["density"])) for r in read_rows(path)]
        mass = sum((b[0] - a[0]) * (a[1] + b[1]) / 2.0 for a, b in zip(pts, pts[1:]))
        grid_ok = len(pts) == round((hi - lo) / step) + 1
        checks.append(
            Check(
                f"{cmd.name}: {name} mass",
                grid_ok and abs(mass - 1.0) <= tol and min(d for _, d in pts) >= 0.0,
                f"{len(pts)} points, mass {mass:.6g}, tol {tol:.3g}",
            )
        )
    return checks


def check_concentration(cmd: Command, out: Path) -> list[Check]:
    rows = read_rows(out / "concentration.csv")
    expected = len(cmd.ints("sizes")) * len(cmd.floats("concentration.t"))
    if int(cmd.get("concentration.bernoulli_count", "0")) > 0:
        expected += 1  # the Bernstein row
    checks = [_count(cmd, "concentration.csv", rows, expected)]
    for r in rows:
        p, bound, trials = float(r["empirical"]), float(r["bound"]), int(r["trials"])
        se = math.sqrt(p * (1.0 - p) / trials)
        checks.append(
            Check(
                f"{cmd.name}: dominated {r['statistic']} t={r['t']}",
                0.0 <= p <= 1.0 and p <= bound + 3.0 * se,
                f"empirical {p:.6g}, bound {bound:.6g}",
            )
        )
    return checks


def check_reduce(cmd: Command, out: Path) -> list[Check]:
    rows = read_rows(out / "reduce.csv")
    checks = [_count(cmd, "reduce.csv", rows, len(cmd.ints("sizes")) * int(cmd.get("trials")))]
    for r in rows:
        deltas = [float(r[c]) for c in ("delta_truncate", "delta_centralize", "delta_rescale")]
        cmin, cmax = float(r["coeff_min"]), float(r["coeff_max"])
        checks.append(
            Check(
                f"{cmd.name}: trace n={r['n']} trial={r['trial']}",
                all(d >= 0.0 for d in deltas) and 0.0 <= cmin <= cmax <= 1.0,
                f"deltas {deltas}, coeffs [{cmin:.6g}, {cmax:.6g}]",
            )
        )
    return checks


def check_walks(cmd: Command, out: Path) -> list[Check]:
    rows = read_rows(out / "walks.csv")
    checks = []
    for k in cmd.ints("walks.k"):
        mine = [r for r in rows if int(r["k"]) == k]
        trees = sum(r["classification"] == "double_tree" for r in mine)
        want_trees = 0 if k % 2 else catalan(k // 2)
        checks.append(Check(f"{cmd.name}: bell k={k}", len(mine) == bell(k), f"{len(mine)} walks, Bell {bell(k)}"))
        checks.append(
            Check(f"{cmd.name}: double trees k={k}", trees == want_trees, f"{trees} double trees, expected {want_trees}")
        )
    return checks


CHECKERS = {
    "simulate": check_simulate,
    "moments": check_moments,
    "stieltjes": check_stieltjes,
    "concentration": check_concentration,
    "reduce": check_reduce,
    "walks": check_walks,
}


def check_command(cmd: Command, out: Path) -> list[Check]:
    """All checks for one command's output directory; a missing file fails."""
    try:
        return CHECKERS[cmd.command](cmd, out)
    except (OSError, KeyError, ValueError) as exc:
        return [Check(f"{cmd.name}: outputs readable", False, f"{type(exc).__name__}: {exc}")]
