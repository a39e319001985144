"""Print a three-route semicircle-law report for the unit gaussian ensemble.

Route 1: trace moments vs Catalan numbers.  Route 2: Levy/Kolmogorov
distance of single-trial ESDs.  Route 3: averaged Stieltjes transform at i
vs the closed form, with the recursion residual.  Each (n, trial) is sampled
and diagonalised once; all three routes read those eigenvalues.
"""
import argparse

import numpy as np

from wignerlab import (
    SemicircleLaw,
    esd,
    eigenvalues_desc,
    kolmogorov_distance,
    levy_distance,
    sample_trial,
    semicircle_moment,
    semicircle_stieltjes,
    stieltjes_atomic,
    wigner_unit_spec,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 256, 1024])
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sc = SemicircleLaw()
    print(f"unit gaussian ensemble, trials={args.trials}, seed={args.seed}\n")
    eigs = {
        n: [eigenvalues_desc(sample_trial(wigner_unit_spec(n, seed=args.seed), t)) for t in range(args.trials)]
        for n in args.sizes
    }

    print("moment route: mean (1/n) tr W^k vs semicircle moments")
    print(f"{'n':>6} " + " ".join(f"k={k:<2}        " for k in (2, 3, 4, 5, 6)))
    for n in args.sizes:
        cells = []
        for k in (2, 3, 4, 5, 6):
            emp = float(np.mean([np.mean(lam**k) for lam in eigs[n]]))
            cells.append(f"{emp:7.4f}/{semicircle_moment(k)}")
        print(f"{n:>6} " + " ".join(cells))

    print("\nmetric route: trial-0 distances to the semicircle")
    print(f"{'n':>6} {'levy':>10} {'kolmogorov':>12}")
    for n in args.sizes:
        dist = esd(eigs[n][0])
        print(f"{n:>6} {levy_distance(dist, sc):>10.5f} {kolmogorov_distance(dist, sc):>12.5f}")

    print("\nstieltjes route at z = i (closed form s(i) = 0.6180i)")
    print(f"{'n':>6} {'Im s_n(i)':>11} {'|s_n - s|':>10} {'residual':>10}")
    z = 1j
    for n in args.sizes:
        s_n = complex(np.mean([stieltjes_atomic(esd(lam), z) for lam in eigs[n]]))
        res = abs(s_n + 1.0 / (z + s_n))  # the semicircle fixed point makes this 0
        print(f"{n:>6} {s_n.imag:>11.5f} {abs(s_n - semicircle_stieltjes(z)):>10.5f} {res:>10.5f}")


if __name__ == "__main__":
    main()
