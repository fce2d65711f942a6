#!/usr/bin/env python3
"""Stationarity residual of the growth generator across coupling tuples.

Prints the generator expectation (lhs), the telescoped residual (rhs) and
the paired gate for the solved couplings and a grid of single-coupling
perturbations, all under common random numbers.
"""

import argparse

from growthlab.fields import CouplingParams
from growthlab.generator import invariance_check
from growthlab.rng import make_rng
from growthlab.suites import _fixture_functional


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n", type=int, default=20000)
    ap.add_argument("--N", type=int, default=64)
    ap.add_argument("--M", type=int, default=256)
    args = ap.parse_args()

    F = _fixture_functional(args.N)
    pg = CouplingParams.pure_gravity()
    rows = [("solved", pg)]
    for eps in (0.1, 0.2):
        rows.append((f"alpha+{eps}", pg.replace(alpha=pg.alpha + eps)))
        rows.append((f"chi+{eps}", pg.replace(chi=pg.chi + eps)))
        rows.append((f"beta={eps}", pg.replace(beta=eps)))
        rows.append((f"c*{1+eps}", pg.replace(c=pg.c * (1 + eps))))

    print(f"{'tuple':>12} {'lhs':>12} {'rhs':>12} {'z':>6}  gate")
    for name, params in rows:
        r = invariance_check(F, params, args.n, make_rng(args.seed),
                             N=args.N, M=args.M)
        print(f"{name:>12} {r.lhs:12.5f} {r.rhs:12.5f} {r.z:6.2f}  "
              f"{'PASS' if r.consistent() else 'FAIL'}")


if __name__ == "__main__":
    main()
