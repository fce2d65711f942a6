#!/usr/bin/env python3
"""Seed sweep of one suite's Monte Carlo gates: z-scores over many seeds.

Every check that reports a stderr gets z = (lhs - rhs) / stderr per seed.
For an unbiased estimate with an honest stderr, z is close to standard
normal across seeds: mean near 0 (within about 2 / sqrt(seeds)) and sd
near 1.  A relative gate is flagged under-powered when its tolerance is
under four standard errors (tol * |rhs| < 4 * stderr) at any seed.  Every
bound gate (value <= tol) gets the range of its measured value over the
seeds and the number of seeds at which it failed.

    python3 scripts/seed_sweep.py --suite dynamics --seeds 20 \\
        --param N=32 --param M=128 --param n_samples=1000 --param n_samples_main=2000
"""

import argparse

import numpy as np

from growthlab.cli import coerce
from growthlab.suites import ExperimentConfig, run_suite


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", required=True)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--param", action="append", default=[], metavar="k=v")
    args = ap.parse_args()
    if args.seeds < 2:
        ap.error("--seeds must be at least 2 to estimate the sd of z")
    params = coerce(dict(item.split("=", 1) for item in args.param))

    rows = {}
    bounds = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cfg = ExperimentConfig(suite=args.suite, seed=seed, **params)
        for r in run_suite(cfg):
            if r.stderr > 0.0:
                rows.setdefault(r.name, []).append(r)
            if r.gate == "bound":
                bounds.setdefault(r.name, []).append(r)
    for name, results in rows.items():
        z = np.array([(r.lhs - r.rhs) / r.stderr for r in results])
        print(f"{name}: z = " + " ".join(f"{v:+.2f}" for v in z))
        line = (f"{name}: seeds={z.size} mean z={z.mean():+.3f} "
                f"(se {z.std(ddof=1) / np.sqrt(z.size):.3f}) sd z={z.std(ddof=1):.3f} "
                f"max |z|={np.abs(z).max():.2f} "
                f"failed={sum(not r.passed for r in results)}")
        if results[0].gate == "rel":
            width = min(r.tol * abs(r.rhs) / r.stderr for r in results)
            line += f" min tol/se={width:.2f}"
            if width < 4.0:
                line += " UNDER-POWERED"
        print(line)
    for name, results in bounds.items():
        values = [r.lhs for r in results]
        print(f"{name}: bound <= {results[0].tol:g} seeds={len(values)} "
              f"min={min(values):.6g} max={max(values):.6g} "
              f"failed={sum(not r.passed for r in results)}")


if __name__ == "__main__":
    main()
