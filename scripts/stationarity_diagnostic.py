#!/usr/bin/env python3
"""Drift of cylindrical observables under the simulated symmetric dynamics,
started from field-measure samples: a diagnostic, never gated.

Whether the field measure is invariant for the simulated dynamics at finite
truncation is not claimed.  Each path starts from the chaos measure of a
fresh degree-N trace sample and follows the symmetric dynamics
(`growthlab.dynamics.evolve`); the mean change of int p dmu over the run,
with its standard error, is printed for each symbol p.

    python3 scripts/stationarity_diagnostic.py --paths 300 --N 8 --M 32 --T 0.02
"""

import argparse

import numpy as np

from growthlab.dynamics import evolve
from growthlab.fields import batch_values, sample_trace_batch
from growthlab.gmc import chaos_density_batch
from growthlab.rng import make_rng
from growthlab.spectral import BoundaryField

TWO_PI = 2.0 * np.pi


def stationarity_diagnostic(xi: float, dt: float, T: float, n_paths: int,
                            N: int, M: int, rng: np.random.Generator,
                            symbols=None) -> dict:
    """Mean drift of int p dmu and its stderr, per symbol p (default e_1, e_4)."""
    symbols = symbols or [BoundaryField.basis(1, N), BoundaryField.basis(4, N)]
    coeffs = sample_trace_batch(N, n_paths, rng)
    dens = chaos_density_batch(batch_values(coeffs, M), 1, xi, N)
    dtheta = TWO_PI / M
    x = dens * dtheta
    grids = [p.values(M) for p in symbols]
    start = [(x / dtheta) @ g * dtheta for g in grids]
    for x, _ in evolve(x, xi, dt, int(round(T / dt)), N, rng):
        pass
    end = [(x / dtheta) @ g * dtheta for g in grids]
    report = {}
    for k in range(len(symbols)):
        d = end[k] - start[k]
        report[f"observable_{k}_drift"] = float(d.mean())
        report[f"observable_{k}_stderr"] = float(d.std(ddof=1) / np.sqrt(n_paths))
    return report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--paths", type=int, default=300)
    ap.add_argument("--N", type=int, default=8)
    ap.add_argument("--M", type=int, default=32)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--T", type=float, default=0.02)
    args = ap.parse_args()
    rep = stationarity_diagnostic(1.0 / np.sqrt(6.0), args.dt, args.T, args.paths,
                                  args.N, args.M, make_rng(args.seed))
    for key, val in rep.items():
        print(f"{key}: {val:.6g}")


if __name__ == "__main__":
    main()
