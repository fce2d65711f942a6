#!/usr/bin/env python3
"""Total-mass law of the symmetric dynamics: drift slope, Bessel scaling,
bracket ratio, and a step-halving convergence row, written as CSV."""

import argparse
from pathlib import Path

import numpy as np

from growthlab.dynamics import bracket_stats, simulate_mass_ensemble, total_mass_stats
from growthlab.rng import make_rng


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--paths", type=int, default=10000)
    ap.add_argument("--T", type=float, default=0.5)
    ap.add_argument("--out", default="results/dynamics_experiment.csv")
    args = ap.parse_args()

    xi = 1.0 / np.sqrt(6.0)
    lines = ["dt,M,mass0,slope,slope_target,slope_rel_err,scaled_drift,bracket_ratio"]
    for dt, M, mass0, n in [(1e-3, 1, 0.25, args.paths),
                            (5e-4, 1, 0.25, args.paths),
                            (1e-3, 16, 40 * np.pi, min(args.paths, 3000)),
                            (5e-4, 16, 40 * np.pi, min(args.paths, 3000))]:
        paths = simulate_mass_ensemble(mass0, xi, dt, args.T, n,
                                       make_rng(args.seed), M=M, N=min(4, max(M // 4, 0)))
        times = np.arange(paths.shape[1]) * dt
        st = total_mass_stats(paths, times, xi)
        qv, pred, _ = bracket_stats(paths, xi, dt)
        lines.append(f"{dt:.17g},{M},{mass0:.17g},{st.slope:.17g},"
                     f"{st.slope_target:.17g},{st.slope_rel_err:.17g},"
                     f"{st.scaled_drift:.17g},{qv / pred:.17g}")
        print(lines[-1])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
