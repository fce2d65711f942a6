#!/usr/bin/env python3
"""Check the benchmark's tracing and print each workload's layer shares.

    python3 perfbench/check_trace.py [--workload dirichlet] [--seed 1]

For each workload this runs `run.py --trace 0` (one round) and
`run.py --trace 1` (untraced, traced, untraced), then checks that

- the traced round's report gives bit-identical lhs, rhs and stderr to
  the untraced round's, check by check;
- every metric that BENCHMARK.json names is printed with its unit, and
  no other;
- the traced round's span self times add up to its run_s (so the layer
  self times account for run_s, and traced minus untraced run_s is the
  tracing overhead, which is printed).

It then runs one more traced round that also wraps every public function
of loewner, kernels and spectral, and prints the self-time share of each
module.  Exits 1 if any check fails.  Not a Tier-1 test: it takes about
five suite runs per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from run import HERE, ROOT, spawn
from tracer import Tracer
from worker import WORKLOADS


def run_bench(workload, seed, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_tracer(path):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    tracer = Tracer()
    tracer.spans = data["spans"]
    return tracer


def check_workload(workload, seed, spec) -> list[str]:
    errors = []
    results = {t: run_bench(workload, seed, t) for t in (0, 1)}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in results[trace]["metrics"].items()}
        if got != want:
            errors.append(f"--trace {trace} prints {got}; BENCHMARK.json names {want}")
        if not results[trace]["correct"] or results[trace]["failed"]:
            errors.append(f"--trace {trace}: correct={results[trace]['correct']}, "
                          f"failed={results[trace]['failed']}")

    run_dir = HERE / "out" / f"{workload}-seed{seed}-trace1"
    plain, traced = (json.loads((run_dir / r / workload / "report.json").read_text())
                     for r in ("round0", "round1"))
    for a, b in zip(plain["checks"], traced["checks"], strict=True):
        for k in ("lhs", "rhs", "stderr"):
            if a[k] != b[k]:
                errors.append(f"{a['name']}.{k}: untraced {a[k]!r}, traced {b[k]!r}")

    tracer = load_tracer(run_dir / "round1" / "trace.json")
    layers = results[1]["metrics"]
    run_s = tracer.inclusive("suite")
    accounted = sum(tracer.self_times())
    if abs(accounted - run_s) > 1e-9 * run_s:
        errors.append(f"self times sum to {accounted} s, traced run_s is {run_s} s")
    print(f"{workload}: traced run_s {run_s:.3f} s, self times sum {accounted:.3f} s, "
          f"trace.overhead_s {layers['trace.overhead_s']['value']:+.3f} s")
    return errors


def module_shares(workload, seed):
    """Self-time share of each layer span; loewner, kernels, spectral per module."""
    out = HERE / "out" / f"{workload}-seed{seed}-all-modules"
    _, res = spawn(workload, seed, "--out", str(out), "--trace", "--all-modules")
    shares = defaultdict(float)
    for name, s in res["self_by_name"].items():
        module = name.split(".")[0]
        shares[module if module in ("loewner", "kernels", "spectral") else name] += s
    total = sum(shares.values())
    return {k: v / total for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}, total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for wl in args.workload or sorted(WORKLOADS):
        errors += [f"{wl}: {e}" for e in check_workload(wl, args.seed, spec)]
        shares, total = module_shares(wl, args.seed)
        print(f"{wl}: self-time share of a {total:.2f} s traced run: "
              + ", ".join(f"{k} {100 * v:.2f}%" for k, v in shares.items()))
    for e in errors:
        print(f"FAIL {e}")
    print("all checks passed" if not errors else f"{len(errors)} checks failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
