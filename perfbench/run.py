#!/usr/bin/env python3
"""Benchmark of the invariance, Dirichlet-form and mass-dynamics suites.

    python3 perfbench/run.py --workload dirichlet --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Each round is one fresh process that
imports growthlab from src/ and runs one suite as `growthlab run` does
(see worker.py).  The run first starts SETUP_PROBES processes that only
import, then starts rounds one after another until --seconds have passed
(at least one round).  With --trace 1 the rounds alternate untraced,
traced, untraced, ..., so each traced round sits between two untraced
ones and the tracing overhead is measured free of the machine's drift
during the run.  Every report is checked by checks.py, and every round's
report.json must be byte-identical to the first one: same seed, same
bits, traced or not.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` (operations: recomputed gates and independent checks, summed
over rounds) and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (medians over the run's rounds); with --trace 1 the
per-layer ones of the traced rounds, plus the tracing overhead.
Raw reports and span files stay under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_report
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
ROUND_TIMEOUT_S = 170
# BLAS and OpenMP pools pinned to one thread: the suites are single-process
# numpy code, and one thread keeps timings steady on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


class RoundError(RuntimeError):
    pass


def spawn(workload, seed, *flags):
    """Start one worker with flags; return (set-up seconds, result line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RoundError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s")
    if first.strip() != "ready" or proc.returncode != 0:
        raise RoundError(f"{workload} worker exited {proc.returncode} "
                         f"before finishing (first line {first.strip()!r})")
    if "--setup-only" in flags:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "growthlab" / "__init__.py").is_file():
        print(f"perfbench: no growthlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = args.workload
    config = dict(WORKLOADS[wl], seed=args.seed)
    run_dir = HERE / "out" / f"{wl}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setups, rounds = [], []

    def run_round(traced):
        out = run_dir / f"round{len(rounds)}"
        setup, res = spawn(wl, args.seed, "--out", str(out), *(["--trace"] if traced else []))
        setups.append(setup)
        ops, problems, misses = check_report(wl, out, config)
        res.update(traced=traced, ops=ops, problems=problems,
                   report=(out / wl / "report.json").read_bytes())
        rounds.append(res)
        print(f"round {len(rounds) - 1}{' traced' if traced else ''}: "
              f"setup {setup:.3f} s, run {res['run_s']:.3f} s, "
              f"{res['samples']} samples, {sum(not ok for _, ok in ops)} of "
              f"{len(ops)} operations failed, {misses} gates fail the "
              f"program's own rule", flush=True)

    try:
        setups += [spawn(wl, args.seed, "--setup-only")[0] for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        if args.trace:
            # untraced rounds on both sides of each traced one, so that drift
            # of the machine's speed during the run cancels in the overhead
            run_round(False)
        while True:
            for traced in ((True, False) if args.trace else (False,)):
                run_round(traced)
            if time.perf_counter() - t0 >= args.seconds:
                break
    except RoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    if any(r["report"] != rounds[0]["report"] for r in rounds):
        problems.append("report.json differs between rounds of one seed")
    if rounds[0]["samples"] <= 0 or any(r["samples"] != rounds[0]["samples"] for r in rounds):
        problems.append("sample counts are zero or differ between rounds")
    traced = [r["layers"] for r in rounds if r["traced"]]
    if any(t[k] != traced[0][k] for t in traced for k in t if unit(k) == "count"):
        problems.append("per-layer counts differ between traced rounds")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    untraced = [r for r in rounds if not r["traced"]]
    run_s = statistics.median(r["run_s"] for r in untraced)
    if args.trace:
        metrics = {k: metric(statistics.median(t[k] for t in traced), unit(k))
                   for k in traced[0]}
        metrics["trace.overhead_s"] = metric(
            metrics["trace.run_s"]["value"] - run_s, "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "run_s": metric(run_s, "s"),
            "samples_per_s": metric(statistics.median(
                r["samples"] / r["run_s"] for r in untraced), "1/s"),
            "peak_rss_mb": metric(statistics.median(
                r["peak_rss_mb"] for r in untraced), "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(not ok for r in rounds for _, ok in r["ops"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
