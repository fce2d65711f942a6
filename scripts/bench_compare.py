#!/usr/bin/env python3
"""Paired end-to-end benchmark of two checkouts, a parent and a change.

For each workload and seed, runs BENCHMARK.json's command
(`python3 perfbench/run.py`) with `--trace 0` in the parent checkout and
in the change checkout, PAIRS times each, alternating which side goes
first, and writes BENCH_<n>.json: per end-to-end metric of
BENCHMARK.json, every run's value, each side's median and quartiles, how
many pairs the change wins (ties count for neither) and whether the
change's median is worse than the parent's by more than the metric's
bound; metrics are taken over the pairs whose two runs both finished.
Each entry also records both sides' correctness, failed-operation counts
and failed runs (a run that exits non-zero, such as a round timeout),
and whether the two sides wrote byte-identical report.json files.  When
they did not, `report_deltas` records, per check and over all pairs, the
largest |change - parent| of lhs, rhs and stderr, of z = (lhs - rhs) /
stderr (null for a check without a stderr), and whether its `passed`
flag flipped, so that a roundoff-level move shows as one.  Beside the
summed counts stand each side's failed share (failed / attempted) and
every run's attempted count: a run fits as many rounds as its time
allows, so a side that fits a round fewer attempts fewer operations at
the same share.

    python3 scripts/bench_compare.py --parent ../parent --change . --number 7 \\
        --workload invariance --workload dirichlet --workload dynamics

Both checkouts are local directories (a `git worktree add` or an
unpacked `git archive` of each commit); each run builds from the source
in its own checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

PAIRS = 10    # alternating pairs per workload and seed: the fewest that can show a gain


def run_side(command, checkout: Path, workload: str, seed: int, seconds: float):
    """One perfbench run: (its last stdout line as a dict, report.json bytes).

    A run that exits non-zero returns (None, None).
    """
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None, None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = (checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0"
              / "round0" / workload / "report.json").read_bytes()
    return result, report


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _z(check):
    return (check["lhs"] - check["rhs"]) / check["stderr"] if check["stderr"] > 0 else None


def report_deltas(report_pairs) -> dict:
    """Per check, the largest moves between parent and change report.json.

    report_pairs holds (parent bytes, change bytes) for each pair whose
    two runs finished.  Checks are matched by name; one present on a
    single side is recorded as {"missing": the side without it}.
    """
    out = {}
    for pair in report_pairs:
        par, chg = ({c["name"]: c for c in json.loads(r)["checks"]} for r in pair)
        for name in par.keys() ^ chg.keys():
            out[name] = {"missing": "change" if name in par else "parent"}
        for name in par.keys() & chg.keys():
            a, b = par[name], chg[name]
            za, zb = _z(a), _z(b)
            d = out.setdefault(name, {"lhs": 0.0, "rhs": 0.0, "stderr": 0.0, "z": None,
                                      "passed_flipped": False})
            for key in ("lhs", "rhs", "stderr"):
                d[key] = max(d[key], abs(b[key] - a[key]))
            if za is not None and zb is not None:
                d["z"] = max(d["z"] or 0.0, abs(zb - za))
            d["passed_flipped"] = d["passed_flipped"] or a["passed"] != b["passed"]
    return dict(sorted(out.items()))


def summarize(spec, parent_runs, change_runs, same_report: bool) -> dict:
    """One workload's entry of BENCH_<n>.json from paired run results.

    spec is BENCHMARK.json's `end_to_end` list; parent_runs[i] and
    change_runs[i] are the perfbench results (the dicts run.py prints
    last) of pair i, or None for a run that failed.  Metrics use the
    pairs whose two runs both finished, and are left out below two.
    """
    if len(parent_runs) != len(change_runs):
        raise ValueError("parent and change runs must come in pairs")
    done = [(a, b) for a, b in zip(parent_runs, change_runs) if a is not None and b is not None]
    metrics = {}
    for m in spec if len(done) >= 2 else []:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        par = [a["metrics"][name]["value"] for a, _ in done]
        chg = [b["metrics"][name]["value"] for _, b in done]
        p, c = quartiles(par), quartiles(chg)
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": dict(p, runs=par), "change": dict(c, runs=chg),
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(par, chg)),
            "median_ratio": c["median"] / p["median"],
            "worse_than_bound": sign * (c["median"] - p["median"]) < -m["bound"] * p["median"],
        }
    sides = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        ran = [r for r in runs if r is not None]
        attempted = sum(r["attempted"] for r in ran)
        failed = sum(r["failed"] for r in ran)
        sides[side] = {"correct": len(ran) == len(runs) and all(r["correct"] for r in ran),
                       "failed_runs": len(runs) - len(ran),
                       "attempted": attempted, "failed": failed,
                       "failed_share": failed / attempted if attempted else None,
                       "attempted_per_run": [r["attempted"] for r in ran]}
    return {"pairs": len(done), "report_bytes_match": same_report,
            "runs": sides, "metrics": metrics}


def machine() -> dict:
    """The machine a comparison ran on: CPUs, usable CPUs and versions.

    `usable_cpus` is the CPUs this process may run on (its affinity mask);
    `cpus` is every CPU of the machine.  Each suite runs on one thread.
    """
    return {"cpus": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append", help="default: 1")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    entries = []
    for workload in args.workload:
        for seed in args.seed or [1]:
            runs = {"parent": [], "change": []}
            same, reported = True, []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                reports = {}
                for side in order:
                    result, reports[side] = run_side(bench["command"], checkouts[side],
                                                     workload, seed, bench["run_seconds"])
                    runs[side].append(result)
                    took = "failed" if result is None else \
                        f"run_s {result['metrics']['run_s']['value']:.3f}"
                    print(f"{workload} seed {seed} pair {i} {side}: {took}", flush=True)
                same = same and reports["parent"] is not None \
                    and reports["parent"] == reports["change"]
                if None not in reports.values():
                    reported.append((reports["parent"], reports["change"]))
            entries.append(dict(workload=workload, seed=seed, **summarize(
                bench["end_to_end"], runs["parent"], runs["change"], same),
                report_deltas=None if same else report_deltas(reported)))

    out = args.out_dir / f"BENCH_{args.number}.json"
    out.write_text(json.dumps({"command": bench["command"], "trace": 0,
                               "run_seconds": bench["run_seconds"], "machine": machine(),
                               "workloads": entries}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
