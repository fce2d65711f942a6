"""Correctness of one suite report, recomputed without trusting `passed`.

`check_report` reads DIR/<suite>/report.json (and the CSV series it
needs) and returns (operations, problems):

- operations: (name, ok) pairs.  Every gate of the report is one
  operation, and so is every independent check of its workload below.
- problems: defects of the report itself: a `passed` flag that disagrees
  with the verdict recomputed from lhs, rhs, stderr and tol, a missing
  check, a config that is not the one requested, a non-finite number.
  Any problem makes the run incorrect.

Gates at k standard errors (the program's `3se` gates and the two bounds
built from 3-se tests) miss on about 0.27% of seeds each by design.  The
benchmark runs many seeds and must fail the same share of operations on
every one, so such an operation fails only beyond FAMILY_K = 5 standard
errors (a false alarm about once in 1.7 million); the program's own
3-se verdict is still recomputed and must match its `passed` flag, and
the number of 3-se misses is returned for display.  Fixed-tolerance
gates keep the program's tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

FAMILY_K = 5.0
GAMMA = math.sqrt(8.0 / 3.0)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _series(report_dir: Path, name: str) -> dict[str, list[float]]:
    with open(report_dir / f"{name}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {col: [float(r[i]) for r in rows[1:]] for i, col in enumerate(rows[0])}


def _gate(c, report_dir):
    """(program verdict, benchmark verdict) of one gate, recomputed."""
    lhs, rhs, se, tol, gate = c["lhs"], c["rhs"], c["stderr"], c["tol"], c["gate"]
    diff = abs(lhs - rhs)
    if gate == "3se":
        return diff <= tol * se, se > 0.0 and diff <= FAMILY_K * se
    if gate == "abs":
        return diff <= tol, diff <= tol
    if gate == "rel":
        return _rel(lhs, rhs) <= tol, _rel(lhs, rhs) <= tol
    if gate != "bound":
        raise ValueError(f"unknown gate {gate!r}")
    verdict = lhs <= tol
    if c["name"] == "ou-stationary-variance":      # lhs is the worst |z| of five
        return verdict, lhs <= FAMILY_K
    if c["name"] == "mass-martingale":             # lhs flags a 3-se miss
        s = _series(report_dir, c["name"])
        pairs = list(zip(s["mean"], s["se"]))
        if lhs != float(not all(abs(m) <= 3.0 * e for m, e in pairs)):
            raise ValueError("mass-martingale flag disagrees with its series")
        return verdict, all(abs(m) <= FAMILY_K * e for m, e in pairs)
    return verdict, verdict


def _invariance(c):
    g2 = c["pure-gravity-gamma-squared"]["lhs"]
    xi = GAMMA / 4.0                      # the surviving branch 2 xi = gamma / 2
    q = c["pure-gravity-Q"]
    res = c["invariance-pure-gravity"]
    return [
        ("couplings-gamma-squared", abs(g2 - 8.0 / 3.0) <= 1e-14),
        ("couplings-dimension", abs(c["pure-gravity-dimension"]["lhs"] - GAMMA / xi) <= 1e-14),
        ("couplings-Q", _rel(q["lhs"], 1.25 * GAMMA) <= 1e-14
         and _rel(q["rhs"], 2.0 * xi + 1.0 / (2.0 * xi)) <= 1e-14),
        ("pure-gravity-residual", res["rhs"] == 0.0 and res["stderr"] > 0.0
         and abs(res["lhs"]) <= FAMILY_K * res["stderr"]),
    ]


def _dirichlet(c):
    f, s = c["dirichlet-form-split"], c["dirichlet-form-swapped"]
    ex = c["dirichlet-exchange"]
    # forward rhs = sym + anti and swapped rhs = sym - anti, so the exchange
    # residual is the sum of both paired differences
    exch = f["lhs"] + s["lhs"] - f["rhs"] - s["rhs"]
    scale = max(abs(f["lhs"]), abs(s["lhs"]), abs(f["rhs"]), abs(s["rhs"]))
    return [
        ("self-antisymmetry", abs(c["dirichlet-self-antisymmetry"]["lhs"]) < 1e-10),
        ("forward-closed-form", abs(f["lhs"] - f["rhs"]) <= FAMILY_K * f["stderr"]),
        ("swapped-closed-form", abs(s["lhs"] - s["rhs"]) <= FAMILY_K * s["stderr"]),
        ("exchange-recomputed", abs(ex["lhs"] - exch) <= 1e-9 * scale
         and _rel(ex["stderr"], max(math.hypot(f["stderr"], s["stderr"]), 1e-12)) <= 1e-12),
    ]


def _dynamics(c):
    target = math.pi ** 2 / 3.0           # 2 pi^2 xi^2 at xi^2 = 1/6
    slope = c["mass-drift-slope"]
    scaled = c["mass-scaled-drift"]
    bracket = c["mass-bracket"]
    return [
        ("slope-target", _rel(slope["rhs"], target) <= 1e-13),
        ("slope-within-2pct", abs(slope["lhs"] - target) <= 0.02 * target
         and 0.02 * target >= 4.0 * slope["stderr"] > 0.0),
        ("scaled-drift-consistent", _rel(scaled["lhs"], slope["lhs"] * 1.5 / math.pi ** 2)
         <= 1e-13 and scaled["rhs"] == 0.5),
        ("bracket-ratio", abs(bracket["lhs"] / bracket["rhs"] - 1.0) <= 0.05),
    ]


INDEPENDENT = {"invariance": _invariance, "dirichlet": _dirichlet, "dynamics": _dynamics}


def check_report(workload: str, out_dir: Path, config: dict):
    """Operations, problems and 3-se misses of the report in out_dir/<workload>."""
    report_dir = Path(out_dir) / workload
    report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    ops, problems, misses = [], [], 0
    if report["suite"] != workload:
        problems.append(f"suite {report['suite']!r} is not {workload!r}")
    for key, val in config.items():
        if report["config"].get(key) != val:
            problems.append(f"config {key}={report['config'].get(key)!r}, asked {val!r}")
    for c in report["checks"]:
        if not all(math.isfinite(c[k]) for k in ("lhs", "rhs", "stderr", "tol")):
            problems.append(f"{c['name']}: non-finite value")
            ops.append((c["name"], False))
            continue
        try:
            verdict, ok = _gate(c, report_dir)
        except (ValueError, OSError, KeyError) as exc:
            problems.append(f"{c['name']}: {exc}")
            ops.append((c["name"], False))
            continue
        if verdict != c["passed"]:
            problems.append(f"{c['name']}: passed={c['passed']} but recomputed {verdict}")
        misses += not verdict
        ops.append((c["name"], ok))
    if report["passed"] != all(c["passed"] for c in report["checks"]):
        problems.append("report-level passed disagrees with its checks")
    by_name = {c["name"]: c for c in report["checks"]}
    try:
        ops += INDEPENDENT[workload](by_name)
    except KeyError as exc:
        problems.append(f"missing check {exc}")
    return ops, problems, misses
