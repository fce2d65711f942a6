"""Experiment runner: parse a config, execute a named check suite with a
seed, and emit a machine-readable report plus plot-ready CSV series.

Reports are deterministic: rerunning with the same config and seed writes
byte-identical files (no timestamps; floats serialized at full precision).
Exit code 0 means every gate passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .suites import ExperimentConfig, describe, list_suites, run_suite, run_xi

_CONFIG_FIELDS = {
    "suite": str, "N": int, "M": int, "n_samples": int, "n_samples_main": int,
    "dt": float, "T": float, "seed": int, "xi": float, "out_dir": str,
}


def parse_config_file(path: str) -> dict:
    """Flat key=value text file; blank lines and # comments ignored."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = val
    return out


def coerce(overrides: dict) -> dict:
    out = {}
    for key, val in overrides.items():
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = _CONFIG_FIELDS[key](val)
    return out


def format_float(x: float) -> float:
    return float(f"{x:.17g}")


def write_report(cfg: ExperimentConfig, results, out_dir: Path) -> bool:
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = []
    for r in results:
        checks.append({
            "name": r.name,
            "lhs": format_float(r.lhs),
            "rhs": format_float(r.rhs),
            "stderr": format_float(r.stderr),
            "tol": format_float(r.tol),
            "gate": r.gate,
            "passed": bool(r.passed),
            "anchor": r.anchor,
        })
        if r.series:
            cols = list(r.series.keys())
            rows = zip(*[r.series[c] for c in cols])
            lines = [",".join(cols)]
            for row in rows:
                lines.append(",".join(f"{float(v):.17g}" for v in row))
            (out_dir / f"{r.name}.csv").write_text("\n".join(lines) + "\n",
                                                   encoding="utf-8")
    all_passed = all(r.passed for r in results)
    report = {
        "suite": cfg.suite,
        "config": {
            "N": cfg.N, "M": cfg.M, "n_samples": cfg.n_samples,
            "n_samples_main": cfg.heavy_n, "dt": format_float(cfg.dt),
            "T": format_float(cfg.T), "seed": cfg.seed,
            "xi": format_float(run_xi(cfg)),
        },
        "checks": checks,
        "passed": all_passed,
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return all_passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="growthlab",
                                     description="disk growth check suites")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a named suite")
    runp.add_argument("--suite", required=True)
    runp.add_argument("--seed", type=int, help="beats the config file (default 1)")
    runp.add_argument("--out", help="beats the config file (default results)")
    runp.add_argument("--config", default=None, help="key=value config file")
    runp.add_argument("--param", action="append", default=[],
                      metavar="k=v", help="override of the file and the flags")

    sub.add_parser("list", help="list available suites")

    desc = sub.add_parser("describe", help="check inventory of a suite")
    desc.add_argument("--suite", required=True)

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in list_suites():
            print(name)
        return 0

    if args.command == "describe":
        info = describe(args.suite)
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0

    # lowest first: ExperimentConfig defaults, --config, --seed/--out, --param
    overrides = {}
    if args.config:
        overrides.update(parse_config_file(args.config))
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    for item in args.param:
        if "=" not in item:
            parser.error(f"--param expects k=v, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key] = val
    overrides = coerce(overrides)
    overrides["suite"] = args.suite
    try:
        cfg = ExperimentConfig(**overrides)
    except (TypeError, ValueError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    try:
        results = run_suite(cfg)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    ok = write_report(cfg, results, Path(cfg.out_dir) / cfg.suite)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g} "
              f"stderr={r.stderr:.3g} gate={r.gate}")
    print(f"suite {cfg.suite}: {'all passed' if ok else 'FAILURES'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
