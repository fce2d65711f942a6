"""The diagnostics in scripts/, imported from their files."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from growthlab.rng import make_rng

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(name, argv, monkeypatch, capsys):
    """The lines a script's main() prints for the command-line arguments argv."""
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    _script(name).main()
    return capsys.readouterr().out.splitlines()


def test_invariance_experiment_runs_at_a_tiny_size(monkeypatch, capsys):
    lines = _main("invariance_experiment", ["--n", "300", "--N", "8", "--M", "32"],
                  monkeypatch, capsys)
    rows = [line.split() for line in lines[1:]]
    assert [r[0] for r in rows] == ["solved", "alpha+0.1", "chi+0.1", "beta=0.1", "c*1.1",
                                    "alpha+0.2", "chi+0.2", "beta=0.2", "c*1.2"]
    for _, lhs, rhs, z, gate in rows:
        assert np.isfinite([float(lhs), float(rhs), float(z)]).all() and gate in ("PASS", "FAIL")
    assert abs(float(rows[0][2])) < 1e-5        # the rhs vanishes at the solved couplings


def test_seed_sweep_runs_the_dirichlet_suite(monkeypatch, capsys):
    lines = _main("seed_sweep", ["--suite", "dirichlet", "--seeds", "2", "--param", "N=8",
                                 "--param", "M=32", "--param", "n_samples=200",
                                 "--param", "n_samples_main=200"], monkeypatch, capsys)
    summaries = {line.split(":")[0] for line in lines if " seeds=2 " in line}
    assert summaries >= {"dirichlet-form-split", "dirichlet-form-swapped",
                         "dirichlet-exchange", "divergence-form"}


def test_stationarity_diagnostic_reports():
    rep = _script("stationarity_diagnostic").stationarity_diagnostic(
        1 / np.sqrt(6), 1e-3, 0.02, 300, 8, 32, make_rng(2))
    assert set(rep) == {"observable_0_drift", "observable_0_stderr",
                        "observable_1_drift", "observable_1_stderr"}
    assert all(np.isfinite(v) for v in rep.values())


def test_bench_compare_summary():
    spec = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]

    def run(run_s, rate, rss, failed=0, attempted=10):
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {"run_s": {"value": run_s, "unit": "s"},
                            "samples_per_s": {"value": rate, "unit": "1/s"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}

    parent = [run(8.0, 1500.0, 829.0), run(9.0, 1400.0, 829.0), run(8.5, 1450.0, 829.0)]
    change = [run(4.5, 2600.0, 229.0), run(9.5, 2500.0, 900.0, failed=1),
              run(5.0, 1450.0, 229.0)]
    out = _script("bench_compare").summarize(spec, parent, change, True)
    assert out["pairs"] == 3 and out["report_bytes_match"]
    assert out["runs"] == {"parent": {"correct": True, "failed_runs": 0, "attempted": 30,
                                      "failed": 0, "failed_share": 0.0,
                                      "attempted_per_run": [10, 10, 10]},
                           "change": {"correct": False, "failed_runs": 0, "attempted": 30,
                                      "failed": 1, "failed_share": 1 / 30,
                                      "attempted_per_run": [10, 10, 10]}}
    # a side that fits a round fewer attempts fewer operations, at the same share
    short = _script("bench_compare").summarize(
        spec, parent, [run(8.0, 1500.0, 829.0, attempted=a) for a in (10, 5, 10)], True)
    assert short["runs"]["change"]["attempted"] == 25
    assert short["runs"]["change"]["attempted_per_run"] == [10, 5, 10]
    assert short["runs"]["change"]["failed_share"] == short["runs"]["parent"]["failed_share"]
    run_s = out["metrics"]["run_s"]
    assert run_s["parent"]["runs"] == [8.0, 9.0, 8.5]
    assert (run_s["parent"]["median"], run_s["change"]["median"]) == (8.5, 5.0)
    assert (run_s["parent"]["q1"], run_s["parent"]["q3"]) == (8.25, 8.75)
    assert run_s["change_wins"] == 2 and not run_s["worse_than_bound"]
    assert run_s["median_ratio"] == 5.0 / 8.5
    rate = out["metrics"]["samples_per_s"]
    assert rate["change_wins"] == 2            # the tie counts for neither side
    assert not rate["worse_than_bound"]
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 2 and not rss["worse_than_bound"]
    slower = _script("bench_compare").summarize(spec[:1], parent, [run(11.0, 1.0, 1.0)] * 3,
                                                False)
    assert slower["metrics"]["run_s"]["worse_than_bound"] and not slower["report_bytes_match"]
    with pytest.raises(ValueError):
        _script("bench_compare").summarize(spec, parent, change[:2], True)
    lost = _script("bench_compare").summarize(spec, parent, [None] + change[1:], False)
    assert lost["pairs"] == 2 and lost["metrics"]["run_s"]["parent"]["runs"] == [9.0, 8.5]
    assert lost["runs"]["change"] == {"correct": False, "failed_runs": 1,
                                      "attempted": 20, "failed": 1, "failed_share": 0.05,
                                      "attempted_per_run": [10, 10]}
    gone = _script("bench_compare").summarize(spec, parent, [None] * 3, False)
    assert gone["runs"]["change"]["failed_share"] is None
    assert gone["metrics"] == {}
    machine = _script("bench_compare").machine()
    assert list(machine) == ["cpus", "usable_cpus", "python", "numpy"]
    assert machine["usable_cpus"] == len(os.sched_getaffinity(0))
    assert 1 <= machine["usable_cpus"] <= machine["cpus"] == os.cpu_count()


def test_bench_compare_report_deltas():
    def report(*checks):
        return json.dumps({"suite": "s", "checks": [
            {"name": n, "lhs": lhs, "rhs": rhs, "stderr": se, "passed": ok}
            for n, lhs, rhs, se, ok in checks]}).encode()

    parent = report(("a", 1.0, 0.5, 0.25, True), ("b", 2.0, 2.0, 0.0, True),
                    ("c", 0.0, 1.0, 0.5, True), ("gone", 1.0, 1.0, 0.0, True))
    roundoff = report(("a", 1.0 + 2e-16, 0.5, 0.25, True), ("b", 2.0, 2.0, 0.0, True),
                      ("c", 0.0, 1.0, 0.5, True), ("new", 0.0, 0.0, 0.0, True))
    moved = report(("a", 1.0, 0.5, 0.25, True), ("b", 2.5, 2.0, 0.0, False),
                   ("c", 0.0, 1.0, 0.25, False), ("new", 0.0, 0.0, 0.0, True))
    out = _script("bench_compare").report_deltas([(parent, roundoff), (parent, moved)])
    assert list(out) == ["a", "b", "c", "gone", "new"]
    assert out["a"] == {"lhs": 2.220446049250313e-16, "rhs": 0.0, "stderr": 0.0,
                        "z": 8.881784197001252e-16, "passed_flipped": False}
    assert out["b"] == {"lhs": 0.5, "rhs": 0.0, "stderr": 0.0, "z": None,
                        "passed_flipped": True}
    assert out["c"] == {"lhs": 0.0, "rhs": 0.0, "stderr": 0.25, "z": 2.0,
                        "passed_flipped": True}
    assert out["gone"] == {"missing": "change"} and out["new"] == {"missing": "parent"}
    same = _script("bench_compare").report_deltas([(parent, parent)])
    assert same["a"] == {"lhs": 0.0, "rhs": 0.0, "stderr": 0.0, "z": 0.0,
                         "passed_flipped": False}
    assert same["b"]["z"] is None
