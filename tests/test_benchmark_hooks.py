"""The benchmark's hooks into the program.

perfbench/worker.py patches growthlab by name: it counts samples through
generator's own sample_trace_batch binding, and times the estimators, the
spline profile and the Gauss panels as module functions and methods.  A
traced round of each generator workload must see every one of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# workload: (trace fields drawn by the suite at the worker's config, the
# estimator span, the profile or quadrature counter that must be nonzero)
HOOKS = {
    "invariance": (12_000, "generator.invariance_check_s", "profiles.spline_points"),
    "dirichlet": (5_100, "generator.dirichlet_form_s", "quadrature.gauss_calls"),
}

# exact quadrature counts of a traced round: the wrapper counts one integrand
# call per level of the Gauss ladder, so an integrand it saw once per row
# block would inflate them
QUADRATURE = {
    "dirichlet": {"quadrature.gauss_calls": 4, "quadrature.nodes_per_sample": 2016},
}


@pytest.mark.parametrize("workload", sorted(HOOKS))
def test_traced_worker_round_sees_the_hooks(workload, tmp_path):
    samples, span, counter = HOOKS[workload]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--trace", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    line = json.loads(lines[-1])
    assert line["samples"] == samples
    assert line["layers"][span] > 0.0
    assert line["layers"][counter] > 0
    for name, value in QUADRATURE.get(workload, {}).items():
        assert line["layers"][name] == value
    assert (tmp_path / workload / "report.json").exists()
