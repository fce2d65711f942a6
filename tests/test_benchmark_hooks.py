"""The benchmark's hooks into the program, and the benchmark's own command.

perfbench/worker.py patches growthlab by name: it counts samples through
generator's own sample_trace_batch binding and dynamics' cir_exact_step, and
times the estimators, the mollified profile (its `profiles.spline` spans),
the Gauss panels and the square-root steps as module functions and methods.  A traced round of each
workload must see every one of them, and a one-round `perfbench/run.py` of
each workload must finish correct.
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
    "dynamics": (32_642_620, "dynamics.cir_s", "dynamics.cell_steps"),
}

# exact counts of a traced round.  The quadrature wrapper counts one integrand
# call per level of the Gauss ladder, so an integrand it saw once per row
# block would inflate them; the dynamics counts come from one cir_exact_step
# call per step with every cell of the ensemble.
EXACT = {
    "dirichlet": {"quadrature.gauss_calls": 4, "quadrature.nodes_per_sample": 2016},
    "dynamics": {"dynamics.cell_steps": 78_006_340},
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
    for name, value in EXACT.get(workload, {}).items():
        assert line["layers"][name] == value
    assert (tmp_path / workload / "report.json").exists()


@pytest.mark.parametrize("workload", sorted(HOOKS))
def test_benchmark_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
