"""The diagnostics in scripts/, imported from their files."""

import importlib.util
from pathlib import Path

import numpy as np

from growthlab.rng import make_rng

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stationarity_diagnostic_reports():
    rep = _script("stationarity_diagnostic").stationarity_diagnostic(
        1 / np.sqrt(6), 1e-3, 0.02, 300, 8, 32, make_rng(2))
    assert set(rep) == {"observable_0_drift", "observable_0_stderr",
                        "observable_1_drift", "observable_1_stderr"}
    assert all(np.isfinite(v) for v in rep.values())
