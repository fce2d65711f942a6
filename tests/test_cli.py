import json
import subprocess
import sys

import numpy as np
import pytest

from growthlab.cli import main, parse_config_file
from growthlab.suites import (CouplingMismatchError, ExperimentConfig, describe,
                              list_suites, run_xi)


def test_list_suites():
    assert list_suites() == ["appendix", "dirichlet", "dynamics", "gmc",
                             "identities", "invariance", "loewner"]


def test_describe_invariance():
    info = describe("invariance")
    assert "invariance-pure-gravity" in info["checks"]
    assert "invariance-residual-beta" in info["checks"]
    with pytest.raises(KeyError):
        describe("nope")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(suite="identities", xi=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(suite="identities", N=64, M=128)
    with pytest.raises(ValueError):
        ExperimentConfig(suite="identities", n_samples=10)
    # n_samples_main = 0 would silently fall back to n_samples in heavy_n
    for bad in (dict(n_samples_main=0), dict(n_samples_main=-5), dict(n_samples_main=99),
                dict(dt=0.0), dict(dt=-1e-3), dict(T=0.0), dict(T=-0.5)):
        with pytest.raises(ValueError):
            ExperimentConfig(suite="invariance", **bad)
    assert ExperimentConfig(suite="invariance", n_samples_main=100).heavy_n == 100


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_the_key_range_is_an_invalid_config(seed, tmp_path, capsys):
    """make_rng keys Philox with a uint64, so a seed outside [0, 2**64)
    overflowed there; the config rejects it by name before any run."""
    with pytest.raises(ValueError, match="seed must lie in"):
        ExperimentConfig(suite="identities", seed=seed)
    rc = main(["run", "--suite", "identities", "--seed", str(seed), "--out", str(tmp_path)])
    assert rc == 2
    assert "invalid config: seed must lie in" in capsys.readouterr().err
    assert not (tmp_path / "identities").exists()
    assert ExperimentConfig(suite="identities", seed=2 ** 64 - 1).seed == 2 ** 64 - 1


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment\nN = 16\nM=64\nn_samples = 500\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"N": "16", "M": "64", "n_samples": "500"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("N 16\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))


def test_unknown_suite_exits_nonzero(tmp_path, capsys):
    rc = main(["run", "--suite", "nope", "--out", str(tmp_path)])
    assert rc == 2


def test_invalid_param_exits_nonzero(tmp_path):
    rc = main(["run", "--suite", "identities", "--out", str(tmp_path),
               "--param", "n_samples=3"])
    assert rc == 2


def test_run_writes_report_and_is_reproducible(tmp_path, capsys):
    args = ["run", "--suite", "identities", "--seed", "7",
            "--out", str(tmp_path / "a"), "--param", "N=16", "--param", "M=64",
            "--param", "n_samples=200", "--param", "n_samples_main=200"]
    rc = main(args)
    assert rc == 0
    report_path = tmp_path / "a" / "identities" / "report.json"
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["suite"] == "identities"
    names = [c["name"] for c in report["checks"]]
    assert "kernel-row_integral" in names
    for c in report["checks"]:
        assert set(c) == {"name", "lhs", "rhs", "stderr", "tol", "gate",
                          "passed", "anchor"}
    # bit-identical rerun
    first = report_path.read_bytes()
    rc2 = main(["run", "--suite", "identities", "--seed", "7",
                "--out", str(tmp_path / "b"), "--param", "N=16",
                "--param", "M=64", "--param", "n_samples=200",
                "--param", "n_samples_main=200"])
    assert rc2 == 0
    second = (tmp_path / "b" / "identities" / "report.json").read_bytes()
    assert first == second
    # CSV series exist for checks that carry them
    csvs = list((tmp_path / "a" / "identities").glob("*.csv"))
    assert any("finite-rank" in c.name for c in csvs)
    header = csvs[0].read_text().splitlines()[0]
    assert "," in header


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "growthlab.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "identities" in proc.stdout


def _identities_args(out, *extra):
    return ["run", "--suite", "identities", "--out", str(out), "--param", "N=16",
            "--param", "M=64", "--param", "n_samples=200", *extra]


def test_explicit_seed_beats_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 5\n")
    assert main(_identities_args(tmp_path / "a", "--config", str(cfg),
                                 "--seed", "9")) == 0
    report = json.loads((tmp_path / "a" / "identities" / "report.json").read_text())
    assert report["config"]["seed"] == 9
    # without the flag the file's seed holds
    assert main(_identities_args(tmp_path / "b", "--config", str(cfg))) == 0
    report = json.loads((tmp_path / "b" / "identities" / "report.json").read_text())
    assert report["config"]["seed"] == 5


def test_report_records_the_xi_used(tmp_path):
    # the gates' verdicts do not matter here, only the recorded config
    assert main(_identities_args(tmp_path / "a", "--param", "xi=0.3")) in (0, 1)
    report = json.loads((tmp_path / "a" / "identities" / "report.json").read_text())
    assert report["config"]["xi"] == 0.3
    assert main(_identities_args(tmp_path / "b")) in (0, 1)
    report = json.loads((tmp_path / "b" / "identities" / "report.json").read_text())
    assert report["config"]["xi"] == 1.0 / np.sqrt(6.0)
    # the invariance and Dirichlet-form suites run at pure gravity
    assert run_xi(ExperimentConfig(suite="dirichlet")) == 1.0 / np.sqrt(6.0)


def test_pure_gravity_suites_reject_another_xi(tmp_path, capsys):
    for suite in ("invariance", "dirichlet"):
        rc = main(["run", "--suite", suite, "--out", str(tmp_path), "--param", "xi=0.3"])
        assert rc == 2
        assert "pure gravity" in capsys.readouterr().err
        assert not (tmp_path / suite).exists()
        with pytest.raises(CouplingMismatchError):
            ExperimentConfig(suite=suite, xi=0.3)
        # pure gravity's own xi, as a config file writes it, is accepted
        cfg = ExperimentConfig(suite=suite, xi=float(f"{1.0 / np.sqrt(6.0):.15g}"))
        assert run_xi(cfg) == 1.0 / np.sqrt(6.0)
    assert ExperimentConfig(suite="identities", xi=0.3).xi == 0.3


def test_import_leaves_scipy_submodules_out():
    """Importing the CLI loads neither slow scipy submodule, and an
    invariance run (its mollification and zero-mode integrals are numpy's)
    loads neither scipy.ndimage nor scipy.special."""
    code = ("import sys, growthlab.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.ndimage') "
            "if m in sys.modules)); "
            "from growthlab.suites import ExperimentConfig, run_suite; "
            "run_suite(ExperimentConfig(suite='invariance', N=8, M=32, n_samples=200, "
            "n_samples_main=200)); "
            "print(sorted(m for m in ('scipy.ndimage', 'scipy.special') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["[]", "[]"]
