"""Light-scale runs of every registered suite: all gates must pass."""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from growthlab import generator, kernels, suites
from growthlab.fields import CouplingParams
from growthlab.suites import (CHECKS, CheckResult, CheckTableError, ExperimentConfig,
                              describe, not_decaying, run_suite)

LIGHT = {
    "identities": dict(N=32, M=128, n_samples=300),
    "gmc": dict(N=32, M=128, n_samples=2000),
    "loewner": dict(N=32, M=256, n_samples=300),
    "invariance": dict(N=32, M=128, n_samples=2000, n_samples_main=4000),
    "dirichlet": dict(N=32, M=128, n_samples=2000, n_samples_main=3000),
    "dynamics": dict(N=32, M=128, n_samples=1000, n_samples_main=2000),
    "appendix": dict(N=16, M=64, n_samples=2000),
}


# (name, lhs, rhs) of every dynamics check at seed 1, LIGHT; ou-stationary-variance
# re-pinned (1.5303530283565778 before) when its stderr came from the target
# variance instead of the sample variance, and the two bracket rows re-pinned
# when their ensembles went from 2,000 paths to `bracket_paths`'s 64
# (mass-bracket 414.4792006137935, 415.60170322067927 and mass-step-convergence
# 415.0024496677964, 414.7008678573541 before)
GOLDEN_DYNAMICS = [
    ("mass-drift-slope", 3.282312214341658, 3.2898681336964537),
    ("mass-scaled-drift", 0.49885163796119897, 0.5),
    ("mass-bracket", 428.3076768686063, 422.3965444419804),
    ("mass-step-convergence", 421.62013983126803, 420.0106292533834),
    ("mass-positivity", 0.0, 0.0),
    ("mass-martingale", 0.0, 0.0),
    ("ou-stationary-variance", 1.4596948706149757, 0.0),
    ("ou-spectral-gap", 0.5331599145517236, 0.5334880910911033),
    ("driving-from-state-radial", 0.5063228296124165, 0.5063228296124165),
]


@lru_cache(maxsize=None)
def light_run(suite):
    return run_suite(ExperimentConfig(suite=suite, seed=1, **LIGHT[suite]))


@pytest.mark.parametrize("suite", sorted(LIGHT))
def test_suite_gates_pass(suite):
    results = light_run(suite)
    failures = [r.name for r in results if not r.passed]
    assert not failures, failures


def test_identities_pass_on_the_coarse_grid():
    # the localization Green pairing is limited by its radial rule; at 40
    # radii it missed the 1e-4 gate here (2.05e-4) whatever the angle grid
    results = run_suite(ExperimentConfig(suite="identities", seed=1, N=16, M=64,
                                         n_samples=200))
    failures = [r.name for r in results if not r.passed]
    assert not failures, failures


def test_mass_law_gates_carry_stderr_and_power():
    # every fixed relative dynamics gate keeps its tolerance and reports the
    # stderr of lhs - rhs, at least four of which fit inside the tolerance
    checks = {r.name: r for r in light_run("dynamics")}
    for name, tol in (("mass-drift-slope", 0.02), ("mass-scaled-drift", 0.02),
                      ("mass-bracket", 0.05), ("mass-step-convergence", 0.05),
                      ("ou-spectral-gap", 0.02)):
        r = checks[name]
        assert r.gate == "rel" and r.tol == tol
        assert r.stderr > 0.0
        assert tol * abs(r.rhs) >= 4.0 * r.stderr, (name, r.rhs, r.stderr)
    # mode 1 at T = 0.2 from 10: sd sqrt(2 pi (1 - e^{-0.4 pi})) over 20,000 paths
    closed = np.sqrt(2.0 * np.pi * (1.0 - np.exp(-0.4 * np.pi)) / 20000) / 10.0
    assert checks["ou-spectral-gap"].stderr == pytest.approx(closed, rel=0.05)


def test_dynamics_keeps_its_bits():
    assert [(r.name, r.lhs, r.rhs) for r in light_run("dynamics")] == GOLDEN_DYNAMICS


@pytest.mark.parametrize("suite", sorted(LIGHT))
def test_describe_lists_the_checks_a_run_makes(suite):
    assert describe(suite)["checks"] == [r.name for r in light_run(suite)]


def test_rel_gate_measures_against_the_target():
    target = 3.7

    def passes(lhs):
        return CheckResult.gated("rel", "rel", 0.02, "rel-gate", lhs, target).passed

    assert not passes(1.0204 * target)
    assert not passes(0.9796 * target)
    assert passes(1.0196 * target)
    assert passes(0.9804 * target)


def test_decay_gates_can_fail():
    # the inverse-map l2 decay check passes only on strictly falling errors
    def gate(errs):
        return CheckResult.gated("inverse-map-l2-decay", "bound", 0.5, "inverse-map",
                                 not_decaying(errs)).passed

    assert gate([0.0527, 0.0504, 0.0500])
    for errs in ([0.05, 0.06, 0.04], [0.05, 0.04, 0.04], [0.03, 0.04, 0.05]):
        assert not gate(errs), errs


@pytest.mark.parametrize("scale", [1.3, 2.0])
def test_potential_gradient_gate_sees_c(monkeypatch, scale):
    """The potential-gradient fixture's k has a nonzero integral, so its
    gate fails at LIGHT when the potential's constant c is off by 30% or
    doubled (z about 6 and 18 at seed 1)."""
    check = generator.ibp_potential_check
    c = scale * CouplingParams.pure_gravity().c
    monkeypatch.setattr(generator, "ibp_potential_check",
                        lambda *args, **kwargs: check(*args, c=c, **kwargs))
    rows = run_suite(ExperimentConfig(suite="appendix", seed=1, **LIGHT["appendix"]))
    row = next(r for r in rows if r.name == "potential-gradient-ibp")
    assert abs(row.lhs - row.rhs) > 5.0 * row.stderr and not row.passed


def test_transport_two_routes_gate_sees_the_power_series(monkeypatch):
    """transport-two-routes holds dmu's direct grid quadrature against
    dmu_polar's power series.  With the series' k >= 1 Fourier coefficients
    of the density scaled by 1.01 the row exceeds its 1e-8 gate and fails."""
    row = {r.name: r for r in light_run("identities")}["transport-two-routes"]
    assert row.passed and row.lhs <= 1e-8
    orig = kernels.loewner_field_polar

    def scaled(mu, r):
        d = mu.density
        return orig(SimpleNamespace(density=d.mean() + 1.01 * (d - d.mean()), M=mu.M), r)

    monkeypatch.setattr(kernels, "loewner_field_polar", scaled)
    results = run_suite(ExperimentConfig(suite="identities", seed=1, **LIGHT["identities"]))
    row = {r.name: r for r in results}["transport-two-routes"]
    assert row.lhs > 1e-8 and not row.passed


# (tol, passing (lhs, rhs, stderr), failing (lhs, rhs, stderr)) of each gate
GATE_CASES = {
    "abs": (1e-8, (1.0 + 5e-9, 1.0, 0.0), (1.0 + 2e-8, 1.0, 0.0)),
    "rel": (0.02, (0.0101, 0.01, 0.0), (0.0103, 0.01, 0.0)),
    "3se": (3.0, (1.29, 1.0, 0.1), (0.69, 1.0, 0.1)),
    "bound": (0.5, (0.0, 7.0, 1.0), (1.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("gate", sorted(GATE_CASES))
def test_every_gate_kind_can_fail(gate):
    tol, ok, bad = GATE_CASES[gate]
    good = CheckResult.gated("check", gate, tol, "anchor", *ok)
    assert good.passed and good.gate == gate and good.tol == tol
    assert not CheckResult.gated("check", gate, tol, "anchor", *bad).passed
    if gate == "bound":     # a bound keeps its lhs alone
        assert (good.rhs, good.stderr) == (0.0, 0.0)
    else:
        assert (good.lhs, good.rhs, good.stderr) == ok


def test_run_suite_gates_in_table_order_and_raises_on_a_stray_name(monkeypatch):
    names = [row[0] for row in CHECKS["dirichlet"]]
    measured = {name: (1.0, 1.0, 0.1) for name in reversed(names)}
    monkeypatch.setitem(suites.SUITES, "dirichlet", lambda cfg: dict(measured))
    cfg = ExperimentConfig(suite="dirichlet")
    assert [r.name for r in run_suite(cfg)] == names
    measured["dirichlet-undeclared"] = 0.0
    with pytest.raises(CheckTableError, match="dirichlet-undeclared"):
        run_suite(cfg)
    del measured["dirichlet-undeclared"], measured["divergence-form"]
    with pytest.raises(CheckTableError, match="divergence-form"):
        run_suite(cfg)


# (term of _TraceBatch, factor): mutations of the generator's own terms that
# invariance-pure-gravity must see at LIGHT.  Seeds 1 and 41 read |z| = 11.9
# and 12.1 under diffusion x 1.5, 5.6 and 4.6 under vpair_dnh x 1.1 (the
# 16-point Gauss-Hermite table read 1.47 and 2.23, 1.15 and 0.33).
INVARIANCE_MUTATIONS = [("diffusion", 1.5), ("vpair_dnh", 1.1)]


@pytest.mark.parametrize("seed", [1, 41])
@pytest.mark.parametrize("term, factor", INVARIANCE_MUTATIONS)
def test_invariance_gate_fails_under_a_mutated_term(term, factor, seed, monkeypatch):
    orig = getattr(generator._TraceBatch, term)
    monkeypatch.setattr(generator._TraceBatch, term,
                        lambda self, *args: factor * orig(self, *args))
    results = run_suite(ExperimentConfig(suite="invariance", seed=seed, **LIGHT["invariance"]))
    gate = {r.name: r for r in results}["invariance-pure-gravity"]
    assert not gate.passed
    assert abs(gate.lhs - gate.rhs) > 3.0 * gate.stderr
