import inspect
from collections import Counter

import numpy as np
import pytest

from growthlab import generator, suites
from growthlab.disk import DiskTestFunction, realize_symbol
from growthlab.fields import (CouplingParams, IntegrabilityError,
                              mean_stderr, sample_trace_batch)
from growthlab.gmc import CircleMeasure, chaos_measure, weighted_field_check
from growthlab.generator import (CylindricalFunctional, _column_sums,
                                 _generator_terms, _integrate_live, _line_rows,
                                 _m_interval,
                                 _TraceBatch, _zero_mode_rows,
                                 derivative_martingale_identity,
                                 dirichlet_form, divergence_form_check,
                                 drift_bulk, ibp_hdmuf_check,
                                 ibp_potential_check, invariance_bulk_value,
                                 invariance_check, invariance_local_value,
                                 projected_symmetric_ibp_check,
                                 projection_covariance_identity,
                                 qle_drift_compare, rotational_invariance_check,
                                 truncated_second_moment_growth)
from growthlab.profiles import (BoundedSmoothProfile, CovarianceNotDiagonalError,
                                MollifiedProfile, MovingAxesError, ProductProfile)
from growthlab.quadrature import batched_gauss_panels
from growthlab.rng import make_rng
from growthlab.spectral import BoundaryField, grid_angles

PG = CouplingParams.pure_gravity()
N, M = 32, 128


def fixture_F():
    p1 = BoundaryField.constant(1 / (2 * np.pi), 4) + 0.6 * BoundaryField.basis(1, 4)
    p2 = 0.8 * BoundaryField.basis(3, 4) + 0.3 * BoundaryField.basis(2, 4)
    return CylindricalFunctional([p1, p2], ProductProfile.bumps([0.0, 0.0], [2.0, 2.5]))


def fixture_G():
    q1 = BoundaryField.constant(1 / (2 * np.pi), 4) - 0.5 * BoundaryField.basis(2, 4)
    q2 = 0.7 * BoundaryField.basis(1, 4) + 0.2 * BoundaryField.basis(4, 4)
    return CylindricalFunctional([q1, q2], ProductProfile.bumps([0.0, 0.0], [2.2, 2.0]))


def test_pure_gravity_solution():
    pg = CouplingParams.pure_gravity()
    assert abs(pg.gamma ** 2 - 8.0 / 3.0) < 1e-14
    assert pg.d_gamma == 4.0
    assert abs(pg.xi - 1 / np.sqrt(6)) < 1e-15
    assert abs(pg.Q - 5 / np.sqrt(6)) < 1e-15
    assert abs(pg.Q - (2 * pg.xi + 1 / (2 * pg.xi))) < 1e-14
    assert abs(pg.Q - 1.25 * pg.gamma) < 1e-14
    assert max(abs(r) for r in pg.invariance_residuals()) < 1e-14
    assert abs(2 * np.pi * pg.c + pg.xi) < 1e-15
    # the dimension bound d >= 2 + gamma^2/2 keeps d = 4 and rejects the
    # other branch of the first relation, d = gamma^2
    assert pg.d_gamma >= 2.0 + pg.gamma ** 2 / 2.0 > pg.gamma ** 2


def drift(p, h, mu, params):
    """The drift b(p) at the field h against mu, from the estimators' terms."""
    return _TraceBatch.at(h, mu).drift(p, params)[0] - params.beta * p.integral()


def test_diffusion_examples():
    def sigma(p, q, mu):
        return _TraceBatch.at(BoundaryField.zeros(1), mu).diffusion(p, q)[0]

    one = BoundaryField.constant(1.0, 1)
    mu1 = CircleMeasure.uniform(1.0, M)
    assert abs(sigma(one, one, mu1) - 4 * np.pi ** 2) < 1e-10
    e1 = BoundaryField.basis(1, 1)
    # orthonormal mode against itself under lambda/2pi: (2pi)^2 / (2pi) = 2pi
    assert abs(sigma(e1, e1, CircleMeasure.uniform(1.0, M)) - 2 * np.pi) < 1e-10
    assert sigma(e1, e1, CircleMeasure(np.zeros(M))) == 0.0


def test_drift_zero_measure_reduces_to_beta_term():
    h = BoundaryField(sample_trace_batch(N, 1, make_rng(1))[0])
    p = BoundaryField.constant(0.5, 2) + BoundaryField.basis(1, 2)
    mu0 = CircleMeasure(np.zeros(M))
    params = PG.replace(beta=0.7)
    b = drift(p, h, mu0, params)
    assert abs(b + 0.7 * p.integral()) < 1e-12


def test_drift_flat_configuration_hand_value():
    # h = 0, uniform measure: only the mean parts of the chi/(chi-alpha)
    # terms survive
    h = BoundaryField.zeros(N)
    mu = CircleMeasure.uniform(1.0, M)
    p = BoundaryField.constant(0.5, 2) + BoundaryField.basis(1, 2)
    b = drift(p, h, mu, PG)
    # int p dmu = mean(p) * mass; d_nH p integrates to zero against uniform
    hand = 2 * np.pi * (PG.chi - PG.alpha) * 0.5 * 1.0
    assert abs(b - hand) < 1e-10
    # cosine-weighted measure picks up the d_nH term
    mu_c = CircleMeasure((1.0 + np.cos(grid_angles(M))) / (2 * np.pi))
    b2 = drift(BoundaryField.basis(1, 2), h, mu_c, PG)
    hand2 = (-2 * np.pi * PG.chi * (-1.0 / (2 * np.sqrt(np.pi)))
             + 2 * np.pi * (PG.chi - PG.alpha) / (2 * np.sqrt(np.pi)))
    assert abs(b2 - hand2) < 1e-10


def test_drift_bulk_vs_boundary():
    rng = make_rng(2)
    h = BoundaryField(sample_trace_batch(N, 1, rng)[0])
    mu = chaos_measure(h, -1, PG.xi, M)
    p = BoundaryField.constant(1 / (2 * np.pi), 4) + 0.6 * BoundaryField.basis(1, 4)
    f = realize_symbol(p)
    b1 = drift(p, h, mu, PG)
    b2 = drift_bulk(f, h, mu, PG)
    assert abs(b1 - b2) < 1e-4 * max(abs(b1), 1.0)


def test_generator_term_trivial_cases():
    h = BoundaryField(sample_trace_batch(N, 1, make_rng(3))[0])
    F = fixture_F()
    x = np.array([[1.5, 1.7]])    # on both bumps' rising edges
    grad, hess = F.profile.grad(x)[0], F.profile.hess(x)[0]

    def term(mu, grad, hess):
        entries = {("g", i): grad[None, i] for i in range(2)}
        entries.update({("h", i, j): hess[None, i, j] for i in range(2) for j in range(2)})
        terms = [(0, coef, key) for coef, key in _generator_terms(
            F.symbols, lambda tb, p: tb.drift(p, PG))]
        return _column_sums(terms, _TraceBatch.at(h, mu), entries.__getitem__)[0][0]

    # constant profile: generator vanishes
    chaos = chaos_measure(h, -1, PG.xi, M)
    assert term(chaos, np.zeros(2), np.zeros((2, 2))) == 0.0
    assert term(chaos, grad, hess) != 0.0
    # zero measure, beta = 0: drift and diffusion vanish
    assert abs(term(CircleMeasure(np.zeros(M)), grad, hess)) < 1e-12


def test_invariance_pure_gravity_and_perturbations():
    F = fixture_F()
    res = invariance_check(F, PG, 6000, make_rng(42), N=N, M=M)
    assert abs(res.rhs) < 1e-12
    assert abs(res.lhs) < 3 * res.lhs_stderr
    for params in (PG.replace(beta=0.1), PG.replace(alpha=PG.alpha + 0.2),
                   PG.replace(chi=PG.chi + 0.15), PG.replace(c=PG.c * 1.3)):
        r = invariance_check(F, params, 4000, make_rng(42), N=N, M=M)
        assert r.consistent(3.0), (params, r.lhs, r.rhs, r.z)


def test_invariance_beta_residual_formula():
    # the beta perturbation shifts the generator expectation by exactly
    # -2 pi beta sum_i mean(p_i) E[psi_i]; the beta terms are the same listed
    # terms on both sides, so with common random numbers the shift of the
    # estimate equals the closed rhs to roundoff (it reads 2e-17 against a
    # shift of 0.049; a sign error in either side's beta term reads 0.098)
    F = fixture_F()
    r0 = invariance_check(F, PG, 3000, make_rng(7), N=N, M=M)
    rb = invariance_check(F, PG.replace(beta=0.1), 3000, make_rng(7), N=N, M=M)
    assert abs(rb.rhs) > 0.04
    assert abs((rb.lhs - r0.lhs) - rb.rhs) < 1e-12


def test_invariance_guard():
    F = CylindricalFunctional([BoundaryField.basis(1, 2)],
                              ProductProfile.bumps([0.0], [2.0]))
    with pytest.raises(IntegrabilityError):
        invariance_check(F, PG, 200, make_rng(1), N=8, M=32)


def test_invariance_suite_builds_its_table_once(monkeypatch):
    """The suite's five invariance_check calls and its bulk-boundary check
    share one functional, so its covariance, its mollified profile and its
    log pairings are each built once."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    class Counted(MollifiedProfile):
        def __init__(self, *args, **kwargs):
            counts["table"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(generator, "invariance_check",
                        counted("check", generator.invariance_check))
    monkeypatch.setattr(generator, "bulk_covariance_matrix",
                        counted("covariance", generator.bulk_covariance_matrix))
    monkeypatch.setattr(generator, "MollifiedProfile", Counted)
    monkeypatch.setattr(DiskTestFunction, "log_pairing",
                        counted("log", DiskTestFunction.log_pairing))
    suites.run_suite(suites.ExperimentConfig(suite="invariance", N=8, M=32, n_samples=200,
                                             n_samples_main=200))
    assert counts == {"check": 5, "covariance": 1, "table": 1, "log": 2}


def _no_zero_mode():
    return CylindricalFunctional([BoundaryField.basis(1, 2)],
                                 ProductProfile.bumps([0.0], [2.0]))


ELL = BoundaryField.constant(0.3, 2) + 0.5 * BoundaryField.basis(2, 2)
ZERO_MODE_ESTIMATORS = {
    "invariance_check": lambda F, rng: invariance_check(F, PG, 200, rng, N=8, M=32),
    "dirichlet_form": lambda F, rng: dirichlet_form(F, F, 200, rng, N=8, M=32),
    "divergence_form_check": lambda F, rng: divergence_form_check(F, F, 200, rng,
                                                                  N=8, M=32),
    "rotational_invariance_check": lambda F, rng: rotational_invariance_check(
        ELL, F, 200, rng, N=8, M=32),
    "ibp_hdmuf_check": lambda F, rng: ibp_hdmuf_check(ELL, F, F, 200, rng, N=8, M=32),
    "ibp_potential_check": lambda F, rng: ibp_potential_check(
        ELL, BoundaryField.basis(1, 2), F, 200, rng, N=8, M=32),
    "projected_symmetric_ibp_check": lambda F, rng: projected_symmetric_ibp_check(
        [BoundaryField.basis(1, 2)], F.profile, F, 200, rng, N=8, M=32),
}


@pytest.mark.parametrize("name", sorted(ZERO_MODE_ESTIMATORS))
def test_zero_mode_estimators_raise_before_any_draw(name):
    """A functional with no nonzero-mean symbol has no localized zero-mode
    integral: every estimator raises before it draws a trace field."""
    rng = make_rng(1)
    with pytest.raises(IntegrabilityError):
        ZERO_MODE_ESTIMATORS[name](_no_zero_mode(), rng)
    assert rng.random() == make_rng(1).random()


def _two_moving_axes():
    return CylindricalFunctional([BoundaryField.constant(0.3, 2) + BoundaryField.basis(1, 2),
                                  BoundaryField.constant(0.2, 2) + BoundaryField.basis(2, 2)],
                                 ProductProfile.bumps([0.0, 0.0], [2.0, 2.0]))


@pytest.mark.parametrize("name", ["rotational_invariance_check", "ibp_potential_check"])
def test_single_block_estimators_refuse_two_moving_axes_before_any_draw(name):
    """The closed-form zero-mode integral moves one profile axis: a block
    with two nonzero-mean symbols raises MovingAxesError before any draw."""
    rng = make_rng(1)
    with pytest.raises(MovingAxesError):
        ZERO_MODE_ESTIMATORS[name](_two_moving_axes(), rng)
    assert rng.random() == make_rng(1).random()


def test_invariance_refuses_a_coupled_bulk_covariance_before_any_draw():
    """Symbols that share a mode give a bulk covariance with an off-diagonal
    entry, which the exact mollification cannot factor: invariance_check
    raises CovarianceNotDiagonalError before any draw."""
    F = CylindricalFunctional([BoundaryField.constant(1 / (2 * np.pi), 4)
                               + 0.6 * BoundaryField.basis(1, 4),
                               0.8 * BoundaryField.basis(1, 4) + 0.3 * BoundaryField.basis(2, 4)],
                              ProductProfile.bumps([0.0, 0.0], [2.0, 2.5]))
    assert abs(F.covariance[0, 1]) > 1e-3 * np.abs(np.diag(F.covariance)).max()
    rng = make_rng(1)
    with pytest.raises(CovarianceNotDiagonalError):
        invariance_check(F, PG, 200, rng, N=8, M=32)
    assert rng.random() == make_rng(1).random()


def test_dirichlet_pairs_take_a_second_functional_without_zero_mode():
    """F's block alone localizes the zero mode, so the second functional of
    the Dirichlet form and the divergence-form route needs no nonzero-mean
    symbol of its own."""
    F, D = fixture_F(), _no_zero_mode()
    res = dirichlet_form(F, D, 3000, make_rng(1), N=16, M=64)
    div = divergence_form_check(F, D, 2000, make_rng(1), N=16, M=64)
    for est in (res.forward, res.swapped, div):
        assert np.isfinite([est.lhs, est.rhs, est.stderr]).all() and est.stderr > 0.0
        assert est.consistent(3.0), (est.lhs, est.rhs, est.z)


def test_generator_bulk_vs_localized_integrand():
    F = fixture_F()
    rng = make_rng(5)
    for params in (PG, PG.replace(alpha=PG.alpha + 0.3, beta=0.05)):
        h = BoundaryField(sample_trace_batch(N, 1, rng)[0])
        v1 = invariance_local_value(F, params, h, 0.2, M=M)
        v2 = invariance_bulk_value(F, params, h, 0.2, M=M)
        assert abs(v1 - v2) < 1e-4 * max(abs(v1), abs(v2), 1e-12)


@pytest.mark.parametrize("term", ["vpair_dnh", "diffusion"])
def test_bulk_route_sees_the_estimators_terms(term, monkeypatch):
    """The localized integrand runs on the estimators' _TraceBatch, so a 1%
    error in its V-kernel term or its diffusion parts it from the bulk
    route, which shares none of their code."""
    orig = getattr(_TraceBatch, term)
    monkeypatch.setattr(_TraceBatch, term, lambda self, *a: 1.01 * orig(self, *a))
    F = fixture_F()
    rng = make_rng(5)
    for _ in range(3):
        h = BoundaryField(sample_trace_batch(N, 1, rng)[0])
        v1 = invariance_local_value(F, PG, h, 0.2, M=M)
        v2 = invariance_bulk_value(F, PG, h, 0.2, M=M)
        assert abs(v1 - v2) > 1e-4 * max(abs(v1), abs(v2))


def test_dirichlet_form_split_and_exchange():
    F, G = fixture_F(), fixture_G()
    res = dirichlet_form(F, G, 6000, make_rng(8), N=N, M=M)
    assert res.forward.consistent(3.0), (res.forward.lhs, res.forward.rhs, res.forward.z)
    assert res.swapped.consistent(3.0)
    # exchange: E(F,G) + E(G,F) = 2 sym
    exch = res.forward.lhs + res.swapped.lhs - 2 * res.sym
    assert abs(exch) < 3 * (res.forward.stderr + res.swapped.stderr)


def test_dirichlet_form_self_antisymmetry():
    F = fixture_F()
    res = dirichlet_form(F, F, 1500, make_rng(9), N=N, M=M)
    assert abs(res.antisym) < 1e-10


def test_divergence_form_route():
    F, G = fixture_F(), fixture_G()
    res = divergence_form_check(F, G, 6000, make_rng(10), N=N, M=M)
    assert res.consistent(3.0), (res.lhs, res.rhs, res.z)


# Recorded from the estimators as term tables (numpy 2.4, x86-64); the
# values before, when each estimator wrote its own integrand, are kept in
# TERM_TABLE_RECORDED.
GOLDEN_FG = (-1.4009483422519824, 5.599249063224615, 3.7373256230578975,
             3.433379202693432, -0.14072985612938296, 3.740430196718924,
             2.729259603547616, 2.869989459676999)
GOLDEN_FF = (42.752397121634395, 36.93640149929286, 3.2617986380676056,
             42.752397121634395, 36.93640149929286, 3.2617986380676056,
             36.93640149929286, -1.5036428533303394e-17)
GOLDEN_DIV = (0.2712896826928716, 0.5738594155471082, 0.8702069172567649)
# Recorded from the estimators before they shared one Monte Carlo driver and
# one integrand form (numpy 2.4, x86-64); paired results are (lhs, rhs,
# stderr, lhs_stderr, rhs_stderr), single ones (estimate, stderr).  The
# GOLDEN_INV_* triple is re-recorded on the exact mollification with the
# closed-form zero-mode integral (the 16-point Gauss-Hermite table before it
# read lhs 1.1674, 0.9669 and 1.2167 with stderr 1.3156), and GOLDEN_ROT and
# GOLDEN_POT on the closed form over the plain profile (see LADDER_RECORDED).
GOLDEN_INV_PG = (0.7982891213004858, 5.686448664907282e-17, 0.2902244923797735,
                 0.2902244923797735, 3.7066890846075165e-18)
GOLDEN_INV_ALPHA = (0.5934132165937825, -0.20487590470670328, 0.2902244923797735,
                    0.27966379054821316, 0.013354754864173363)
GOLDEN_ROT = (-0.0931233574981303, 0.21467568790128935)
GOLDEN_HDMUF = (1.831076224766168, 0.8683396856050958)
GOLDEN_POT = (-4.790052207892869, 0.175456114744748)
GOLDEN_PROJ = (0.05130019509384791, 0.0388888590345318, 0.02561397653960413,
               0.017001667783138483, 0.01940847788058585)
GOLDEN_WEIGHTED = (0.11614463948869914, 0.04818989118700455, 0.03616200784216547)
GOLDEN_DIV_REM = GOLDEN_DIV + (0.07748244707594767, 0.8677067790317843)
# At beta != 0 the beta terms are no longer exact zeros, so their order counts.
GOLDEN_INV_BETA = (0.8474515248660427, 0.049162403565557025, 0.2902244923797735,
                   0.29040959138505473, 0.0018625904065221461)
# The two plain-profile goldens as recorded while the Gauss-panel ladder
# integrated their zero mode: the closed form stays within ROUNDOFF times
# their stderr.
LADDER_RECORDED = {
    "ROT": (-0.09312335749813037, 0.21467568790128935),
    "POT": (-4.790052207892868, 0.17545611474474798),
}
# The goldens that moved when the estimators took one generator term (the
# drift and diffusion summed as L psi = sum b_j psi_j + 1/2 sum sigma_jk
# psi_jk) and one quadrature path with a trailing output axis, as recorded
# before: each re-pinned number stays within ROUNDOFF times its stderr.
ONE_GENERATOR_RECORDED = {
    "HDMUF": (1.8310762247661683, 0.8683396856050958),
}
# The two-block goldens as recorded while each estimator wrote its own
# integrand: the term tables sum the same terms grouped by the first block's
# entry, and each re-pinned number stays within ROUNDOFF times its stderr.
TERM_TABLE_RECORDED = {
    "FG": (-1.4009483422519824, 5.599249063224615, 3.7373256230578975,
           3.433379202693432, -0.14072985612938255, 3.7404301967189246,
           2.729259603547616, 2.869989459676998),
    "FF": (42.752397121634395, 36.93640149929286, 3.2617986380676056,
           42.752397121634395, 36.93640149929286, 3.2617986380676056,
           36.93640149929286, 3.9563672406870223e-19),
    "DIV": (0.2712896826928716, 0.5738594155471081, 0.8702069172567649),
    "HDMUF": (1.8310762247661676, 0.8683396856050958),
}
ROUNDOFF = 1e-12


def _near(numbers, recorded, stderr):
    return all(abs(a - b) <= ROUNDOFF * stderr for a, b in zip(numbers, recorded))


def _paired_numbers(res):
    return (res.lhs, res.rhs, res.stderr, res.lhs_stderr, res.rhs_stderr)


def _dirichlet_numbers(res):
    return (res.forward.lhs, res.forward.rhs, res.forward.stderr, res.swapped.lhs,
            res.swapped.rhs, res.swapped.stderr, res.sym, res.antisym)


def test_zero_mode_estimators_keep_their_bits():
    F, G = fixture_F(), fixture_G()
    # the batch has rows whose m-interval is empty (they integrate to zero)
    tb = _TraceBatch.draw(16, 400, make_rng(1, 20), PG.xi, 64)
    lo, hi = _m_interval((tb.bases(F.symbols), F.slopes(), F.profile),
                         (tb.bases(G.symbols), G.slopes(), G.profile))
    assert 0 < np.count_nonzero(hi <= lo) < 400
    res = dirichlet_form(F, G, 400, make_rng(1, 20), N=16, M=64)
    assert _dirichlet_numbers(res) == GOLDEN_FG
    res = dirichlet_form(F, F, 400, make_rng(1, 21), N=16, M=64)
    assert _dirichlet_numbers(res) == GOLDEN_FF
    for name, golden in (("FG", GOLDEN_FG), ("FF", GOLDEN_FF)):
        assert _near(golden, TERM_TABLE_RECORDED[name], min(golden[2], golden[5]))
    div = divergence_form_check(F, G, 400, make_rng(1, 22), N=16, M=64)
    assert (div.lhs, div.rhs, div.stderr) == GOLDEN_DIV
    assert _near(GOLDEN_DIV, TERM_TABLE_RECORDED["DIV"], GOLDEN_DIV[2])

    kw = dict(N=16, M=64)
    for params, golden in ((PG, GOLDEN_INV_PG),
                           (PG.replace(alpha=PG.alpha + 0.2), GOLDEN_INV_ALPHA),
                           (PG.replace(beta=0.1), GOLDEN_INV_BETA)):
        assert _paired_numbers(invariance_check(F, params, 400, make_rng(1, 23),
                                                **kw)) == golden
    ell = BoundaryField.basis(3, 4) + BoundaryField.constant(0.2, 4)
    assert rotational_invariance_check(ell, F, 400, make_rng(1, 24), **kw) == GOLDEN_ROT
    assert _near(GOLDEN_ROT, LADDER_RECORDED["ROT"], GOLDEN_ROT[1])
    p = 0.5 * BoundaryField.basis(1, 4) + BoundaryField.constant(0.1, 4)
    hdmuf = ibp_hdmuf_check(p, F, G, 400, make_rng(1, 25), **kw)
    assert hdmuf == GOLDEN_HDMUF
    assert _near(hdmuf, ONE_GENERATOR_RECORDED["HDMUF"], GOLDEN_HDMUF[1])
    assert _near(hdmuf, TERM_TABLE_RECORDED["HDMUF"], GOLDEN_HDMUF[1])
    ell2 = BoundaryField.constant(0.3, 2) + 0.5 * BoundaryField.basis(2, 2)
    assert ibp_potential_check(ell2, BoundaryField.constant(1.0, 2), F, 400,
                               make_rng(1, 26), c=PG.c + 0.2, **kw) == GOLDEN_POT
    assert _near(GOLDEN_POT, LADDER_RECORDED["POT"], GOLDEN_POT[1])
    P = [BoundaryField.basis(0, 2), BoundaryField.basis(1, 2), BoundaryField.basis(2, 2)]
    Fprof = ProductProfile.bumps([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
    assert _paired_numbers(projected_symmetric_ibp_check(
        P, Fprof, G, 400, make_rng(1, 27), **kw)) == GOLDEN_PROJ
    f = BoundaryField.constant(1.0, 2) + 0.3 * BoundaryField.basis(1, 2)
    # batch 150 does not divide 400: the last batch is a remainder of 100
    assert weighted_field_check(f, [BoundaryField.basis(1, 8), BoundaryField.basis(2, 8)],
                                BoundedSmoothProfile(2, 0.4), PG.xi, 16, 64, 400,
                                make_rng(1, 28), batch=150) == GOLDEN_WEIGHTED
    assert _paired_numbers(divergence_form_check(F, G, 400, make_rng(1, 22), batch=150,
                                                 **kw)) == GOLDEN_DIV_REM
    assert rotational_invariance_check(ell, F, 400, make_rng(1, 24), batch=150,
                                       **kw) == GOLDEN_ROT


# every estimator at a small configuration, on n samples.  The invariance
# table takes beta = 0.1, so that no coefficient is identically zero, and
# c x 1.3, so that its rate delta - xi is not 0 (see
# test_every_term_reaches_its_column)
TERM_ESTIMATORS = {
    "invariance_check": lambda n=50: invariance_check(
        fixture_F(), PG.replace(beta=0.1, c=1.3 * PG.c), n, make_rng(3), N=8, M=32),
    "dirichlet_form": lambda n=50: dirichlet_form(fixture_F(), fixture_G(), n,
                                                  make_rng(3), N=8, M=32),
    "divergence_form_check": lambda n=50: divergence_form_check(
        fixture_F(), fixture_G(), n, make_rng(3), N=8, M=32),
    "rotational_invariance_check": lambda n=50: rotational_invariance_check(
        BoundaryField.basis(3, 4) + BoundaryField.constant(0.2, 4), fixture_F(), n,
        make_rng(3), N=8, M=32),
    "ibp_hdmuf_check": lambda n=50: ibp_hdmuf_check(
        0.5 * BoundaryField.basis(1, 4) + BoundaryField.constant(0.1, 4), fixture_F(),
        fixture_G(), n, make_rng(3), N=8, M=32),
    "ibp_potential_check": lambda n=50: ibp_potential_check(
        ELL, BoundaryField.constant(1.0, 2) + 0.5 * BoundaryField.basis(2, 2), fixture_F(),
        n, make_rng(3), N=8, M=32),
    "projected_symmetric_ibp_check": lambda n=50: projected_symmetric_ibp_check(
        [BoundaryField.basis(k, 2) for k in range(3)],
        ProductProfile.bumps([0.0, 0.0, 0.0], [2.0, 2.0, 2.0]), fixture_G(), n,
        make_rng(3), N=8, M=32),
}


@pytest.mark.parametrize("name", sorted(TERM_ESTIMATORS))
def test_every_term_reaches_its_column(name, monkeypatch):
    """Doubling any one listed term of an estimator moves the per-sample
    rows of that term's column; on the closed-form route no other column
    moves by a bit (the Gauss ladder's stopping test reads every column).

    One exception, on the closed-form route: at rate 0 a derivative along
    the moving axis integrates to exactly zero along the line, so such a
    term keeps its column's bits.  The rate delta - xi is 0.0 at pure
    gravity, where the rotation and potential estimators are fixed.
    """
    seen = []        # (route, arguments, rows) of every route call
    routes = {route: getattr(generator, route) for route in ("_line_rows", "_zero_mode_rows")}

    def wrap(route, scaled):
        orig = routes[route]
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            ba = sig.bind(*args, **kwargs)
            terms = list(ba.arguments["terms"])
            if scaled is not None:
                col, coef, keys = terms[scaled]
                terms[scaled] = (col, lambda tb: 2.0 * coef(tb), keys)
            ba.arguments["terms"] = terms
            rows = orig(*ba.args, **ba.kwargs)
            seen.append((route, ba.arguments, rows))
            return rows

        monkeypatch.setattr(generator, route, wrapper)

    def run(scaled=None):
        seen.clear()
        for route in routes:
            wrap(route, scaled)
        TERM_ESTIMATORS[name]()
        assert len(seen) == 1
        return seen[0]

    route, args, base = run()
    terms = args["terms"]
    assert len(terms) > 1
    for t, (col, _, keys) in enumerate(terms):
        rows = run(t)[2]
        if route == "_zero_mode_rows":
            assert not np.array_equal(rows[:, col], base[:, col]), (t, keys)
            continue
        rate, key = keys
        axis = int(np.flatnonzero([p.integral() for p in args["symbols"]])[0])
        vanishes = rate == 0.0 and axis in key[1:]
        assert np.array_equal(rows[:, col], base[:, col]) == vanishes, (t, keys)
        others = np.arange(rows.shape[1]) != col
        assert np.array_equal(rows[:, others], base[:, others]), (t, keys)


@pytest.mark.parametrize("name", ["dirichlet_form", "divergence_form_check",
                                  "ibp_hdmuf_check", "projected_symmetric_ibp_check"])
def test_gauss_panel_rows_match_a_finer_rule(name, monkeypatch):
    """The two-block estimators integrate their zero modes by one fixed rule,
    64 panels of 16 nodes, with no convergence check at run time.  Their
    per-sample rows agree with a 128-panel rule within 1e-12 of each
    column's largest |value| (64 panels: 3e-14 at most).  At 32 panels the
    dirichlet_form and divergence_form_check rows miss it, by 1e-11 and
    2e-12."""
    seen = []
    zero_mode_rows = generator._zero_mode_rows

    def recorded(*args, **kwargs):
        seen.append(zero_mode_rows(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(generator, "_zero_mode_rows", recorded)
    TERM_ESTIMATORS[name](200)
    rows = list(seen)
    seen.clear()
    gauss = generator.batched_gauss_panels
    monkeypatch.setattr(generator, "batched_gauss_panels", lambda fn, a, b, **kw: gauss(
        fn, a, b, **dict(kw, start_panels=128, max_panels=128)))
    TERM_ESTIMATORS[name](200)
    assert len(rows) == len(seen) > 0
    for got, ref in zip(rows, seen):
        assert got.shape == ref.shape and got.shape[0] == 200
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref).max(axis=0))
        assert not np.array_equal(got, ref)


def test_integrate_live_skips_dead_rows():
    rng = np.random.default_rng(4)
    lo = rng.uniform(-1.0, 0.0, 12)
    hi = lo + rng.uniform(0.5, 2.0, 12)
    hi[[1, 5, 6, 11]] = lo[[1, 5, 6, 11]]          # empty intervals
    lo[0] = hi[0] = 0.0
    coef = rng.standard_normal(12)
    seen = []

    def fn(m, coef):
        seen.append(m.shape[0])
        v = coef[:, None] * np.exp(-m * m)
        return np.stack([v, v * m], axis=-1)

    out = _integrate_live(fn, [coef], lo, hi, 2)
    live = hi > lo
    assert set(seen) == {7}
    assert np.all(out[~live] == 0.0)
    # live rows get the bits of integrating them on their own
    ref = batched_gauss_panels(lambda m: fn(m, coef[live]), lo[live], hi[live],
                               start_panels=64)
    assert np.array_equal(out[live], ref)

    def never(m, *rows):
        raise AssertionError("integrand called on an all-dead batch")

    zero = np.zeros(5)
    assert np.array_equal(_integrate_live(never, [coef[:5]], zero, zero, 3),
                          np.zeros((5, 3)))
    assert np.array_equal(_integrate_live(never, [coef[:5]], zero, zero, 1),
                          np.zeros((5, 1)))


@pytest.mark.parametrize("n_out", [1, 4])
def test_zero_mode_blocks_keep_their_bits(monkeypatch, n_out):
    """Row blocks of one row, of three rows with a remainder, and of every
    row give the bits of one block on the Gauss-panel path; fn never sees
    more rows than _BLOCK_NODES allows, nor a dead row."""
    rng = np.random.default_rng(8)
    powers = np.arange(n_out)
    seen = []          # (rows, nodes per row) of every call of fn

    def fits(m):
        assert m.shape[0] <= max(1, generator._BLOCK_NODES // m[0].size)
        seen.append((m.shape[0], m[0].size))

    # Gauss panels: 8 live rows of 11; the dead rows carry NaN
    lo = rng.uniform(-1.0, 0.0, 11)
    hi = lo + rng.uniform(0.5, 2.0, 11)
    dead = [2, 7, 9]
    hi[dead] = lo[dead]
    coef = rng.standard_normal(11)
    coef[dead] = np.nan

    def gauss_fn(m, coef):
        fits(m)
        assert not np.isnan(coef).any()
        return (coef[:, None] * np.exp(-m * m))[..., None] * m[..., None] ** powers

    def run():
        return _integrate_live(gauss_fn, [coef], lo, hi, n_out)

    rows = 8
    monkeypatch.setattr(generator, "_BLOCK_NODES", 2 ** 62)
    seen.clear()
    one = run()
    assert one.shape[1] == n_out and np.all(np.isfinite(one))
    assert {r for r, _ in seen} == {rows}
    first = seen[0][1]
    for per_block, blocks in [(1, [1] * rows), (3, [3] * (rows // 3) + [rows % 3]),
                              (rows, [rows])]:
        monkeypatch.setattr(generator, "_BLOCK_NODES", per_block * first)
        seen.clear()
        assert np.array_equal(run(), one)
        assert [r for r, n in seen if n == first] == blocks


# the two zero-mode routes: Gauss panels on the live rows of a plain profile
# (_zero_mode_rows), and the closed form along the line for a mollified one
# (_line_rows)
BUMP = ProductProfile.bumps([0.5], [1.0])
ZERO_MODE_PROFILES = {
    "gauss_panels": lambda: BUMP,
    "closed_form": lambda: MollifiedProfile(BUMP, np.array([[0.1]])),
}


def _line_integral(profile, delta):
    """int e^{delta u} psi(u) du by adaptive quadrature, broken at the bump's
    plateau edges (the mollified profile is smooth, so its breaks are only
    where the bump's are)."""
    from scipy.integrate import quad
    f = BUMP.factors[0]
    knots = np.array([f.lo - 4.0, f.lo, f.lo + f.rise, f.hi - f.rise, f.hi, f.hi + 4.0])
    return sum(quad(lambda u: np.exp(delta * u) * profile.value(np.array([[u]]))[0],
                    a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
               for a, b in zip(knots[:-1], knots[1:]))


def _sigma_finite_rows(p, profile, delta, n_samples, rng):
    """Per-sample int e^{delta m} psi(<h0, p> + m int p) dm through the
    suites' zero-mode routes."""
    if isinstance(profile, MollifiedProfile):
        return _line_rows([p], profile, 0.0, [(0, lambda tb: 1.0, (delta, ("v",)))],
                          n_samples, rng, PG.xi, 8, 32, 4096)[:, 0]
    return _zero_mode_rows([([p], profile)], [(0, lambda tb: 1.0, (("v",),))], delta,
                           n_samples, rng, PG.xi, 8, 32, 4096)[:, 0]


@pytest.mark.parametrize("path", sorted(ZERO_MODE_PROFILES))
def test_zero_mode_engine_matches_the_sigma_finite_closed_form(path):
    """p = 1/(2 pi) + e_1 pairs h0 + m to X + m with X ~ N(0, 2 pi), so
    E int e^{delta m} psi(X + m) dm = e^{delta^2 pi} int e^{delta u} psi(u) du."""
    profile, delta = ZERO_MODE_PROFILES[path](), 0.3
    p = BoundaryField.constant(1.0 / (2 * np.pi), 4) + BoundaryField.basis(1, 4)
    assert abs(p.integral() - 1.0) < 1e-12
    est, se = mean_stderr(_sigma_finite_rows(p, profile, delta, 20000, make_rng(5)))
    exact = np.exp(delta ** 2 * np.pi) * _line_integral(profile, delta)
    assert abs(est - exact) < 3 * se, (est, exact, se)


@pytest.mark.parametrize("path", sorted(ZERO_MODE_PROFILES))
def test_zero_mode_engine_constant_symbol_is_the_line_integral(path):
    # a constant symbol pairs every sample to m itself, so each sample's
    # zero-mode integral is the same one-dimensional integral
    profile, delta = ZERO_MODE_PROFILES[path](), 0.3
    rows = _sigma_finite_rows(BoundaryField.constant(1.0 / (2 * np.pi), 2), profile,
                              delta, 50, make_rng(7))
    ref = _line_integral(profile, delta)
    assert np.abs(rows - ref).max() < 1e-8 * ref


def test_rotational_invariance():
    F = fixture_F()
    ell = BoundaryField.basis(3, 4) + BoundaryField.constant(0.2, 4)
    est, se = rotational_invariance_check(ell, F, 6000, make_rng(11), N=N, M=M)
    assert abs(est) < 3 * se
    # constant ell: the tangential term vanishes identically and the
    # conjugate-gradient term vanishes in expectation
    const = BoundaryField.constant(1.0, 2)
    assert np.abs(const.tangential_derivative().coeffs).max() == 0.0
    est0, se0 = rotational_invariance_check(const, F, 6000, make_rng(12), N=8, M=64)
    assert abs(est0) < 3 * se0


def test_ibp_hdmuf():
    F, G = fixture_F(), fixture_G()
    p = 0.5 * BoundaryField.basis(1, 4) + BoundaryField.constant(0.1, 4)
    est, se = ibp_hdmuf_check(p, F, G, 6000, make_rng(13), N=N, M=M)
    assert abs(est) < 3 * se
    # a symbol with vanishing adjoint data degenerates to zero identically
    est0, se0 = ibp_hdmuf_check(BoundaryField.zeros(2), F, G, 500, make_rng(14),
                                N=8, M=64)
    assert abs(est0) < 1e-12


def test_ibp_potential_and_c_slope():
    F = fixture_F()
    ell = BoundaryField.constant(0.3, 2) + 0.5 * BoundaryField.basis(2, 2)
    k = BoundaryField.basis(1, 2)
    est, se = ibp_potential_check(ell, k, F, 6000, make_rng(15), N=N, M=M)
    assert abs(est) < 3 * se
    # residual is linear in the potential's mean-slope parameter:
    # slope = -int k dl * E[(int ell dmu) phi]; k mean-zero kills it
    est2, se2 = ibp_potential_check(ell, k, F, 6000, make_rng(15),
                                    c=PG.c + 0.2, N=N, M=M)
    assert abs(est2 - est) < 3 * np.hypot(se, se2) + 1e-9
    k2 = BoundaryField.constant(1.0, 2)
    r_base, se_b = ibp_potential_check(ell, k2, F, 6000, make_rng(16), N=N, M=M)
    r_pert, se_p = ibp_potential_check(ell, k2, F, 6000, make_rng(16),
                                       c=PG.c + 0.2, N=N, M=M)
    # shift = -(c_pert - c) * int k dl * E[(int ell dmu) phi] is nonzero here
    assert abs(r_pert - r_base) > 5 * np.hypot(se_b, se_p)


def test_qle_drift_compare():
    rng = make_rng(17)
    p = BoundaryField(np.random.default_rng(3).standard_normal(9)) * 0.4
    h = BoundaryField(sample_trace_batch(N, 1, rng)[0])
    nu = CircleMeasure(np.exp(0.3 * np.cos(grid_angles(M))))
    nu = nu * (1.0 / nu.total_mass)
    out = qle_drift_compare(p, realize_symbol(p), h, nu)
    assert out["residual"] < 1e-4
    # mean-zero symbol: zero offset, exact agreement
    p0 = p - BoundaryField.constant(p.mean(), 1)
    out0 = qle_drift_compare(p0, realize_symbol(p0), h, nu)
    assert out0["zero_mode_offset"] < 1e-12
    assert out0["residual"] < 1e-4
    # radial test function: the normal-derivative term vanishes on both sides
    pr = BoundaryField.constant(0.4, 2)
    outr = qle_drift_compare(pr, realize_symbol(pr), h, nu)
    assert outr["residual"] < 1e-4
    with pytest.raises(ValueError):
        qle_drift_compare(p, realize_symbol(p), h, CircleMeasure.uniform(2.0, M))


def test_projection_covariance_identity():
    P = [BoundaryField.basis(1, 2), BoundaryField.basis(2, 2)]
    assert projection_covariance_identity(P, N=N, M=M) < 1e-10
    # S_2 for the first harmonic pair is the constant 1/pi
    s2 = sum(p.values(M) ** 2 for p in P)
    assert np.abs(s2 - 1 / np.pi).max() < 1e-12


def test_projected_symmetric_ibp():
    P = [BoundaryField.basis(0, 2), BoundaryField.basis(1, 2), BoundaryField.basis(2, 2)]
    Fprof = ProductProfile.bumps([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
    G = fixture_G()
    res = projected_symmetric_ibp_check(P, Fprof, G, 6000, make_rng(18), N=N, M=M)
    assert res.consistent(3.0), (res.lhs, res.rhs, res.z)
    with pytest.raises(ValueError):
        projected_symmetric_ibp_check([BoundaryField.basis(1, 2) * 2.0], Fprof,
                                      G, 100, make_rng(19), N=8, M=32)


def test_projected_ibp_zero_mode_only():
    # P = {e_0} isolates the zero-mode block: the identity reduces to the
    # explicit zero-mode integration by parts, which the per-sample
    # quadrature satisfies almost exactly (the paired stderr collapses,
    # so gate with an absolute floor as well)
    P = [BoundaryField.basis(0, 1)]
    Fprof = ProductProfile.bumps([0.0], [2.5])
    G = fixture_G()
    res = projected_symmetric_ibp_check(P, Fprof, G, 6000, make_rng(20), N=N, M=M)
    assert abs(res.lhs - res.rhs) < 3 * res.stderr + 1e-7 * max(abs(res.lhs), 1.0)


def test_derivative_martingale_identity():
    for seed, n in [(1, 1), (2, 8)]:
        assert derivative_martingale_identity(n, 1 / np.sqrt(6), make_rng(seed)) < 1e-10
    # xi = 0 reduces to the plain normal-derivative factor
    assert derivative_martingale_identity(4, 1e-14, make_rng(3)) < 1e-10


def test_second_moment_divergence_monitor():
    growth = truncated_second_moment_growth(32, 1 / np.sqrt(6),
                                            BoundaryField.constant(1.0, 2),
                                            [2, 8, 32], M=M)
    assert growth[0] < growth[1] < growth[2]
    assert growth[2] > 10 * growth[0]
