import numpy as np
import pytest

from growthlab.disk import DiskTestFunction, bump
from growthlab.fields import (CouplingParams, batch_values, bulk_covariance_matrix,
                              cameron_martin_check, gaussian_identity_check,
                              green_dirichlet, m_support, sample_trace_batch,
                              tilde_shift_check, truncated_boundary_covariance)
from growthlab.profiles import BoundedSmoothProfile, ProductProfile
from growthlab.rng import make_rng
from growthlab.spectral import BoundaryField

XI = 1.0 / np.sqrt(6.0)


def test_coupling_params_pure_gravity():
    pg = CouplingParams.pure_gravity()
    assert max(abs(r) for r in pg.invariance_residuals()) < 1e-12
    assert abs(pg.gamma ** 2 - 8.0 / 3.0) < 1e-14
    assert abs(pg.Q - 5.0 / np.sqrt(6.0)) < 1e-14
    assert abs(pg.zero_mode_weight - pg.xi) < 1e-14
    assert max(abs(r) for r in pg.replace(beta=0.2).invariance_residuals()) >= 1e-12


def test_coupling_params_validation():
    with pytest.raises(ValueError):
        CouplingParams(xi=0.4, gamma=1.0, Q=1.0, alpha=0.0, chi=0.0, beta=0.0,
                       c=0.0, omega=0.0)


def test_mode_variances():
    rng = make_rng(1)
    c = sample_trace_batch(8, 60000, rng)
    # Var <h0, e_1> = 2 pi, Var <h0, e_3> = pi, within 3 stderr
    for k, target in [(1, 2 * np.pi), (3, np.pi)]:
        v = c[:, k].var(ddof=1)
        se = target * np.sqrt(2.0 / (c.shape[0] - 1))
        assert abs(v - target) < 3 * se
    # independence across modes
    cov = (c[:, 1] * c[:, 3]).mean()
    assert abs(cov) < 3 * np.sqrt(2 * np.pi * np.pi / c.shape[0])


def test_degenerate_degree_one_sample():
    rng = make_rng(2)
    c = sample_trace_batch(1, 30000, rng)
    assert c.shape[1] == 3
    for k in (1, 2):
        v = c[:, k].var(ddof=1)
        assert abs(v - 2 * np.pi) < 3 * 2 * np.pi * np.sqrt(2.0 / c.shape[0])


def test_empirical_covariance_matches_truncated_kernel():
    rng = make_rng(3)
    N, M, n = 16, 64, 80000
    c = sample_trace_batch(N, n, rng)
    vals = batch_values(c, M)
    dtheta = 2 * np.pi * 10 / M
    emp = (vals[:, 0] * vals[:, 10]).mean()
    se = (vals[:, 0] * vals[:, 10]).std(ddof=1) / np.sqrt(n)
    exact = truncated_boundary_covariance(N, dtheta)
    assert abs(emp - exact) < 3 * se


def test_kernels_relations():
    z1, z2 = 0.3 + 0.2j, -0.1 + 0.5j
    assert abs(green_dirichlet(z1, z2) - green_dirichlet(z2, z1)) < 1e-15
    # Dirichlet kernel vanishes at the boundary
    for r in (0.9, 0.99, 0.999):
        assert abs(green_dirichlet(z1, r * np.exp(0.3j))) < abs(green_dirichlet(z1, 0.5))


def test_bulk_covariance_psd_and_disjoint_sign():
    rng = np.random.default_rng(5)
    f1 = DiskTestFunction.separable(bump(0.2, 0.4), BoundaryField.constant(1.0, 2))
    f2 = DiskTestFunction.separable(bump(0.5, 0.8), BoundaryField.constant(1.0, 2))
    sigma = bulk_covariance_matrix([f1, f2])
    assert np.all(np.linalg.eigvalsh(sigma) > -1e-10)
    assert sigma[0, 0] > 0 and sigma[1, 1] > 0
    # the zero-boundary kernel is pointwise positive, so positive test
    # functions are positively correlated
    assert sigma[0, 1] > 0
    assert abs(sigma[0, 1] - sigma[1, 0]) < 1e-15
    # cross-entry against independent Monte Carlo over the covariance model
    rng = np.random.default_rng(0)
    mc = _mc_pairing_cov(f1, f2, rng, 4000)
    assert abs(mc - sigma[0, 1]) < 0.15 * abs(sigma[0, 1]) + 1e-4


def _mc_pairing_cov(f1, f2, rng, n):
    """Monte Carlo covariance of the pairings via the explicit kernel at
    sampled quadrature nodes (independent of the mode-reduction route)."""
    from growthlab.quadrature import annulus_grid

    r1, w1, th1, wt1 = annulus_grid(*f1.support, 24, 48)
    r2, w2, th2, wt2 = annulus_grid(*f2.support, 24, 48)
    z1 = (r1[:, None] * np.exp(1j * th1[None, :])).ravel()
    z2 = (r2[:, None] * np.exp(1j * th2[None, :])).ravel()
    va = (f1.eval_polar(r1[:, None], th1[None, :]) * w1[:, None] * wt1).ravel()
    vb = (f2.eval_polar(r2[:, None], th2[None, :]) * w2[:, None] * wt2).ravel()
    gd = green_dirichlet(z1[:, None], z2[None, :])
    return va @ gd @ vb


@pytest.mark.parametrize("which,cov", [
    ("IBP1", np.array([[1.0, 0.3], [0.3, 2.0]])),
    ("IBP2", np.eye(3) + 0.2),
    ("CM1", np.array([[1.0, 0.4], [0.4, 1.0]])),
    ("CM2", 0.8 * np.eye(4) + 0.15),
    ("CM3", 0.8 * np.eye(4) + 0.15),
])
def test_gaussian_identities(which, cov):
    lhs, rhs, se = gaussian_identity_check(which, cov, 200000, make_rng(11))
    assert abs(lhs - rhs) < 3 * se


def test_gaussian_ibp2_is_not_vacuous():
    """At the appendix suite's covariance and 20,000 draws, the rhs of IBP2
    is far from 0 (Gauss-Hermite gives 0.05415 on both sides), so the gate
    can see a wrong rhs."""
    lhs, rhs, se = gaussian_identity_check("IBP2", np.eye(3) + 0.2, 20000, make_rng(1, 41))
    assert abs(rhs) >= 1e-2 and abs(rhs) >= 4 * se
    assert abs(lhs - rhs) < 3 * se


def test_gaussian_identity_degenerate_and_errors():
    # degenerate second variable: both sides vanish in expectation
    cov = np.zeros((2, 2))
    cov[0, 0] = 1.0
    lhs, rhs, se = gaussian_identity_check("CM1", cov, 5000, make_rng(1))
    assert rhs == 0.0 and abs(lhs) < 3 * se
    with pytest.raises(ValueError):
        gaussian_identity_check("CM1", np.array([[1.0, 2.0], [2.0, 1.0]]), 100, make_rng(1))
    with pytest.raises(ValueError):
        gaussian_identity_check("nope", np.eye(2), 100, make_rng(1))


def test_m_support_intersection():
    base = np.array([[0.0, 5.0]])
    lo, hi = m_support([(base, np.array([1.0, 0.0]), [(-1.0, 1.0), (-6.0, 6.0)])])
    assert lo[0] == -1.0 and hi[0] == 1.0
    # dead row: slope-free coordinate outside its box
    base2 = np.array([[0.0, 50.0]])
    lo2, hi2 = m_support([(base2, np.array([1.0, 0.0]), [(-1.0, 1.0), (-6.0, 6.0)])])
    assert hi2[0] - lo2[0] == 0.0


def test_cameron_martin_shift():
    prof = BoundedSmoothProfile(2, scale=0.3)
    symbols = [BoundaryField.basis(1, 4), BoundaryField.basis(4, 4)]
    p = 0.7 * BoundaryField.basis(1, 4) + 0.4 * BoundaryField.basis(3, 4)
    lhs, rhs, se = cameron_martin_check(symbols, prof, p, 0.5, 16, 60000, make_rng(9))
    assert abs(lhs - rhs) < 3 * se


def test_tilde_shift_identity():
    rng = make_rng(10)
    h = BoundaryField(sample_trace_batch(32, 1, rng)[0])
    prof = ProductProfile.bumps([0.0, 0.0], [3.0, 3.0])
    symbols = [BoundaryField.basis(1, 4),
               0.5 * BoundaryField.basis(3, 4) + 0.2 * BoundaryField.basis(2, 4)]
    resid = tilde_shift_check(symbols, prof, h, XI)
    assert resid < 1e-8

