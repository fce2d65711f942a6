import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from growthlab.disk import DiskTestFunction, bump, realize_symbol
from growthlab.quadrature import (annulus_grid, batched_gauss_panels,
                                  green_pair_modes, integrate_polar, legendre_rule)
from growthlab.spectral import BoundaryField


def test_legendre_rule_is_cached_read_only_and_exact():
    for n in (4, 16, 40):
        x, w = legendre_rule(n)
        ref_x, ref_w = leggauss(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert legendre_rule(n)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_batched_gauss_panels_matches_antiderivative():
    a = np.array([0.0, 0.0, 1.0, 0.0, 2.0])
    b = np.array([1.0, 2.0, 1.0, 3.0, 4.0])     # third row empty
    f = lambda m: np.sin(3 * m) + m ** 2
    F = lambda m: -np.cos(3 * m) / 3 + m ** 3 / 3
    out = batched_gauss_panels(f, a, b)
    exact = F(b) - F(a)
    assert out[2] == 0.0
    assert np.abs(out - exact).max() < 1e-10 * np.abs(exact).max()
    # several integrands on shared nodes
    both = batched_gauss_panels(lambda m: np.stack([f(m), np.exp(m)], axis=-1), a, b)
    assert np.array_equal(both[2], [0.0, 0.0])
    assert np.abs(both[:, 1] - (np.exp(b) - np.exp(a))).max() < 1e-8 * np.exp(4.0)


def test_batched_gauss_panels_matches_simpson():
    from scipy.integrate import simpson
    a = np.zeros(4)
    b = np.array([1.0, 2.0, 0.5, 3.0])
    f = lambda m: np.sin(3 * m) + m ** 2
    out = batched_gauss_panels(f, a, b)
    ref = np.array([simpson(f(x), x=x) for x in np.linspace(a, b, 2001, axis=-1)])
    assert np.abs(out - ref).max() < 1e-7 * np.abs(ref).max()


def test_bump_derivative_matches_fd():
    R = bump(0.3, 0.7)
    r = np.linspace(0.31, 0.69, 41)
    fd = (R(r + 1e-7) - R(r - 1e-7)) / 2e-7
    assert np.abs(fd - R.deriv(r)).max() < 1e-5
    assert R(np.array([0.2, 0.8, 0.3, 0.7])).max() == 0.0


def test_radial_bump_adjoint_is_constant():
    R = bump(0.3, 0.7)
    f = DiskTestFunction.separable(R.scaled(1.0 / (R.moment(1) * 2 * np.pi)),
                                   BoundaryField.constant(1.0))
    assert abs(f.integral() - 1.0) < 1e-12
    p = f.poisson_adjoint()
    assert abs(p.mean() - 1.0 / (2 * np.pi)) < 1e-12
    assert np.abs(p.coeffs[1:]).max() < 1e-14


def test_angular_bump_adjoint_via_radial_moment():
    R = bump(0.35, 0.8)
    f = DiskTestFunction.separable(R, BoundaryField.basis(1, 2))
    p = f.poisson_adjoint()
    # coefficient of e_1 is the radial moment against r^2
    assert abs(p.coeffs[1] - R.moment(2)) < 1e-12


def test_adjoint_duality_and_mass():
    rng = np.random.default_rng(1)
    f = DiskTestFunction.separable(bump(0.35, 0.8), BoundaryField(rng.standard_normal(9)))
    q = BoundaryField(rng.standard_normal(9))
    lhs = f.poisson_adjoint().l2_inner(q)
    rhs = integrate_polar(
        lambda r, th: f.eval_polar(r, th) * q.harmonic_extend(r * np.exp(1j * th)),
        *f.support, nr=48, M=64)
    assert abs(lhs - rhs) < 1e-8
    assert abs(f.poisson_adjoint().integral() - f.integral()) < 1e-12


def test_realize_symbol_roundtrip():
    rng = np.random.default_rng(7)
    p = BoundaryField(rng.standard_normal(11))
    f = realize_symbol(p)
    assert np.abs(f.poisson_adjoint().coeffs - p.coeffs).max() < 1e-12


def test_dz_matches_finite_difference():
    rng = np.random.default_rng(3)
    f = DiskTestFunction.separable(bump(0.3, 0.8), BoundaryField(rng.standard_normal(7)))
    z0 = 0.5 * np.exp(0.7j)
    eps = 1e-6
    fx = (f.eval_z(np.array([z0 + eps])) - f.eval_z(np.array([z0 - eps]))) / (2 * eps)
    fy = (f.eval_z(np.array([z0 + 1j * eps])) - f.eval_z(np.array([z0 - 1j * eps]))) / (2 * eps)
    fd = 0.5 * (fx - 1j * fy)
    dz = f.dz(np.array([abs(z0)]), np.array([np.angle(z0)]))
    assert abs(fd[0] - dz[0]) < 1e-6


def test_green_pair_matches_brute_force_disjoint_supports():
    rng = np.random.default_rng(4)
    fa = DiskTestFunction.separable(bump(0.2, 0.4), BoundaryField(rng.standard_normal(5)))
    fb = DiskTestFunction.separable(bump(0.5, 0.8), BoundaryField(rng.standard_normal(5)))
    K = 2
    gp = green_pair_modes(lambda r: fa.angular_modes(r, K), fa.support,
                          lambda r: fb.angular_modes(r, K), fb.support, K)
    r1, w1, th1, wt1 = annulus_grid(*fa.support, 32, 64)
    r2, w2, th2, wt2 = annulus_grid(*fb.support, 32, 64)
    z1 = (r1[:, None] * np.exp(1j * th1[None, :])).ravel()
    z2 = (r2[:, None] * np.exp(1j * th2[None, :])).ravel()
    va = (fa.eval_polar(r1[:, None], th1[None, :]) * w1[:, None] * wt1).ravel()
    vb = (fb.eval_polar(r2[:, None], th2[None, :]) * w2[:, None] * wt2).ravel()
    G = np.log(np.abs((z1[:, None] - z2[None, :])
                      / (1 - z1[:, None] * np.conj(z2[None, :])))) / (2 * np.pi)
    brute = va @ G @ vb
    assert abs(gp - brute) < 1e-8


def test_radial_green_pair_matches_log_kernel_oracle():
    # fully radial pairing reduces to the log max(r1, r2) kernel; the
    # oracle nests adaptive quadratures with the kink split at r1 = r2
    from scipy.integrate import quad

    R = bump(0.3, 0.7)
    f = DiskTestFunction.separable(R, BoundaryField.constant(1.0))
    gp = green_pair_modes(lambda r: f.angular_modes(r, 1), f.support,
                          lambda r: f.angular_modes(r, 1), f.support, 1)

    def inner(r2):
        v, _ = quad(lambda r1: R(np.array([r1]))[0] * r1, 0.3, r2)
        return v

    def outer(r2):
        return R(np.array([r2]))[0] * r2 * np.log(r2) * inner(r2)

    half, _ = quad(outer, 0.3, 0.7, limit=100)
    oracle = 2.0 * half * (2 * np.pi) ** 2 / (2 * np.pi)
    assert abs(gp - oracle) < 1e-9
