import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab.disk import DiskTestFunction, bump
from growthlab.fields import sample_trace_batch
from growthlab.gmc import CircleMeasure, chaos_measure
from growthlab.kernels import (boundary_localization_suite, contract_left,
                               contraction_suite, dmu,
                               finite_rank_truncation, kernel_u_check, kernel_v,
                               loewner_field, loewner_field_deriv,
                               loewner_field_polar, operator_a,
                               sign_formula_residual, vkernel_pair_dnh)
from growthlab.quadrature import integrate_polar
from growthlab.rng import make_rng
from growthlab.spectral import BoundaryField, grid_angles

XI = 1.0 / np.sqrt(6.0)


def gmc_measure(seed=11, N=64, M=256):
    h = BoundaryField(sample_trace_batch(N, 1, make_rng(seed))[0])
    return chaos_measure(h, -1, XI, M), h


def test_loewner_field_uniform_residue():
    mu = CircleMeasure.uniform(1.0, 256)
    val = loewner_field(mu, np.array([0.5 + 0j]))[0]
    assert abs(val - 0.5) < 1e-12
    assert abs(loewner_field(CircleMeasure(np.zeros(256)), np.array([0.4 + 0j]))[0]) == 0.0


def test_loewner_field_rotation_equivariance():
    mu, _ = gmc_measure()
    shift = 7
    alpha = 2 * np.pi * shift / mu.M
    z = 0.4 + 0.3j
    lhs = loewner_field(mu.rotate(shift), np.array([z * np.exp(1j * alpha)]))[0]
    rhs = np.exp(1j * alpha) * loewner_field(mu, np.array([z]))[0]
    assert abs(lhs - rhs) < 1e-10


def test_loewner_field_guard():
    mu = CircleMeasure.uniform(1.0, 64)
    with pytest.raises(ValueError):
        loewner_field(mu, np.array([0.999 + 0j]))


def test_polar_fast_path_matches_quadrature():
    mu, _ = gmc_measure()
    r = np.linspace(0.3, 0.75, 5)
    L, L1 = loewner_field_polar(mu, r)
    th = grid_angles(mu.M)
    z = r[:, None] * np.exp(1j * th[None, :])
    assert np.abs(L - loewner_field(mu, z)).max() < 1e-12
    assert np.abs(L1 - loewner_field_deriv(mu, z)).max() < 1e-11


def test_dmu_uniform_radial_flow_oracle():
    # uniform driving: the flow is radial scaling, so the transport
    # derivative of a radial f against it is r f' + 2 f
    R = bump(0.3, 0.7)
    f = DiskTestFunction.separable(R, BoundaryField.constant(1.0))
    mu = CircleMeasure.uniform(1.0, 256)
    r = np.linspace(0.32, 0.68, 7)[:, None]
    th = np.linspace(0.0, 6.0, 5)[None, :]
    vals = dmu(f, mu, r, th)
    target = 2 * R(r) + r * R.deriv(r)
    assert np.abs(vals - target * np.ones_like(th)).max() < 1e-12
    # finite-difference of the scaled pullback f(e^{-t} z) e^{-2t}
    t = 1e-5
    fd = (f.eval_polar(r * np.exp(-t), th) * np.exp(-2 * t)
          - f.eval_polar(r * np.exp(t), th) * np.exp(2 * t)) / (2 * t)
    assert np.abs(vals + fd).max() < 1e-8


def test_dmu_routes_and_zero_mean():
    mu, _ = gmc_measure(13)
    rng = np.random.default_rng(3)
    f = DiskTestFunction.separable(bump(0.3, 0.6), BoundaryField(rng.standard_normal(7)))
    r = np.linspace(0.35, 0.55, 4)[:, None]
    th = np.linspace(0.0, 6.0, 5)[None, :]
    assert np.abs(dmu(f, mu, r, th, "split") - dmu(f, mu, r, th, "combined")).max() < 1e-8
    total = integrate_polar(lambda rr, tt: dmu(f, mu, rr, tt), *f.support, nr=48, M=256)
    assert abs(total) < 1e-7
    assert np.abs(dmu(f, CircleMeasure(np.zeros(mu.M)), r, th)).max() == 0.0


def test_kernel_v_cosine_example():
    p = BoundaryField.basis(1, 8)
    V = kernel_v(p, 64).values
    th = grid_angles(64)
    target = (np.cos(th)[:, None] + np.cos(th)[None, :]) / np.sqrt(np.pi)
    assert np.abs(V - target).max() < 1e-12


def test_kernel_v_symmetry_and_diagonal():
    rng = np.random.default_rng(5)
    p = BoundaryField(rng.standard_normal(13))
    K = kernel_v(p, 128)
    assert np.abs(K.values - K.values.T).max() < 1e-10
    assert np.abs(np.diag(K.values) + 2 * p.dirichlet_to_neumann().values(128)).max() < 1e-12


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_contraction_suite_random(seed):
    rng = np.random.default_rng(seed)
    p = BoundaryField(rng.standard_normal(11))
    q = BoundaryField(rng.standard_normal(13))
    suite = contraction_suite(p, q)
    for key, resid in suite.items():
        assert resid < 1e-8, key


def test_antisymmetry_self_vanishes():
    rng = np.random.default_rng(6)
    p = BoundaryField(rng.standard_normal(9))
    assert np.abs(operator_a(p, p, 64)).max() < 1e-12


def test_sign_formula():
    assert sign_formula_residual(2, 5) < 1e-8    # deg q > deg p: +(pq + ptqt)
    assert sign_formula_residual(5, 2) < 1e-8
    assert sign_formula_residual(3, 3) < 1e-8    # equal degree: zero
    assert sign_formula_residual(0, 4) < 1e-8    # constant against a pure mode


def test_finite_rank_truncation_monotone():
    rng = np.random.default_rng(7)
    p = BoundaryField(rng.standard_normal(25))   # degree 12
    res = finite_rank_truncation(p, [4, 8, 16])
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-10


def test_boundary_localization_gmc_measure():
    mu, _ = gmc_measure(11)
    rng = np.random.default_rng(4)
    f1 = DiskTestFunction.separable(bump(0.3, 0.6), BoundaryField(rng.standard_normal(7)))
    f2 = DiskTestFunction.separable(bump(0.4, 0.75), BoundaryField(rng.standard_normal(5)))
    suite = boundary_localization_suite(f1, f2, mu)
    for key, (lhs, rhs, rel) in suite.items():
        assert rel < 1e-4, (key, rel)


def test_boundary_localization_zero_measure():
    mu0 = CircleMeasure(np.zeros(256))
    rng = np.random.default_rng(8)
    f1 = DiskTestFunction.separable(bump(0.3, 0.6), BoundaryField(rng.standard_normal(5)))
    f2 = DiskTestFunction.separable(bump(0.4, 0.7), BoundaryField(rng.standard_normal(5)))
    suite = boundary_localization_suite(f1, f2, mu0)
    for key, (lhs, rhs, rel) in suite.items():
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12, key


def test_boundary_localization_atom_oracle():
    # near-atom at w = 1: closed forms of the three identities at the atom
    M = 256
    mu = CircleMeasure.narrow_bump(0.0, 1.0, M)
    rng = np.random.default_rng(9)
    f1 = DiskTestFunction.separable(bump(0.3, 0.6), BoundaryField(rng.standard_normal(5)))
    f2 = DiskTestFunction.separable(bump(0.4, 0.7), BoundaryField(rng.standard_normal(5)))
    p1 = f1.poisson_adjoint()
    p2 = f2.poisson_adjoint()
    suite = boundary_localization_suite(f1, f2, mu)
    width = 2 * (2 * np.pi / M)
    # atom values (bump-width error is quadratic in the width)
    lhs, rhs, _ = suite["log_pairing"]
    assert abs(lhs + 2 * np.pi * p1.value_at(0.0)) < 60 * width ** 2
    lhs, rhs, _ = suite["conformal_factor"]
    target = 2 * np.pi * (p1.value_at(0.0) - p1.dirichlet_to_neumann().value_at(0.0))
    assert abs(lhs - target) < 200 * width ** 2
    lhs, rhs, _ = suite["green_pairing"]
    assert abs(lhs - 2 * np.pi * p1.value_at(0.0) * p2.value_at(0.0)) < 60 * width ** 2


def test_boundary_localization_uniform_radial():
    # uniform measure, radial f: the conformal-factor side reduces to the mean
    R = bump(0.3, 0.7)
    f = DiskTestFunction.separable(R, BoundaryField.constant(1.0, 2))
    mu = CircleMeasure.uniform(1.0, 256)
    suite = boundary_localization_suite(f, f, mu)
    lhs, rhs, rel = suite["conformal_factor"]
    p = f.poisson_adjoint()
    assert abs(rhs - 2 * np.pi * p.mean()) < 1e-10
    assert rel < 1e-6


def test_measure_linearity_of_identities():
    mu1, _ = gmc_measure(21)
    mu2 = CircleMeasure.uniform(0.8, mu1.M)
    rng = np.random.default_rng(10)
    p = BoundaryField(rng.standard_normal(9))
    h = BoundaryField(sample_trace_batch(16, 1, make_rng(22))[0])
    combo = CircleMeasure(0.3 * mu1.density + 1.7 * mu2.density)
    v = combo.integrate(vkernel_pair_dnh(p, h, combo.M))
    v1 = mu1.integrate(vkernel_pair_dnh(p, h, mu1.M))
    v2 = mu2.integrate(vkernel_pair_dnh(p, h, mu2.M))
    assert abs(v - 0.3 * v1 - 1.7 * v2) < 1e-10 * max(1.0, abs(v))


def test_kernel_u_check_cases():
    mu, _ = gmc_measure(11)
    rng = np.random.default_rng(4)
    f = DiskTestFunction.separable(bump(0.3, 0.6), BoundaryField(rng.standard_normal(7)))
    # constant h: both sides vanish (left side to quadrature accuracy)
    lhs, rhs, rel = kernel_u_check(f, BoundaryField.constant(2.0, 2), mu)
    assert abs(lhs) < 1e-6 and abs(rhs) < 1e-12
    # band-limited random h
    h = BoundaryField(sample_trace_batch(8, 1, make_rng(23))[0])
    lhs, rhs, rel = kernel_u_check(f, h, mu)
    assert rel < 1e-4
    # cosine h with angular test function and uniform measure
    fc = DiskTestFunction.separable(bump(0.3, 0.7), BoundaryField.basis(1, 2))
    lhs, rhs, rel = kernel_u_check(fc, BoundaryField.basis(1, 2), CircleMeasure.uniform(1.0, 256))
    assert rel < 1e-6


def test_contract_left_matches_matrix_route():
    rng = np.random.default_rng(12)
    p = BoundaryField(rng.standard_normal(9))
    q = BoundaryField(rng.standard_normal(11))
    M = 128
    Vq = kernel_v(q, M).values
    matrix = (p.values(M)[:, None] * Vq).sum(axis=0) * (2 * np.pi / M)
    assert np.abs(matrix - contract_left(p, q, M)).max() < 1e-10
