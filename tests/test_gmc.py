import numpy as np
import pytest

from growthlab.fields import batch_values, sample_trace_batch
from growthlab.gmc import (CircleMeasure, ball_masses, chaos_density_batch,
                           chaos_derivative, chaos_measure, inverse_map,
                           second_moment_limit, second_moment_truncated,
                           truncated_pointwise_variance, weighted_field_check)
from growthlab.profiles import BoundedSmoothProfile
from growthlab.rng import make_rng
from growthlab.spectral import BoundaryField

XI = 1.0 / np.sqrt(6.0)


def test_circle_measure_invariants():
    mu = CircleMeasure.uniform(3.0, 64)
    assert abs(mu.total_mass - 3.0) < 1e-12
    rot = mu.rotate(5)
    assert abs(rot.total_mass - 3.0) < 1e-12
    with pytest.raises(ValueError):
        CircleMeasure(-np.ones(16))
    spiky = CircleMeasure.narrow_bump(1.0, 2.0, 128)
    assert abs(spiky.total_mass - 2.0) < 1e-12


def test_rotation_acts_by_index_shift():
    rng = make_rng(0)
    dens = rng.random(32) + 0.1
    mu = CircleMeasure(dens)
    p = BoundaryField.basis(1, 4)
    shifted = mu.rotate(3)
    vals = p.values(32)
    assert abs(shifted.integrate(vals) - mu.integrate(np.roll(vals, -3))) < 1e-12


def test_pointwise_variance_and_unit_mean():
    N = 32
    assert abs(truncated_pointwise_variance(N)
               - 2 * sum(1.0 / m for m in range(1, N + 1))) < 1e-12
    rng = make_rng(1)
    c = sample_trace_batch(N, 40000, rng)
    dens = chaos_density_batch(batch_values(c, 128), -1, XI, N)
    # E density = 1 pointwise
    se = dens[:, 0].std(ddof=1) / np.sqrt(dens.shape[0])
    assert abs(dens[:, 0].mean() - 1.0) < 3 * se


def test_mean_total_mass():
    rng = make_rng(2)
    n, N, M = 10000, 64, 256
    c = sample_trace_batch(N, n, rng)
    dens = chaos_density_batch(batch_values(c, M), 1, XI, N)
    masses = dens.sum(axis=1) * 2 * np.pi / M
    se = masses.std(ddof=1) / np.sqrt(n)
    assert abs(masses.mean() - 2 * np.pi) < 3 * se


def test_second_moment_target_value():
    target = second_moment_limit(XI)
    assert abs(target - 41.95) < 0.02
    # the truncated value converges toward the target
    t64 = second_moment_truncated(XI, 64)
    t512 = second_moment_truncated(XI, 512)
    assert abs(t512 - target) < abs(t64 - target)
    assert abs(t512 - target) < 0.05


def test_second_moment_monte_carlo():
    rng = make_rng(3)
    n, N = 10000, 256
    M = 4 * N
    c = sample_trace_batch(N, n, rng)
    dens = chaos_density_batch(batch_values(c, M), 1, XI, N)
    m2 = (dens.sum(axis=1) * 2 * np.pi / M) ** 2
    se = m2.std(ddof=1) / np.sqrt(n)
    assert abs(m2.mean() - second_moment_limit(XI)) < 3 * se


def test_xi_to_zero_density_flat():
    h = BoundaryField(sample_trace_batch(16, 1, make_rng(4))[0])
    dens = chaos_density_batch(h.values(64), -1, 1e-9, 16)
    assert np.abs(dens - 1.0).max() < 1e-7


def test_chaos_parameter_range():
    h = BoundaryField(sample_trace_batch(4, 1, make_rng(5))[0])
    with pytest.raises(ValueError):
        chaos_measure(h, -1, 1.5, 64)
    with pytest.raises(ValueError):
        chaos_measure(h, 2, 0.5, 64)


def test_shift_scaling_exact():
    h = BoundaryField(sample_trace_batch(32, 1, make_rng(6))[0])
    x = 0.83
    d0 = chaos_measure(h, -1, XI, 128).density
    d1 = chaos_measure(h + BoundaryField.constant(x, 1), -1, XI, 128).density
    assert np.abs(d1 - np.exp(-XI * x) * d0).max() < 1e-12


def test_chaos_derivative_cases():
    h = BoundaryField(sample_trace_batch(16, 1, make_rng(7))[0])
    one = BoundaryField.constant(1.0, 2)
    # p = 0: derivative vanishes
    fd, exact = chaos_derivative(BoundaryField.zeros(2), one, h, XI, 128)
    assert fd == 0.0 and exact == 0.0
    # f = 1, p = 1: derivative is alpha |M_alpha|
    fd, exact = chaos_derivative(one, one, h, XI, 128)
    mass = chaos_measure(h, 1, XI, 128).total_mass
    assert abs(exact - XI * mass) < 1e-12
    assert abs(fd - exact) < 1e-6 * abs(exact)
    # random p, f against the finite difference
    rng = np.random.default_rng(8)
    p = BoundaryField(rng.standard_normal(7))
    f = BoundaryField(rng.standard_normal(9))
    fd, exact = chaos_derivative(p, f, h, -XI, 128)
    assert abs(fd - exact) < 1e-6 * max(abs(exact), 1.0)


@pytest.mark.parametrize("alpha", [0.0, -0.0, 1.0, -1.0, 1.5])
def test_chaos_derivative_rejects_an_exponent_outside_its_range(alpha):
    """alpha = 0 used to pass the range check and then fail inside
    chaos_density_batch with that function's message."""
    h = BoundaryField(sample_trace_batch(4, 1, make_rng(7))[0])
    one = BoundaryField.constant(1.0, 2)
    with pytest.raises(ValueError, match=r"0 < \|alpha\| < 1"):
        chaos_derivative(one, one, h, alpha, 32)


def test_weighted_field_trivial_cases():
    rng = make_rng(9)
    # F constant: both sides reduce to the f integral
    class One:
        def value(self, x):
            return np.ones(np.asarray(x).shape[:-1])

    f = BoundaryField.constant(1.0, 2) + 0.3 * BoundaryField.basis(1, 2)
    lhs, rhs, se = weighted_field_check(f, [BoundaryField.basis(1, 8)], One(),
                                        XI, 8, 64, 4000, rng)
    assert abs(lhs - f.integral()) < 3 * se + 1e-10
    assert abs(lhs - rhs) < 3 * se + 1e-12
    # alpha = 0 decouples: both sides f-integral times E F
    lhs0, rhs0, se0 = weighted_field_check(f, [BoundaryField.basis(1, 8)],
                                           BoundedSmoothProfile(1, 0.4),
                                           1e-12, 8, 64, 4000, make_rng(10))
    assert abs(lhs0 - rhs0) < 3 * se0 + 1e-9


def test_weighted_field_shift_equality():
    lhs, rhs, se = weighted_field_check(
        BoundaryField.constant(1.0, 2), [BoundaryField.basis(1, 16)],
        BoundedSmoothProfile(1, 0.3), XI, 16, 64, 30000, make_rng(11))
    assert abs(lhs - rhs) < 3 * se


def test_ball_masses_uniform_and_partial_cells():
    mu = CircleMeasure.uniform(2 * np.pi, 16)
    eps = 0.3
    m = ball_masses(mu.cell_masses, eps)
    assert np.abs(m - 2 * eps).max() < 1e-12


def test_ball_masses_radius_domain():
    mu = CircleMeasure.uniform(1.0, 64)
    # eps = pi is the whole circle; anything wider counted mass twice
    assert np.abs(ball_masses(mu.cell_masses, np.pi) - 1.0).max() < 1e-12
    for eps in (4.0, 7.0, -0.1, 0.0):
        with pytest.raises(ValueError):
            ball_masses(mu.cell_masses, eps)


def test_ball_masses_are_centred_on_their_cell():
    M = 16
    for k in (0, 5, 15):
        cells = np.zeros(M)
        cells[k] = 1.0
        # the one-cell ball about x_j holds cell j and half of each neighbour,
        # so the unit mass in cell k is seen from cells k - 1, k and k + 1
        m = ball_masses(cells, 2 * np.pi / M)
        want = np.zeros(M)
        want[k] = 1.0
        want[(k - 1) % M] = want[(k + 1) % M] = 0.5
        assert np.array_equal(m, want), (k, m)
    # rows are independent measures; a two-cell ball about x_j holds three
    # cells and half of the next one on each side
    m = ball_masses(np.eye(M)[[3, 8]], 2 * 2 * np.pi / M)
    assert np.array_equal(m[0], np.roll(m[1], -5))
    assert np.array_equal(m[1, 6:11], [0.5, 1.0, 1.0, 1.0, 0.5])
    assert m[1].sum() == 4.0


def test_inverse_map_smooth_recovery():
    h = 0.8 * BoundaryField.basis(1, 4) + 0.5 * BoundaryField.basis(4, 4)
    M = 256
    mu = CircleMeasure(np.exp(XI * h.values(M)))
    errs = []
    for eps in (0.2, 0.1, 0.05):
        rec = inverse_map(mu, eps, XI, 8)
        errs.append(np.abs(rec.values(M) - (h.values(M) - h.mean())).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05 * errs[0] / 0.05  # sane magnitude


def test_inverse_map_errors():
    M = 64
    dens = np.ones(M)
    dens[: M // 2] = 0.0
    with pytest.raises(ValueError):
        inverse_map(CircleMeasure(dens), 2 * np.pi / M, XI, 4)
    with pytest.raises(ValueError):
        inverse_map(CircleMeasure.uniform(1.0, M), 0.1, 1.5, 4)


def test_inverse_map_gmc_l2_convergence():
    rng = make_rng(12)
    N, M, n = 64, 256, 300
    c = sample_trace_batch(N, n, rng)
    vals = batch_values(c, M)
    dens = chaos_density_batch(vals, 1, XI, N)
    p = BoundaryField.basis(1, N)
    pv = p.values(M)
    dtheta = 2 * np.pi / M
    exact = vals @ pv * dtheta
    errs = []
    for eps in (0.2, 0.1, 0.05):
        h_eps = np.log(ball_masses(dens * dtheta, eps)) / XI
        h_eps -= h_eps.mean(axis=0)[None, :]
        pair = h_eps @ pv * dtheta
        errs.append(np.sqrt(np.mean((pair - exact) ** 2)))
    assert errs[0] > errs[1] > errs[2]
