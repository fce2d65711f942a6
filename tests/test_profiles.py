import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab.profiles import (BoundedSmoothProfile, IndicatorProfile,
                                MollifiedProfile, PlateauBump1D, ProductProfile,
                                _step)


def test_step_endpoints_and_monotonicity():
    t = np.linspace(-1.0, 2.0, 301)
    s, s1, s2 = _step(t)
    assert np.all(s[t <= 0] == 0.0)
    assert np.all(s[t >= 1] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)
    assert np.all(s1 >= -1e-15)


def _step_reference(t):
    """The step evaluated everywhere and then masked, as the formula reads."""
    def u_all(t):
        u, u1, u2 = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
        pos = t > 0
        tp = t[pos]
        e = np.exp(-1.0 / tp)
        u[pos], u1[pos], u2[pos] = e, e / tp ** 2, e * (1.0 / tp ** 4 - 2.0 / tp ** 3)
        return u, u1, u2

    A, A1, A2 = u_all(t)
    B, nB1, B2 = u_all(1.0 - t)
    B1 = -nB1
    mid = (t > 0) & (t < 1)
    Dm = np.where(mid, A + B, 1.0)
    s = np.where(mid, A / Dm, np.where(t >= 1, 1.0, 0.0))
    num1 = A1 * B - A * B1
    s1 = np.where(mid, num1 / Dm ** 2, 0.0)
    num2 = A2 * B - A * B2
    s2 = np.where(mid, num2 / Dm ** 2 - 2.0 * num1 * (A1 + B1) / Dm ** 3, 0.0)
    return s, s1, s2


def test_step_matches_reference_bit_for_bit():
    rng = np.random.default_rng(2)
    for t in (np.linspace(-1.0, 2.0, 3001), rng.uniform(-2.0, 3.0, (40, 50)),
              np.array([0.0, -0.0, 1.0, 1e-3, 0.5, 1.0 - 1e-12, 7.0]),
              rng.uniform(0.0, 1.0, (30, 1))):
        with np.errstate(all="ignore"):
            for a, b in zip(_step(t), _step_reference(t)):
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.int64), b.view(np.int64))


@given(st.floats(-3.0, 3.0), st.floats(0.2, 2.0))
@settings(max_examples=30, deadline=None)
def test_plateau_bump_derivatives(center, half):
    f = PlateauBump1D(center - half, center + half, 0.4 * half)
    y = np.linspace(center - 1.2 * half, center + 1.2 * half, 41)
    v, d1, d2 = f.pieces(y)
    eps = 1e-6 * half
    vp = f.pieces(y + eps)[0]
    vm = f.pieces(y - eps)[0]
    assert np.abs((vp - vm) / (2 * eps) - d1).max() < 2e-4 / half
    assert np.all(v[(y <= center - half) | (y >= center + half)] == 0.0)
    # plateau value one at the center
    assert abs(f.pieces(np.array([center]))[0][0] - 1.0) < 1e-14


def test_product_profile_gradient_hessian():
    prof = ProductProfile.bumps([0.0, 1.0], [1.0, 0.8])
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.8, 0.6, size=(7, 2)) + np.array([0.0, 1.0])
    eps = 1e-6
    g = prof.grad(x)
    h = prof.hess(x)
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (prof.value(x + e) - prof.value(x - e)) / (2 * eps)
        assert np.abs(fd - g[..., i]).max() < 1e-6
    for i in range(2):
        for j in range(2):
            ei, ej = np.zeros(2), np.zeros(2)
            ei[i], ej[j] = eps, eps
            fd = (prof.value(x + ei + ej) - prof.value(x + ei - ej)
                  - prof.value(x - ei + ej) + prof.value(x - ei - ej)) / (4 * eps ** 2)
            assert np.abs(fd - h[..., i, j]).max() < 1e-3


@pytest.mark.parametrize("slopes", [(1.0, 0.0, -0.7), (0.0, 0.0, 0.0), (0.3, 2.0, 0.0)])
def test_product_profile_along_matches_pointwise(slopes):
    # one pass along lines base + m slopes gives the same bits as value/grad/
    # hess at those points, zero-slope factors broadcast from shape (B, 1)
    prof = ProductProfile.bumps([0.0, 0.5, -0.3], [1.0, 0.8, 1.2])
    slopes = np.array(slopes)
    rng = np.random.default_rng(3)
    base = rng.uniform(-1.6, 1.6, size=(60, 3))     # some rows outside the box
    m = rng.uniform(-3.0, 3.0, size=(60, 30))
    x = base[:, None, :] + m[:, :, None] * slopes[None, None, :]
    val, grad, hess = prof.along(base, slopes, m)
    assert np.array_equal(np.broadcast_to(val, m.shape), prof.value(x))
    g, h = prof.grad(x), prof.hess(x)
    for i in range(3):
        assert np.array_equal(np.broadcast_to(grad[i], m.shape), g[..., i])
        for j in range(3):
            assert np.array_equal(np.broadcast_to(hess[i][j], m.shape), h[..., i, j])
    assert np.any(g != 0.0) and np.any(prof.value(x) == 0.0)
    v0, g0, h0 = prof.along(base, slopes, m, order=0)
    assert np.array_equal(v0, val) and g0 is None and h0 is None
    if not slopes.any():
        assert val.shape == (60, 1)


def test_mollified_profile_is_derivative_consistent():
    prof = ProductProfile.bumps([0.0, 1.0], [1.0, 0.8])
    sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
    mp = MollifiedProfile(prof, sigma, table_pts=121)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.3, 0.9, size=(500, 2)) + np.array([0.0, 1.0])
    eps = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (mp.value(x + e) - mp.value(x - e)) / (2 * eps)
        assert np.abs(fd - mp.grad_entry(i, x)).max() < 1e-7
    d = mp.eval_many(x, [("v",), ("g", 0), ("h", 0, 1)])
    assert np.abs(d[("v",)] - mp.value(x)).max() == 0.0
    assert np.abs(d[("g", 0)] - mp.grad_entry(0, x)).max() == 0.0


def test_mollified_profile_approximates_gaussian_average():
    prof = ProductProfile.bumps([0.0], [1.5])
    sigma = np.array([[0.25]])
    mp = MollifiedProfile(prof, sigma)
    pts = np.linspace(-3.0, 3.0, 41)[:, None]
    z = np.random.default_rng(3).normal(0.0, 0.5, size=400000)
    mc = np.array([prof.value((p + z)[:, None]).mean() for p in pts[:, 0]])
    assert np.abs(mp.value(pts) - mc).max() < 0.01


def test_mollified_profile_psd_guard():
    prof = ProductProfile.bumps([0.0], [1.0])
    with pytest.raises(ValueError):
        MollifiedProfile(prof, np.array([[-1.0]]))
    with pytest.raises(ValueError):
        MollifiedProfile(prof, np.eye(2))       # shape mismatch


def test_indicator_and_bounded_profiles():
    ind = IndicatorProfile([(0.0, 1.0), (-1.0, 1.0)])
    x = np.array([[0.5, 0.0], [1.5, 0.0], [0.5, 2.0]])
    assert list(ind.value(x)) == [1.0, 0.0, 0.0]
    b = BoundedSmoothProfile(2, scale=0.5)
    xs = np.random.default_rng(4).normal(size=(10, 2))
    eps = 1e-6
    g = b.grad(xs)
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (b.value(xs + e) - b.value(xs - e)) / (2 * eps)
        assert np.abs(fd - g[..., i]).max() < 1e-6
