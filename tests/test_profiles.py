import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import quad

from growthlab.profiles import (BoundedSmoothProfile, CovarianceNotDiagonalError,
                                MollifiedProfile, PlateauBump1D, ProductProfile, _u)
from growthlab.quadrature import composite_rule
from growthlab.suites import _fixture_functional, _fixture_g


def test_step_endpoints_and_monotonicity():
    # the rising transition of a bump on [0, 3] with rise 1 is the step itself
    t = np.linspace(-1.0, 1.5, 251)
    s, s1, s2 = PlateauBump1D(0.0, 3.0, 1.0).pieces(t)
    assert np.all(s[t <= 0] == 0.0)
    assert np.all(s[t >= 1] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)
    assert np.all(s1 >= -1e-15)


def _step(t):
    """The C-infinity step with two derivatives, masked: the exponentials on
    (0, 1) only, the constants 0 or 1 with zero derivatives elsewhere.  The
    bump's reference (_pieces_reference) is a product of two of these."""
    t = np.asarray(t, dtype=float)
    mid = (t > 0) & (t < 1)
    s = np.where(t >= 1, 1.0, 0.0)
    s1 = np.zeros_like(t)
    s2 = np.zeros_like(t)
    tm = t[mid]
    A, A1, A2 = _u(tm)
    B, nB1, B2 = _u(1.0 - tm)
    B1 = -nB1
    D = A + B
    num1 = A1 * B - A * B1
    D1 = A1 + B1
    num2 = A2 * B - A * B2
    s[mid] = A / D
    s1[mid] = num1 / D ** 2
    s2[mid] = num2 / D ** 2 - 2.0 * num1 * D1 / D ** 3
    return s, s1, s2


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


def _pieces_reference(f, y):
    """The bump as the product of its rising and falling steps, each step
    evaluated at every point."""
    sL, sL1, sL2 = _step((y - f.lo) / f.rise)
    sR, sR1, sR2 = _step((f.hi - y) / f.rise)
    sL1, sL2 = sL1 / f.rise, sL2 / f.rise ** 2
    sR1, sR2 = -sR1 / f.rise, sR2 / f.rise ** 2
    return (sL * sR, sL1 * sR + sL * sR1,
            sL2 * sR + 2.0 * sL1 * sR1 + sL * sR2)


@pytest.mark.parametrize("bump", [
    PlateauBump1D(-0.3, 1.7, 0.45),
    PlateauBump1D(2.0, 2.5, 0.25),          # rise half the support
    PlateauBump1D(0.7 - 0.1, 0.7 + 0.1, 0.1),     # rise the half-width, and d2 = -0.0
    *ProductProfile.bumps([0.1, -0.4], [1.5, 0.2]).factors,
    *_fixture_functional(8).profile.factors,
    *_fixture_g(8).profile.factors,
])
def test_pieces_keep_the_bits_of_the_two_step_product(bump):
    rng = np.random.default_rng(5)
    lo, hi, rise = bump.lo, bump.hi, bump.rise
    edges = np.array([lo, lo + rise, hi - rise, hi])
    width = hi - lo
    near = rise * np.logspace(-15, -1, 29)       # where the exponentials underflow
    points = {
        "random": rng.uniform(lo - 0.2 * width, hi + 0.2 * width, (40, 50)),
        "breakpoints": np.concatenate([edges, np.nextafter(edges, -np.inf),
                                       np.nextafter(edges, np.inf)]),
        "outside": np.array([lo - width, lo - 1e-9, hi + 1e-9, hi + width, -np.inf, np.inf]),
        "transition ends": (edges[:, None] + np.concatenate([near, -near])).ravel(),
        "centre": 0.5 * (lo + hi) + np.array([0.0, -1e-15, 1e-15]),
    }
    for name, y in points.items():
        for k, (new, ref) in enumerate(zip(bump.pieces(y), _pieces_reference(bump, y))):
            assert new.shape == ref.shape and np.array_equal(new, ref), name
            # where the transitions touch, the product's d2 may be -0.0 and
            # this 0.0; every other entry has the product's bits
            moved = new.view(np.int64) != ref.view(np.int64)
            if k == 2 and 2.0 * rise >= width:
                moved &= ~(np.signbit(ref) & (new == 0.0) & ~np.signbit(new))
            assert not moved.any(), name


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
    keys = ([("v",)] + [("g", i) for i in range(3)]
            + [("h", i, j) for i in range(3) for j in range(3)])
    psi = prof.along(base, slopes, m, keys)
    val = psi[("v",)]
    assert np.array_equal(np.broadcast_to(val, m.shape), prof.value(x))
    g, h = prof.grad(x), prof.hess(x)
    for i in range(3):
        assert np.array_equal(np.broadcast_to(psi[("g", i)], m.shape), g[..., i])
        for j in range(3):
            assert np.array_equal(np.broadcast_to(psi[("h", i, j)], m.shape), h[..., i, j])
    assert np.any(g != 0.0) and np.any(prof.value(x) == 0.0)
    # only the requested entries, under their keys
    only = prof.along(base, slopes, m, [("h", 2, 0), ("v",)])
    assert list(only) == [("h", 2, 0), ("v",)]
    assert np.array_equal(only[("v",)], val) and np.array_equal(only[("h", 2, 0)],
                                                                 psi[("h", 0, 2)])
    if not slopes.any():
        assert val.shape == (60, 1)


# the invariance fixture's bumps under its bulk covariance, diag(2.44, 6.68)
FIXTURE = ProductProfile.bumps([0.0, 0.0], [2.0, 2.5])
FIXTURE_SIGMA = np.diag([2.44, 6.68])


def test_mollified_profile_is_derivative_consistent():
    prof = ProductProfile.bumps([0.0, 1.0], [1.0, 0.8])
    mp = MollifiedProfile(prof, np.diag([0.04, 0.09]))
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.3, 0.9, size=(500, 2)) + np.array([0.0, 1.0])
    eps = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (mp.value(x + e) - mp.value(x - e)) / (2 * eps)
        assert np.abs(fd - mp.grad_entry(i, x)).max() < 1e-7
        for j in range(2):
            fd = (mp.grad_entry(j, x + e) - mp.grad_entry(j, x - e)) / (2 * eps)
            assert np.abs(fd - mp.hess_entry(i, j, x)).max() < 1e-6
    d = mp.eval_many(x[:, None, :], [("v",), ("g", 0), ("h", 0, 1)])
    assert np.array_equal(d[("v",)][:, 0], mp.value(x))
    assert np.array_equal(d[("g", 0)][:, 0], mp.grad_entry(0, x))


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


def test_mollified_profile_rejects_a_coupled_covariance():
    """The exact mollification factors by axis, so a covariance with an
    off-diagonal entry beyond 1e-12 of its diagonal raises a named error;
    roundoff below that, or an exact -0.0, is accepted."""
    prof = ProductProfile.bumps([0.0, 0.0], [2.0, 2.5])
    with pytest.raises(CovarianceNotDiagonalError):
        MollifiedProfile(prof, np.array([[2.44, 1e-9], [1e-9, 6.68]]))
    for off in (-0.0, 1e-15):
        mp = MollifiedProfile(prof, np.array([[2.44, off], [off, 6.68]]))
        assert np.array_equal(mp.var, [2.44, 6.68])


def _convolution_reference(f, var, y, k):
    """(P_var phi^{(k)})(y) = int phi(u) d_y^k g_var(u - y) du by adaptive
    quadrature, broken at the bump's breakpoints."""
    def kernel(u):
        d = u - y
        g = np.exp(-0.5 * d * d / var) / np.sqrt(2 * np.pi * var)
        return g * (1.0, d / var, (d * d - var) / var ** 2)[k]

    knots = [f.lo, f.lo + f.rise, f.hi - f.rise, f.hi]
    return sum(quad(lambda u: f.pieces(np.array([u]))[0][0] * kernel(u), a, b,
                    epsabs=1e-14, epsrel=1e-12, limit=200)[0]
               for a, b in zip(knots[:-1], knots[1:]))


def _entry_keys(n):
    return ([("v",)] + [("g", i) for i in range(n)]
            + [("h", i, j) for i in range(n) for j in range(i, n)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eval_many_matches_the_reference_for_every_order(n):
    """Every derivative entry up to second order at n = 1, 2 and 3, at points
    within three standard deviations of the supports and one six out, is the product of one-dimensional
    convolutions that a brute-force adaptive quadrature reproduces to 1e-11
    of the entry's largest value (each factor agrees to about 2e-13); a zero
    variance leaves the plain profile."""
    prof = ProductProfile.bumps([0.0, 1.0, -0.5][:n], [2.0, 2.5, 1.3][:n])
    var = np.array([2.44, 6.68, 0.5])[:n]
    mp = MollifiedProfile(prof, np.diag(var))
    reach = np.array([2.0, 2.5, 1.3])[:n] + 3.0 * np.sqrt(var)
    x = np.array([0.0, 1.0, -0.5])[:n] + reach * np.random.default_rng(9).uniform(
        -1.0, 1.0, size=(4, n))
    x[0, 0] = 12.0      # six standard deviations off the first bump
    ref = {(b, k, r): _convolution_reference(prof.factors[b], var[b], x[r, b], k)
           for b in range(n) for k in range(3) for r in range(len(x))}
    got = mp.eval_many(x, _entry_keys(n))
    for key in _entry_keys(n):
        orders = [sum(b == i for i in key[1:]) for b in range(n)]
        want = np.array([np.prod([ref[(b, orders[b], r)] for b in range(n)])
                         for r in range(len(x))])
        assert np.abs(got[key] - want).max() <= 1e-11 * np.abs(want).max()
    plain = MollifiedProfile(prof, np.zeros((n, n))).eval_many(x, _entry_keys(n))
    assert np.array_equal(plain[("v",)], prof.value(x))
    assert np.array_equal(plain[("g", 0)], prof.grad(x)[:, 0])


def _dense_line_integral(mp, x, axis, slope, rate, key, panels=256):
    """int e^{rate m} d_key P_Sigma psi(x + m slope e_axis) dm by composite
    Gauss-Legendre in m over the bump's support widened by 14 sd."""
    f = mp.profile.factors[axis]
    pad = 14.0 * np.sqrt(mp.var[axis])
    lo, hi = f.lo - pad, f.hi + pad
    t, wt = composite_rule(panels, 16)
    u = lo + (hi - lo) * t
    m = (u - x[axis]) / slope
    pts = np.repeat(x[None, :], m.size, axis=0)
    pts[:, axis] = u
    vals = mp.eval_many(pts, [key])[key] * np.exp(rate * m)
    return (hi - lo) * (wt @ vals) / abs(slope)


@pytest.mark.parametrize("sigma", ["fixture", "plain"])
def test_line_integrals_match_a_dense_m_quadrature(sigma):
    """The closed form of the zero-mode line integral (Fubini, integration by
    parts in u, exponential tilting of the Gaussian) against direct
    quadrature in m of the exact entries: value, gradient and Hessian at
    rates 0, +-0.3 and 1.2, on either moving axis, to 1e-12 of the largest
    entry at each rate (at rate 0 the moving axis's derivatives vanish)."""
    mp = MollifiedProfile(FIXTURE, FIXTURE_SIGMA if sigma == "fixture" else np.zeros((2, 2)))
    x = np.array([[0.271, -1.559], [1.8, 0.4], [-3.0, 2.2]])
    for axis, slope in ((0, 1.0), (1, -2.51)):
        I = mp.line_integrals(x, axis, slope)
        for rate in (0.0, 0.3, -0.3, 1.2):
            got = np.array([I(rate, key) for key in _entry_keys(2)])
            want = np.array([[_dense_line_integral(mp, row, axis, slope, rate, key)
                              for row in x] for key in _entry_keys(2)])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (axis, rate)


def test_mollified_fixture_derivatives_at_a_reference_point():
    """At x = (0.271, -1.559) the fixture's exact mollification has
    d_1 = -0.024 and d_2^2 = -0.026 (the 16-point Gauss-Hermite table read
    0.139 and -0.578 there)."""
    mp = MollifiedProfile(FIXTURE, FIXTURE_SIGMA)
    x = np.array([[0.271, -1.559]])
    assert abs(mp.grad_entry(0, x)[0] - (-0.024)) < 5e-4
    assert abs(mp.hess_entry(1, 1, x)[0] - (-0.026)) < 5e-4


def test_bounded_smooth_profile_gradient():
    b = BoundedSmoothProfile(2, scale=0.5)
    xs = np.random.default_rng(4).normal(size=(10, 2))
    eps = 1e-6
    g = b.grad(xs)
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (b.value(xs + e) - b.value(xs - e)) / (2 * eps)
        assert np.abs(fd - g[..., i]).max() < 1e-6
