import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import generator
from growthlab.generator import _integrate_spline_exact
from growthlab.profiles import (_GROUP_CHUNK, BoundedSmoothProfile,
                                MollifiedProfile, PlateauBump1D, ProductProfile,
                                _bspline3_taps, _prefilter, _SplineTable, _step)
from growthlab.quadrature import gauss_legendre


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
    d = mp.eval_many(x[:, None, :], [("v",), ("g", 0), ("h", 0, 1)])
    assert np.abs(d[("v",)][:, 0] - mp.value(x)).max() == 0.0
    assert np.abs(d[("g", 0)][:, 0] - mp.grad_entry(0, x)).max() == 0.0


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


def _bspline3_weights(t, order):
    """Cubic B-spline basis (or a derivative) at offsets -1..2 from floor(t),
    as shape t.shape + (4,): the point-major weights, kept as the reference."""
    w = np.empty(t.shape + (4,))
    s = 1.0 - t
    if order == 0:
        w[..., 0] = s * s * s / 6.0
        w[..., 1] = (4.0 - 6.0 * t * t + 3.0 * t * t * t) / 6.0
        w[..., 2] = (4.0 - 6.0 * s * s + 3.0 * s * s * s) / 6.0
        w[..., 3] = t * t * t / 6.0
    elif order == 1:
        w[..., 0] = -0.5 * s * s
        w[..., 1] = (-12.0 * t + 9.0 * t * t) / 6.0
        w[..., 2] = (12.0 * s - 9.0 * s * s) / 6.0
        w[..., 3] = 0.5 * t * t
    else:
        w[..., 0] = s
        w[..., 1] = (-12.0 + 18.0 * t) / 6.0
        w[..., 2] = (-12.0 + 18.0 * s) / 6.0
        w[..., 3] = t
    return w


def test_bspline3_taps_match_the_reference_weights_bit_for_bit():
    rng = np.random.default_rng(8)
    t = np.concatenate([rng.uniform(0.0, 1.0, 2000), [0.0, 1.0, 0.5, 1e-15, 1.0 - 1e-12]])
    for order in (0, 1, 2):
        taps = _bspline3_taps(t.reshape(5, -1), order)
        w = _bspline3_weights(t, order)
        for k in range(4):
            assert np.array_equal(taps[k].ravel(), w[:, k])


def _spline_reference(table, x, orders):
    """One spline entry at points x (P, n), each point gathering its own
    neighborhood: the per-point evaluation, kept as the reference."""
    u = (x - table.lows) / table.h
    inside = np.all((u > -1.0) & (u < table.pts), axis=1)
    u = np.clip(u, 0.0, table.pts - 1.0 - 1e-12)
    base = np.floor(u).astype(int)
    frac = u - base
    strides = np.array(table.coef.strides) // table.coef.itemsize
    flat = (base + 1) @ strides
    cfl = table.coef.ravel()
    cells = list(np.ndindex(*(4,) * table.n))
    neigh = np.stack([cfl[flat + np.dot(o, strides)] for o in cells], axis=1)
    w = _bspline3_weights(frac[:, 0], orders[0]) / table.h[0] ** orders[0]
    for k in range(1, table.n):
        wk = _bspline3_weights(frac[:, k], orders[k]) / table.h[k] ** orders[k]
        w = (w[:, :, None] * wk[:, None, :]).reshape(x.shape[0], -1)
    acc = np.einsum("qi,qi->q", neigh, w)
    acc[~inside] = 0.0
    return acc


SPLINE_RTOL = 1e-12     # the axis-by-axis contraction sums in another order


def _assert_near_reference(got, ref):
    """got is within SPLINE_RTOL of the reference, relative to its largest entry."""
    assert np.abs(ref).max() > 0.0
    assert np.abs(got - ref).max() <= SPLINE_RTOL * np.abs(ref).max()


def _mollified_2d():
    prof = ProductProfile.bumps([0.0, 1.0], [1.0, 0.8])
    return MollifiedProfile(prof, np.array([[0.04, 0.01], [0.01, 0.09]]), table_pts=81)


def test_mollified_along_on_knot_segments_matches_pointwise():
    """Grouped evaluation on the segments the exact zero-mode integral cuts
    equals per-point evaluation bit for bit, and the per-point reference
    within SPLINE_RTOL."""
    mp = _mollified_2d()
    rng = np.random.default_rng(5)
    (lo0, hi0), (lo1, hi1) = mp.box
    base = np.column_stack([rng.uniform(lo0, hi0, 40), rng.uniform(lo1, hi1, 40)])
    slopes = np.array([0.7, -1.3])
    seen = []

    def fn(m, base):
        val, grad, hess = mp.along(base, slopes, m)
        x = (base[:, None, None, :] + m[..., None] * slopes).reshape(-1, 2)
        assert np.array_equal(val.ravel(), mp.value(x))
        _assert_near_reference(val.ravel(), _spline_reference(mp._table, x, (0, 0)))
        for i in range(2):
            assert np.array_equal(grad[i].ravel(), mp.grad_entry(i, x))
            for j in range(2):
                assert np.array_equal(hess[i][j].ravel(), mp.hess_entry(i, j, x))
                orders = tuple(int(i == k) + int(j == k) for k in range(2))
                _assert_near_reference(hess[i][j].ravel(),
                                       _spline_reference(mp._table, x, orders))
        seen.append(m.shape)
        return np.zeros(m.shape + (1,))

    _integrate_spline_exact(fn, [base], base, slopes, mp)
    B, S, Q = seen[0]
    assert Q == 4 and B * S > 2 * _GROUP_CHUNK


def _mollified(n):
    """The 2-D profile on the invariance suite's 81-point table, or a 3-D
    one on a 21-point table."""
    if n == 2:
        return _mollified_2d()
    prof = ProductProfile.bumps([0.0, 1.0, -0.5], [1.0, 0.8, 1.3])
    sigma = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, -0.02], [0.0, -0.02, 0.06]])
    return MollifiedProfile(prof, sigma, table_pts=21)


@pytest.mark.parametrize("slopes", [(1.0, 0.0), (0.0, 1.0), (0.7, -1.3), (1.0, 0.0, 0.0),
                                    (0.0, 1.0, 0.0), (0.5, 0.0, -0.2)])
def test_mollified_along_matches_pointwise_bit_for_bit(slopes):
    """On the knot segments of the exact zero-mode integral, along (which
    contracts the fixed axes once per row when only the first axis moves)
    and eval_many with the trailing run of zero-slope axes fixed per row
    equal value, grad_entry and hess_entry at the same points bit for bit.
    Row 0 has every coordinate on a knot; row 1 has its fixed coordinates
    three cells off the table, so it reads exact zeros."""
    n = len(slopes)
    mp = _mollified(n)
    t = mp._table
    slopes = np.array(slopes)
    lead = np.flatnonzero(slopes)[-1] + 1
    keys = _entry_keys(n)
    rng = np.random.default_rng(12)
    base = t.lows + (t.highs - t.lows) * rng.uniform(0.0, 1.0, (30, n))
    base[0] = t.lows + t.h * np.arange(t.pts // 3, t.pts // 3 + n)
    base[1] = np.where(slopes == 0.0, t.highs + 3.0 * t.h, base[1])
    seen = []

    def fn(m, base):
        val, grad, hess = mp.along(base, slopes, m)
        x = (base[:, None, None, :] + m[..., None] * slopes).reshape(-1, n)
        assert np.array_equal(val.ravel(), mp.value(x))
        for i in range(n):
            assert np.array_equal(grad[i].ravel(), mp.grad_entry(i, x))
            for j in range(n):
                assert np.array_equal(hess[i][j].ravel(), mp.hess_entry(i, j, x))
        if lead < n:
            rows = mp.eval_many(base[:, None, None, :lead] + m[..., None] * slopes[:lead],
                                keys, base[:, lead:])
            for key in keys:
                assert np.array_equal(rows[key].ravel(), mp._entry(key, x))
        seen.append(np.stack([val] + grad + [h for row in hess for h in row]))
        return np.zeros(m.shape + (1,))

    _integrate_spline_exact(fn, [base], base, slopes, mp)
    entries = np.concatenate(seen, axis=1)
    assert np.all(np.abs(entries[:, 0]).max(axis=(1, 2)) > 0.0)
    if not slopes.all():
        assert np.all(entries[:, 1] == 0.0)


@pytest.mark.parametrize("shape", [(81, 81), (241, 241), (21, 21, 21)])
def test_prefilter_matches_scipy_spline_filter(shape):
    """The numpy port of the recursive prefilter gives scipy.ndimage's
    coefficients (mirror boundaries, as its mode "constant" filters) to
    roundoff."""
    from scipy import ndimage
    data = np.random.default_rng(13).standard_normal(shape)
    ref = ndimage.spline_filter(data, order=3, mode="constant")
    assert np.abs(_prefilter(data) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_spline_table_reproduces_its_data_at_the_knots():
    """At every interior knot the interpolant is the tabulated value.  The
    table pads its coefficients with zeros beyond the edges, which the
    mirror boundary matches only where the data vanish, as a mollified
    profile's do eight standard deviations out; the edge knots are left out."""
    data = np.random.default_rng(14).standard_normal((21, 21))
    t = _SplineTable(data, [-1.0, 0.5], [2.0, 4.5])
    knots = np.meshgrid(*[t.lows[k] + t.h[k] * np.arange(t.pts) for k in range(2)],
                        indexing="ij")
    x = np.stack(knots, axis=-1)[1:-1, 1:-1]
    got = t.evaluate_many(x.reshape(-1, 1, 2), [(0, 0)])[0].reshape(x.shape[:2])
    assert np.abs(got - data[1:-1, 1:-1]).max() <= 1e-13 * np.abs(data).max()


def _entry_keys(n):
    return ([("v",)] + [("g", i) for i in range(n)]
            + [("h", i, j) for i in range(n) for j in range(i, n)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eval_many_matches_the_reference_for_every_order(n):
    """Every order tuple up to second derivatives at n = 1, 2 and 3, on
    groups of three points in one cell (some outside the table): groups
    equal single points bit for bit and the per-point reference within
    SPLINE_RTOL."""
    prof = ProductProfile.bumps([0.0, 1.0, -0.5][:n], [1.0, 0.8, 1.3][:n])
    sigma = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, -0.02], [0.0, -0.02, 0.06]])[:n, :n]
    mp = MollifiedProfile(prof, sigma, table_pts=21 if n == 3 else 81)
    t = mp._table
    rng = np.random.default_rng(9)
    cells = rng.integers(-2, t.pts + 1, size=(400, 1, n))
    x = t.lows + t.h * (cells + rng.uniform(0.0, 1.0, size=(400, 3, n)))
    keys = _entry_keys(n)
    grouped = mp.eval_many(x, keys)
    single = mp.eval_many(x.reshape(-1, 1, n), keys)
    for key in keys:
        assert grouped[key].shape == (400, 3)
        assert np.array_equal(grouped[key].ravel(), single[key].ravel())
        _assert_near_reference(grouped[key].ravel(),
                               _spline_reference(t, x.reshape(-1, n), mp._orders(key)))
    assert np.any(grouped[("v",)] == 0.0)


@pytest.mark.parametrize("slopes, rtol", [((1.0, 0.0), 1e-13), ((0.7, -1.3), 1e-10)])
def test_spline_exact_integral_against_eight_gauss_nodes(monkeypatch, slopes, rtol):
    """Four Gauss nodes per knot segment against eight, for the profile
    entries times e^{2m}: with one nonzero slope the profile is cubic in m
    on a segment (about 2e-15 relative), with two of degree 6 (about 2e-12)."""
    mp = _mollified_2d()
    rng = np.random.default_rng(7)
    (lo0, hi0), (lo1, hi1) = mp.box
    base = np.column_stack([rng.uniform(lo0, hi0, 40), rng.uniform(lo1, hi1, 40)])
    slopes = np.array(slopes)

    def fn(m, base):
        v, g, h = mp.along(base, slopes, m)
        w = np.exp(2.0 * m)
        return np.stack([v, g[0], g[1], h[0][0], h[0][1], h[1][1]], axis=-1) * w[..., None]

    four = _integrate_spline_exact(fn, [base], base, slopes, mp)
    monkeypatch.setattr(generator, "_SPLINE_GAUSS", gauss_legendre(0.0, 1.0, 8))
    eight = _integrate_spline_exact(fn, [base], base, slopes, mp)
    scale = np.abs(eight).max(axis=0)
    assert np.all(scale > 0.0)
    assert np.all(np.abs(four - eight).max(axis=0) <= rtol * scale)


def test_mollified_group_straddling_a_knot():
    """A tiny segment whose first node falls below a knot in floating point
    is evaluated in its midpoint's cell: the nodes in that cell keep their
    per-point bits, and the first is within 1e-12 of its own."""
    mp = _mollified_2d()
    t = mp._table
    knot = t.lows + t.h * np.array([40.0, 45.3])
    x = knot + np.array([-1e-15, 2e-15, 4e-15, 6e-15])[:, None] * np.array([1.0, 0.0])
    cells = np.floor((x - t.lows) / t.h)[:, 0]
    assert cells[0] < cells[1] == cells[3]
    keys = [("v",), ("g", 0), ("g", 1), ("h", 0, 0), ("h", 0, 1), ("h", 1, 1)]
    grouped = mp.eval_many(x[None], keys)
    for key in keys:
        point = mp._entry(key, x)
        assert np.abs(point).min() > 1e-3
        assert np.array_equal(grouped[key][0, 1:], point[1:])
        np.testing.assert_allclose(grouped[key][0], point, rtol=1e-12, atol=0.0)


def test_mollified_group_spanning_two_cells_raises():
    mp = _mollified_2d()
    t = mp._table
    x = t.lows + t.h * np.array([[[30.2, 40.5], [31.2, 40.5]]])
    with pytest.raises(ValueError):
        mp.eval_many(x, [("v",)])
    pts = np.random.default_rng(6).uniform(-1.0, 1.5, size=(50, 2))
    with pytest.raises(ValueError):        # a plain (P, n) array is one group
        mp.eval_many(pts, [("v",)])
    assert mp.eval_many(pts[:, None, :], [("v",)])[("v",)].shape == (50, 1)
    over = t.lows + t.h * np.array([[[29.9999999999, 40.5], [30.5, 40.5], [30.6, 40.5]]])
    with pytest.raises(ValueError):        # 1e-10 cells of overhang is not roundoff
        mp.eval_many(over, [("v",)])
    with pytest.raises(ValueError):        # along takes (B, S, Q), not (B, K)
        mp.along(pts[:2], np.array([0.7, -1.3]), np.zeros((2, 3)))


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
