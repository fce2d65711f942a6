import numpy as np
import pytest

from growthlab.dynamics import (MeasurePath, bracket_stats, cir_exact_step,
                                driving_from_state, evolve, mass_law_paths,
                                mass_law_slope_sd, mass_law_stats, ou_baseline,
                                recovered_drift, simulate_mass_ensemble,
                                simulate_symmetric, total_mass_stats)
from growthlab.gmc import CircleMeasure
from growthlab.loewner import flow
from growthlab.rng import make_rng
from growthlab.spectral import BoundaryField

XI = 1.0 / np.sqrt(6.0)


def test_cir_exact_moments():
    rng = make_rng(1)
    n = 200000
    x0 = np.full(n, 0.5)
    x1, nab = cir_exact_step(x0, np.full(n, 0.3), 1.2, 0.05, rng)
    mean_t = 0.5 + 0.3 * 0.05
    var_t = 1.2 ** 2 * 0.05 * 0.5 + 1.2 ** 2 * 0.05 ** 2 * 0.3 / 2
    assert abs(x1.mean() - mean_t) < 4 * np.sqrt(var_t / n)
    assert abs(x1.var() - var_t) < 5 * var_t * np.sqrt(2.0 / n)
    assert x1.min() >= 0.0
    # negative drift keeps the exact conditional mean when no absorption
    x2, nab2 = cir_exact_step(x0, np.full(n, -0.3), 1.2, 0.05, rng)
    assert abs(x2.mean() - (0.5 - 0.015)) < 4 * np.sqrt(var_t / n)
    assert nab2 == 0
    # absorption flag fires when the deterministic drift overshoots zero
    x3, nab3 = cir_exact_step(np.full(4, 1e-6), np.full(4, -1.0), 1.2, 0.05, rng)
    assert nab3 == 4 and np.all(x3 >= 0.0)


def _reference_cir_exact_step(x, a, sigma, dt, rng):
    """`cir_exact_step` with boolean-mask gathers, kept as the reference for
    its values, its absorbed count and its draws."""
    x = np.asarray(x, dtype=float)
    a = np.broadcast_to(np.asarray(a, dtype=float), x.shape)
    scale = sigma * sigma * dt / 4.0
    pos = a >= 0.0
    out = np.empty_like(x)
    absorbed = 0

    if np.any(pos):
        lam = x[pos] / scale
        df = 4.0 * a[pos] / (sigma * sigma)
        npois = rng.poisson(lam / 2.0)
        shape = df / 2.0 + npois
        g = np.zeros_like(lam)
        nz = shape > 0
        g[nz] = rng.gamma(shape[nz], 2.0)
        out[pos] = scale * g
    if np.any(~pos):
        xs = x[~pos] + a[~pos] * dt
        absorbed = int(np.sum(xs < 0.0))
        xs = np.clip(xs, 0.0, None)
        lam = xs / scale
        npois = rng.poisson(lam / 2.0)
        g = np.zeros_like(lam)
        nz = npois > 0
        g[nz] = rng.gamma(npois[nz].astype(float), 2.0)
        out[~pos] = scale * g
    return out, absorbed


def _cir_cases():
    """Inputs (x, a) of `cir_exact_step` by name: each sign layout of the
    drift on 1-D and 2-D states."""
    x = make_rng(40).gamma(2.0, 0.5, size=(30, 16))
    a = make_rng(41).normal(0.0, 1.5, size=x.shape)
    zero = x.copy()
    zero[3, 2:9] = 0.0
    cases = {"scalar": (x[:, :1], 0.4),
             "zero-drift-on-zero-mass": (zero, np.where(zero == 0.0, 0.0, np.abs(a))),
             "absorbs": (np.full(8, 1e-6), np.full(8, -1.0))}
    for name, drift in (("nonneg", np.abs(a)), ("neg", -np.abs(a)), ("mixed", a)):
        cases[name + "-2d"] = (x, drift)
        cases[name + "-1d"] = (x[7], drift[7])
    return cases


CIR_CASES = _cir_cases()


@pytest.mark.parametrize("name", CIR_CASES)
def test_cir_exact_step_keeps_the_reference_draws(name):
    x, a = CIR_CASES[name]
    rng, ref_rng = make_rng(42), make_rng(42)
    for _ in range(3):
        got, absorbed = cir_exact_step(x, a, 1.2, 0.05, rng)
        want, ref_absorbed = _reference_cir_exact_step(x, a, 1.2, 0.05, ref_rng)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert absorbed == ref_absorbed
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)
        x = got
    if name == "absorbs":
        assert ref_absorbed > 0


def test_drift_only_slope_exact():
    # a uniform state recovers a constant field: the drift sums to the
    # mass law's slope 2 pi^2 xi^2, at every degree and in a batch
    cells = np.outer([1.0, 0.5, 3.0], CircleMeasure.uniform(2 * np.pi, 16).cell_masses)
    for N in (0, 4):
        drift = np.broadcast_to(recovered_drift(cells, XI, N), cells.shape)
        assert np.abs(drift.sum(axis=1) - 2 * np.pi ** 2 * XI ** 2).max() < 1e-12


def _one_cell_drift(x, xi, N):
    """`recovered_drift` written out for rows with mass in every window:
    centred one-cell window (the cell plus half of each neighbour), floored
    log, degree-N d_nH."""
    m = x + 0.5 * (np.roll(x, 1, axis=-1) + np.roll(x, -1, axis=-1))
    spec = np.fft.rfft(np.log(np.clip(m, 1e-12, None)) / xi, axis=-1)
    k = np.arange(spec.shape[-1])
    dnh = np.fft.irfft(spec * np.where(k <= N, -k, 0.0), n=x.shape[-1], axis=-1)
    return np.pi * xi * (dnh + xi) * (2 * np.pi / x.shape[-1])


def _smooth_state(M):
    h = 0.8 * BoundaryField.basis(1, 4) + 0.5 * BoundaryField.basis(4, 4)
    return CircleMeasure(40.0 * np.exp(XI * h.values(M)))


def test_symmetric_and_ensemble_drifts_agree():
    M, N = 16, 4
    path = simulate_symmetric(_smooth_state(M), XI, 1e-3, 0.02, N, make_rng(18))
    states = path.masses[:-1]
    # the one drift keeps the written-out arithmetic bit for bit, on a batch
    # of states (the ensemble) and on each state alone (simulate_symmetric)
    want = _one_cell_drift(states, XI, N)
    assert np.array_equal(recovered_drift(states, XI, N), want)
    assert all(np.array_equal(recovered_drift(x, XI, N), w) for x, w in zip(states, want))


def test_empty_window_row_steps_under_the_zero_field():
    M, N, dt = 16, 4, 1e-3
    empty = np.full(M, 2.0)
    empty[5:8] = 0.0                # cell 6 and both its neighbours hold nothing
    cells = np.stack([empty, _smooth_state(M).cell_masses])
    (got, _), = evolve(cells, XI, dt, 1, N, make_rng(19))
    zero_field = np.pi * XI ** 2 * (2 * np.pi / M)
    drift = np.stack([np.full(M, zero_field), _one_cell_drift(cells, XI, N)[1]])
    want, _ = cir_exact_step(cells, drift, 2 * np.pi * XI, dt, make_rng(19))
    assert np.array_equal(got, want)
    # the floored log of the empty window would have pulled mass out hard
    assert _one_cell_drift(empty, XI, N).min() < -1.0


def test_one_cell_besq_reduction():
    paths = simulate_mass_ensemble(0.25, XI, 1e-3, 0.5, 4000, make_rng(3), M=1, N=0)
    times = np.arange(paths.shape[1]) * 1e-3
    stats = total_mass_stats(paths, times, XI)
    assert stats.slope_rel_err < 0.05
    assert abs(stats.scaled_drift - 0.5) < 0.05 * 0.5
    assert paths.min() >= 0.0


def test_slope_stderr_matches_closed_form():
    # the O(steps) tail-sum form equals w' C w with the squared-Bessel
    # covariance C(s, t) = sigma^2 (x0 s + a s^2 / 2), s <= t
    times = np.arange(501) * 1e-3
    a, s2 = 2 * np.pi ** 2 * XI ** 2, (2 * np.pi * XI) ** 2
    w = times - times.mean()
    w /= w @ w
    s = np.minimum.outer(times, times)
    dense = np.sqrt(w @ (s2 * (0.1 * s + 0.5 * a * s ** 2)) @ w)
    sd = mass_law_slope_sd(0.1, XI, 1e-3, 0.5)
    assert abs(sd / dense - 1.0) < 1e-12
    # the sampled stderr: the per-path slopes have kurtosis near 9, so its
    # own relative error at 20000 paths is about 1%
    n = 20000
    stats = mass_law_stats(0.1, XI, 1e-3, 0.5, n, make_rng(16))
    assert abs(stats.slope_stderr / (sd / np.sqrt(n)) - 1.0) < 0.05


def test_mass_law_stats_streams_the_ensemble():
    paths = simulate_mass_ensemble(0.1, XI, 1e-3, 0.2, 300, make_rng(17), M=1, N=0)
    ref = total_mass_stats(paths, np.arange(paths.shape[1]) * 1e-3, XI)
    got = mass_law_stats(0.1, XI, 1e-3, 0.2, 300, make_rng(17))
    for field in ("slope", "slope_stderr", "scaled_drift"):
        assert abs(getattr(got, field) / getattr(ref, field) - 1.0) < 1e-12
    assert np.allclose(got.mean_curve, ref.mean_curve, rtol=1e-12, atol=0.0)
    assert np.allclose(got.var_curve, ref.var_curve, rtol=1e-10, atol=1e-15)
    with pytest.raises(ValueError):
        mass_law_stats(0.1, XI, 1e-3, 0.2, 10, make_rng(17))


def test_mass_law_paths_powers_the_gate():
    n = mass_law_paths(0.1, XI, 1e-3, 0.5, rel_tol=0.02)
    se = mass_law_slope_sd(0.1, XI, 1e-3, 0.5) / np.sqrt(n)
    assert 0.02 * 2 * np.pi ** 2 * XI ** 2 >= 4.0 * 1.05 * se
    assert 0.02 * 2 * np.pi ** 2 * XI ** 2 < 4.0 * 1.06 * se


def test_total_mass_stats_requires_paths():
    with pytest.raises(ValueError):
        total_mass_stats(np.ones((10, 5)), np.arange(5.0), XI)


def test_bracket_structure():
    paths = simulate_mass_ensemble(40 * np.pi, XI, 1e-3, 0.2, 1500, make_rng(4),
                                   M=16, N=4)
    qv, pred, se = bracket_stats(paths, XI, 1e-3)
    assert abs(qv / pred - 1.0) < 0.05 and abs(qv - pred) < 3 * se


def test_martingale_residual():
    reps = 400
    ens = simulate_mass_ensemble(40 * np.pi, XI, 1e-3, 0.12, reps, make_rng(5),
                                 M=16, N=4)
    drift_line = 2 * np.pi ** 2 * XI ** 2 * np.arange(ens.shape[1]) * 1e-3
    resid = ens - ens[:, :1] - drift_line[None, :]
    for frac in (0.33, 0.66, 1.0):
        k = int(frac * (ens.shape[1] - 1))
        se = resid[:, k].std(ddof=1) / np.sqrt(reps)
        assert abs(resid[:, k].mean()) < 3 * se


def test_simulate_symmetric_positivity_and_errors():
    path = simulate_symmetric(CircleMeasure.uniform(40 * np.pi, 32), XI, 1e-3,
                              0.05, 8, make_rng(6))
    assert path.masses.min() >= 0.0
    with pytest.raises(ValueError):
        simulate_symmetric(CircleMeasure.uniform(1.0, 8), 1.2, 1e-3, 0.01, 2, make_rng(7))
    with pytest.raises(ValueError):
        simulate_symmetric(CircleMeasure(np.zeros(8)), XI, 1e-3, 0.01, 2, make_rng(8))


def test_ou_stationary_variances():
    h0 = BoundaryField.zeros(6)
    out = ou_baseline(h0, 0.02, 5.0 / np.pi, make_rng(9), n_paths=10000)
    for k in (1, 2, 3, 4, 8):
        lam = np.ceil(k / 2)
        v = out[:, -1, k].var(ddof=1)
        target = 2 * np.pi / lam
        assert abs(v - target) < 3 * target * np.sqrt(2.0 / out.shape[0])
    # zero mode held fixed
    assert np.all(out[:, :, 0] == 0.0)


def test_ou_pure_decay_and_spectral_gap():
    # ensemble decay of the mean within two percent: mode 1 at rate pi and
    # mode 3 at rate 2 pi (there two percent is about 6.7 standard errors)
    h0 = 10.0 * (BoundaryField.basis(1, 2) + BoundaryField.basis(3, 2))
    big = ou_baseline(h0, 0.01, 0.2, make_rng(12), n_paths=40000)
    for k, rate in ((1, np.pi), (3, 2 * np.pi)):
        est = big[:, -1, k].mean() / 10.0
        assert abs(est / np.exp(-rate * 0.2) - 1.0) < 0.02


def test_ou_stationarity_against_fresh_samples():
    from growthlab.fields import sample_trace_batch

    h0 = BoundaryField.zeros(4)
    out = ou_baseline(h0, 0.05, 5.0 / np.pi, make_rng(13), n_paths=8000)
    fresh = sample_trace_batch(4, 8000, make_rng(14))
    for k in (1, 3, 5):
        v1 = out[:, -1, k].var(ddof=1)
        v2 = fresh[:, k].var(ddof=1)
        pooled = (v1 + v2) * np.sqrt(2.0 / 8000)
        assert abs(v1 - v2) < 3 * pooled


def test_driving_from_state_constant_field():
    M = 16
    flat = MeasurePath(np.array([0.0, 1e-3, 2e-3]),
                       np.tile(np.full(M, 2 * np.pi / M), (3, 1)))
    driving = driving_from_state(flat, XI)
    assert driving.dropped == 0
    # the calibrated shift recovers the zero field of the flat measure of
    # mass 2 pi: driving density one, radial flow scaling
    dens = driving.measures[0].density
    assert np.abs(dens - 1.0).max() < 1e-12
    g = flow(driving, 0.5 + 0j).at_end()
    assert abs(abs(g) - 0.5 * np.exp(driving.mass_integral())) < 1e-8
    assert abs(np.angle(g)) < 1e-10
    # xi -> 0: the driving density approaches arclength (density one)
    tiny = driving_from_state(flat, 1e-9)
    assert np.abs(tiny.measures[0].density - 1.0).max() < 1e-6


def test_absorbed_states_flagged():
    # tiny cells with strong noise absorb and are counted
    path = simulate_symmetric(CircleMeasure.uniform(0.05, 16), XI, 1e-3, 0.05,
                              4, make_rng(15))
    assert path.absorbed_events >= 0
    assert path.masses.min() >= 0.0
    # a one-cell window is empty when a cell and both neighbours are; such
    # states are counted
    m = path.masses
    empty = ((m == 0.0) & (np.roll(m, 1, axis=1) == 0.0)
             & (np.roll(m, -1, axis=1) == 0.0)).any(axis=1)
    assert path.empty_windows == empty.sum() > 0
    # the driving path leaves those states out and counts them
    driving = driving_from_state(path, XI)
    assert path.empty_windows == driving.dropped == 1
    assert len(driving.measures) + driving.dropped == path.masses.shape[0] - 1
