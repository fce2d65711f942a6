"""Measure-valued symmetric dynamics, the flat-noise field baseline, and
the squared-Bessel total-mass law.

The simulated state is the positive measure mu_t on the angular grid,
held as cell masses; cell k is centred on its grid angle.  Per step
(`evolve`) the field is recovered from log masses of balls centred on the
grid angles (`gmc.log_ball_field`), the drift density pi xi (d_nH h_t + xi)
is applied against arclength (`recovered_drift`), and every cell mass takes
an exact square-root-diffusion transition (noncentral chi-square sampling
via the Poisson-Gamma mixture), so masses stay nonnegative by construction
and the bracket of int p dmu is (2 pi xi)^2 int p^2 dmu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmc import CircleMeasure, log_ball_field
from .loewner import DrivingPath
from .spectral import BoundaryField, eigenvalues, grid_dirichlet_to_neumann

TWO_PI = 2.0 * np.pi


@dataclass
class MeasurePath:
    """Time grid, measure states and diagnostics."""

    times: np.ndarray
    masses: np.ndarray            # (steps+1, M) cell masses
    absorbed_events: int = 0
    empty_windows: int = 0        # states with an empty ball window

    @property
    def total_mass(self) -> np.ndarray:
        return self.masses.sum(axis=1)


def cir_exact_step(x: np.ndarray, a: np.ndarray, sigma: float, dt: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Exact transition of dX = a dt + sigma sqrt(X) dB over one step.

    For a >= 0 the transition is (sigma^2 dt / 4) chi2_{4a/sigma^2}(lam)
    with lam = 4 X / (sigma^2 dt), sampled through the Poisson-Gamma
    mixture.  Negative drifts are split: the drift is applied
    deterministically with absorption at zero (counted), then the exact
    zero-drift substep runs; the conditional mean stays exact.

    Draw order, which fixes the stream: Poisson counts of the cells with
    a >= 0 in C order, then their Gamma variates, then the Poisson counts
    of the cells with a < 0, then their Gamma variates.  A Gamma variate
    of shape 0 is 0 and draws nothing (numpy's standard gamma returns 0
    there), so the cells of shape 0 need no filter.  The cells are split
    by drift sign, into one index array per sign, only when some drift is
    negative; the arithmetic runs in place on the arrays the split and the
    draws return.
    """
    x = np.asarray(x, dtype=float)
    a = np.broadcast_to(np.asarray(a, dtype=float), x.shape)
    scale = sigma * sigma * dt / 4.0
    pos = a >= 0.0
    if pos.all():
        return _grow(x, a, sigma, scale, rng), 0
    ipos, ineg = np.flatnonzero(pos), np.flatnonzero(~pos)
    out = np.empty(x.shape)
    grown = _grow(x.take(ipos), a.take(ipos), sigma, scale, rng)
    shrunk, absorbed = _shrink(x.take(ineg), a.take(ineg), dt, scale, rng)
    out.put(ipos, grown)
    out.put(ineg, shrunk)
    return out, absorbed


def _grow(x, a, sigma, scale, rng):
    """`cir_exact_step` of cells with drifts a >= 0, in one new array."""
    t = np.divide(x, scale)
    t /= 2.0
    npois = rng.poisson(t)
    np.multiply(4.0, a, out=t)
    t /= sigma * sigma
    t /= 2.0
    t += npois
    return _scaled_gamma(t, scale, rng)


def _shrink(x, a, dt, scale, rng):
    """`cir_exact_step` of cells with drifts a < 0, and the absorbed count."""
    t = np.multiply(a, dt)
    t += x
    absorbed = int(np.count_nonzero(t < 0.0))
    np.clip(t, 0.0, None, out=t)
    t /= scale
    t /= 2.0
    t[...] = rng.poisson(t)
    return _scaled_gamma(t, scale, rng), absorbed


def _scaled_gamma(shape, scale, rng):
    """scale * rng.gamma(shape, 2.0), written over shape.  numpy's gamma is
    its scale times the standard gamma, and doubling is exact, so the
    product (2 scale) * standard_gamma(shape) has the same bits."""
    rng.standard_gamma(shape, out=shape)
    shape *= 2.0 * scale
    return shape


def evolve(cells: np.ndarray, xi: float, dt: float, steps: int, N: int,
           rng: np.random.Generator):
    """Step rows of cell masses (..., M) of the symmetric dynamics.

    Per step every row takes the drift of its recovered field
    (`recovered_drift` at degree min(N, (M-1)//2)), and every cell an exact
    square-root-diffusion transition with sigma = 2 pi xi (`cir_exact_step`).
    Yields the cell masses and the number of absorbed cells after each step.
    """
    sigma = TWO_PI * xi
    degree = min(N, (cells.shape[-1] - 1) // 2)
    for _ in range(steps):
        cells, absorbed = cir_exact_step(cells, recovered_drift(cells, xi, degree),
                                         sigma, dt, rng)
        yield cells, absorbed


def recovered_drift(cells: np.ndarray, xi: float, N: int) -> np.ndarray:
    """Drift pi xi (d_nH h + xi) dtheta of rows of cell masses (..., M).

    h is each row's log-ball-mass field at a one-cell window
    (`gmc.log_ball_field`) projected to degree N, which keeps the drift of a
    noisy state perturbative.  A row whose window holds no mass drifts under
    the zero field, pi xi^2 dtheta per cell, as every row does at N = 0.
    """
    dtheta = TWO_PI / cells.shape[-1]
    zero_field = np.pi * xi * xi * dtheta
    if N == 0:
        return zero_field
    h, empty = log_ball_field(cells, dtheta, xi)
    drift = np.pi * xi * (grid_dirichlet_to_neumann(h, N) + xi) * dtheta
    if empty.any():
        drift = np.where(empty[..., None], zero_field, drift)
    return drift


def simulate_symmetric(mu0: CircleMeasure, xi: float, dt: float, T: float,
                       N: int, rng: np.random.Generator) -> MeasurePath:
    """Simulate the symmetric measure-valued dynamics from mu0 (`evolve`).

    States with a window that holds no mass are counted in `empty_windows`.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError("noise parameter must lie in (0, 1)")
    if np.any(mu0.density <= 0.0):
        raise ValueError("initial measure must be strictly positive")
    steps = int(round(T / dt))
    masses = np.empty((steps + 1, mu0.M))
    masses[0] = mu0.cell_masses
    absorbed = 0
    for k, (x, nab) in enumerate(evolve(masses[0], xi, dt, steps, N, rng), 1):
        masses[k] = x
        absorbed += nab
    _, empty = log_ball_field(masses, TWO_PI / mu0.M, xi)
    return MeasurePath(np.arange(steps + 1) * dt, masses, absorbed, int(empty.sum()))


def simulate_mass_ensemble(mass0: float, xi: float, dt: float, T: float,
                           n_paths: int, rng: np.random.Generator,
                           M: int = 16, N: int = 4) -> np.ndarray:
    """Total-mass paths (n_paths, steps+1) of the symmetric dynamics (`evolve`)
    from the uniform state on M cells, vectorized over paths."""
    steps = int(round(T / dt))
    out = np.empty((n_paths, steps + 1))
    for k, total in enumerate(_total_mass_steps(mass0, xi, dt, steps, n_paths,
                                                rng, M, N)):
        out[:, k] = total
    return out


def _total_mass_steps(mass0: float, xi: float, dt: float, steps: int,
                      n_paths: int, rng: np.random.Generator, M: int, N: int):
    """Yield the paths' total masses at t = 0, dt, ..., steps * dt."""
    x = np.full((n_paths, M), mass0 / M)
    yield x.sum(axis=1)
    for x, _ in evolve(x, xi, dt, steps, N, rng):
        yield x.sum(axis=1)


def bracket_stats(paths: np.ndarray, xi: float, dt: float):
    """(quadratic variation, predicted bracket (2 pi xi)^2 int X dt, stderr
    of their difference) of total-mass paths (n_paths, steps+1).

    qv - pred is the mean over paths of q_i - p_i, each path's sums of
    (dX - c)^2 about the drift c = 2 pi^2 xi^2 dt and of sigma^2 X dt, so
    its stderr is their sd / sqrt(n)."""
    sq = (np.diff(paths, axis=1) - 2.0 * np.pi ** 2 * xi ** 2 * dt) ** 2
    qv = sq.mean(axis=0).sum()
    pred = ((TWO_PI * xi) ** 2 * paths[:, :-1].mean(axis=0) * dt).sum()
    excess = sq.sum(axis=1) - (TWO_PI * xi) ** 2 * dt * paths[:, :-1].sum(axis=1)
    return qv, pred, excess.std(ddof=1) / np.sqrt(paths.shape[0])


@dataclass
class MassStats:
    slope: float
    slope_target: float
    slope_rel_err: float
    slope_stderr: float
    scaled_drift: float
    mean_curve: np.ndarray
    times: np.ndarray
    var_curve: np.ndarray


def total_mass_stats(paths: np.ndarray, times: np.ndarray, xi: float) -> MassStats:
    """Drift and scaling diagnostics of the total-mass ensemble.

    The mean grows at 2 pi^2 xi^2 per unit time; under Y = X / (2 pi xi)^2
    the drift is 1/2 (the squared-Bessel normalization).  The least-squares
    slope of the mean curve is the mean of the per-path least-squares
    slopes, so its standard error is their sample sd over sqrt(n_paths).
    """
    if paths.shape[0] < 100:
        raise ValueError("need at least 100 paths")
    return _mass_stats(paths.mean(axis=0), paths.var(axis=0),
                       paths @ _slope_weights(times), times, xi)


def mass_law_stats(mass0: float, xi: float, dt: float, T: float, n_paths: int,
                   rng: np.random.Generator) -> MassStats:
    """`total_mass_stats` of one-cell (M=1, N=0) `simulate_mass_ensemble`
    paths, without the paths.

    Same draws and same statistics, accumulated step by step, so memory
    holds O(n_paths) numbers instead of the (n_paths, steps+1) array.
    """
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    steps = int(round(T / dt))
    times = np.arange(steps + 1) * dt
    w = _slope_weights(times)
    mean = np.empty(steps + 1)
    var = np.empty(steps + 1)
    slopes = np.zeros(n_paths)
    for k, total in enumerate(_total_mass_steps(mass0, xi, dt, steps, n_paths,
                                                rng, M=1, N=0)):
        mean[k] = total.mean()
        var[k] = total.var()
        slopes += w[k] * total
    return _mass_stats(mean, var, slopes, times, xi)


def _slope_weights(times: np.ndarray) -> np.ndarray:
    """Weights w with w @ y the least-squares slope of y against times."""
    c = times - times.mean()
    return c / (c @ c)


def _mass_stats(mean: np.ndarray, var: np.ndarray, slopes: np.ndarray,
                times: np.ndarray, xi: float) -> MassStats:
    A = np.vstack([times, np.ones_like(times)]).T
    slope, _ = np.linalg.lstsq(A, mean, rcond=None)[0]
    stderr = slopes.std(ddof=1) / np.sqrt(slopes.size)
    target = 2.0 * np.pi ** 2 * xi ** 2
    scaled = slope / (TWO_PI * xi) ** 2
    return MassStats(float(slope), float(target),
                     float(abs(slope - target) / target), float(stderr),
                     float(scaled), mean, times, var)


def mass_law_slope_sd(mass0: float, xi: float, dt: float, T: float) -> float:
    """Closed-form sd of one path's least-squares slope, one-cell mass law.

    With M=1 the total mass solves dX = a dt + sigma sqrt(X) dB with
    a = 2 pi^2 xi^2 and sigma = 2 pi xi, and the exact transitions keep
    the continuous covariance on the grid: X_t - a t is a martingale with
    Var(X_t) = sigma^2 (mass0 t + a t^2 / 2).  Its increments are
    uncorrelated, so the slope sum_i w_i X_i has variance
    sum_k (Var X_{t_k} - Var X_{t_{k-1}}) (sum_{i >= k} w_i)^2.
    """
    steps = int(round(T / dt))
    times = np.arange(steps + 1) * dt
    a = 2.0 * np.pi ** 2 * xi ** 2
    var = (TWO_PI * xi) ** 2 * (mass0 * times + 0.5 * a * times ** 2)
    tail = np.cumsum(_slope_weights(times)[::-1])[::-1]
    return float(np.sqrt(np.diff(var) @ tail[1:] ** 2))


def mass_law_paths(mass0: float, xi: float, dt: float, T: float,
                   rel_tol: float) -> int:
    """Path count at which a `rel_tol` relative slope gate is 4 se wide.

    Sized from `mass_law_slope_sd` with a 5% margin on the sd: at these counts
    the sampled stderr scatters by about 0.6% around the closed form (the
    per-path slopes have kurtosis near 9), so the sampled stderr, too,
    keeps the gate at least four standard errors out.
    """
    target = 2.0 * np.pi ** 2 * xi ** 2
    sd = 1.05 * mass_law_slope_sd(mass0, xi, dt, T)
    return int(np.ceil((4.0 * sd / (rel_tol * target)) ** 2))


def ou_baseline(h0: BoundaryField, dt: float, T: float,
                rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """Per-mode exact transitions of the flat-noise field evolution.

    Mode k relaxes at rate pi lam_k toward stationary variance
    2 pi / lam_k; the zero mode carries no restoring force and is held
    fixed.  Returns coefficient paths of shape (n_paths, steps+1, 2N+1).
    """
    N = h0.degree
    lam = eigenvalues(N)
    steps = int(round(T / dt))
    out = np.empty((n_paths, steps + 1, 2 * N + 1))
    out[:, 0, :] = h0.coeffs
    decay = np.exp(-np.pi * lam[1:] * dt)
    noise_sd = np.sqrt((TWO_PI / lam[1:]) * (1.0 - decay ** 2))
    for k in range(steps):
        z = rng.standard_normal((n_paths, 2 * N))
        out[:, k + 1, 1:] = out[:, k, 1:] * decay + noise_sd * z
        out[:, k + 1, 0] = out[:, k, 0]
    return out


def driving_from_state(path: MeasurePath, xi: float) -> DrivingPath:
    """Growth driving path e^{-xi h_t} from a simulated measure path.

    The field is recovered per step at a one-cell window with the
    calibrated ball-mass normalization; a step whose ball window holds no
    mass is dropped and counted in the returned path's `dropped`.
    """
    eps = TWO_PI / path.masses.shape[1]
    h, empty = log_ball_field(path.masses[:-1], eps, xi)
    keep = ~empty
    measures = [CircleMeasure(np.exp(-xi * row)) for row in h[keep] - np.log(2.0 * eps) / xi]
    return DrivingPath(np.append(path.times[0], path.times[1:][keep]), measures,
                       int(empty.sum()))

