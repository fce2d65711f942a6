"""Multiplicative chaos of the boundary trace field at fixed truncation.

The exponential e^{s xi h} of a degree-N trace sample is renormalized with
the exact counterterm xi^2 Var(h_N)/2, where Var(h_N) = 2 sum_{m<=N} 1/m is
constant on the circle, so the density has pointwise mean one at every N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import BoundaryField, grid_angles


@dataclass
class CircleMeasure:
    """Nonnegative density against arclength on an equispaced angular grid."""

    density: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        self.density = np.asarray(self.density, dtype=float)
        if np.any(self.density < -1e-12):
            raise ValueError("density must be nonnegative")
        self.total_mass = float(self.density.sum() * (2.0 * np.pi / self.density.size))

    @property
    def M(self) -> int:
        return self.density.size

    @property
    def angles(self) -> np.ndarray:
        return grid_angles(self.M)

    @property
    def cell_masses(self) -> np.ndarray:
        """Mass of each grid cell: the density times the cell width."""
        return self.density * (2.0 * np.pi / self.M)

    @classmethod
    def uniform(cls, mass: float, M: int) -> "CircleMeasure":
        return cls(np.full(M, mass / (2.0 * np.pi)))

    @classmethod
    def narrow_bump(cls, center: float, mass: float, M: int) -> "CircleMeasure":
        """Near-atom of the given mass: a raised-cosine bump of half-width
        two cells."""
        theta = grid_angles(M)
        d = np.angle(np.exp(1j * (theta - center)))
        width = 2 * (2.0 * np.pi / M)
        prof = np.where(np.abs(d) < width, 1.0 + np.cos(np.pi * d / width), 0.0)
        prof *= mass / (prof.sum() * (2.0 * np.pi / M))
        return cls(prof)

    def rotate(self, cells: int) -> "CircleMeasure":
        """Rotation acts by index shift."""
        return CircleMeasure(np.roll(self.density, cells))

    def integrate(self, values: np.ndarray) -> float:
        """Integral of grid values against the measure."""
        return float(np.dot(values, self.density) * (2.0 * np.pi / self.M))

    def integrate_field(self, p: BoundaryField) -> float:
        return self.integrate(p.values(self.M))

    def __mul__(self, c: float) -> "CircleMeasure":
        return CircleMeasure(self.density * float(c))

    __rmul__ = __mul__

    def __add__(self, other: "CircleMeasure") -> "CircleMeasure":
        return CircleMeasure(self.density + other.density)


def truncated_pointwise_variance(N: int) -> float:
    """Var h_N(w) = 2 sum_{m<=N} 1/m, independent of w."""
    return 2.0 * np.sum(1.0 / np.arange(1, N + 1))


def chaos_density_batch(values: np.ndarray, sign: int, xi: float, N: int) -> np.ndarray:
    """exp(sign xi h - xi^2 Var(h_N)/2) from grid samples of h (batched)."""
    if not 0.0 < xi < 1.0:
        raise ValueError("chaos parameter must lie in (0, 1)")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return np.exp(sign * xi * values - 0.5 * xi * xi * truncated_pointwise_variance(N))


def chaos_measure(h: BoundaryField, sign: int, xi: float, M: int) -> CircleMeasure:
    """Normalized chaos measure e^{sign xi h} of a degree-N trace sample."""
    return CircleMeasure(chaos_density_batch(h.values(M), sign, xi, h.degree))


def chaos_derivative(p: BoundaryField, f: BoundaryField, h: BoundaryField,
                     alpha: float, M: int) -> tuple[float, float]:
    """Directional derivative of the weighted chaos mass along p.

    Returns (central difference at step 1e-4, alpha * integral of f p
    against the chaos measure); the two agree to the finite-difference
    error.
    """
    if not 0.0 < abs(alpha) < 1.0:
        raise ValueError(f"chaos exponent must satisfy 0 < |alpha| < 1, got {alpha!r}")
    fd_step = 1e-4
    base = chaos_density_batch(h.values(M), 1 if alpha > 0 else -1, abs(alpha), h.degree)
    fv, pv = f.values(M), p.values(M)
    dtheta = 2.0 * np.pi / M
    plus = float(np.sum(fv * base * np.exp(alpha * fd_step * pv)) * dtheta)
    minus = float(np.sum(fv * base * np.exp(-alpha * fd_step * pv)) * dtheta)
    fd = (plus - minus) / (2.0 * fd_step)
    exact = alpha * float(np.sum(fv * pv * base) * dtheta)
    return fd, exact


def shifted_covariance_field(p: BoundaryField, N: int) -> BoundaryField:
    """Field w -> pairing of p with the truncated log kernel centered at w.

    Equals 2 pi sum_{m<=N} p_m / m where p_m is the degree-m component.
    """
    n = min(p.degree, N)
    c = np.zeros(2 * n + 1)
    m = np.arange(1, n + 1)
    c[2 * m - 1] = 2.0 * np.pi * p.coeffs[2 * m - 1] / m
    c[2 * m] = 2.0 * np.pi * p.coeffs[2 * m] / m
    return BoundaryField(c)


def weighted_field_check(f: BoundaryField, symbols: list[BoundaryField], profile,
                         alpha: float, N: int, M: int, n_samples: int,
                         rng: np.random.Generator, batch: int = 2048):
    """Chaos-weighted expectation versus the shifted-field representation.

    Compares E[ int f dM_alpha(h) F(h) ] with the same expectation computed
    by shifting h by alpha times the truncated covariance, under common
    random numbers.  Returns (lhs, rhs, stderr of the paired difference).
    """
    from .fields import batch_values, mean_stderr, monte_carlo_rows, sample_trace_batch

    fv = f.values(M)
    dtheta = 2.0 * np.pi / M
    shift_fields = [shifted_covariance_field(p, N) for p in symbols]
    shifts = np.stack([s.values(M) for s in shift_fields], axis=-1)  # (M, n)

    def per_batch(b):
        coeffs = sample_trace_batch(N, b, rng)
        vals = batch_values(coeffs, M)
        dens = chaos_density_batch(vals, 1 if alpha >= 0 else -1, abs(alpha), N)
        args = np.stack([coeffs @ p.truncate(N).coeffs for p in symbols], axis=-1)
        lhs = (fv * dens).sum(axis=1) * dtheta * profile.value(args)
        shifted = args[:, None, :] + alpha * shifts[None, :, :]
        rhs = (profile.value(shifted) * fv[None, :]).sum(axis=1) * dtheta
        return np.stack([lhs, lhs - rhs], axis=-1)

    rows = monte_carlo_rows(per_batch, n_samples, batch)
    lhs = float(rows[:, 0].mean())
    diff, stderr = mean_stderr(rows[:, 1])
    return lhs, lhs - diff, stderr


def ball_masses(cells: np.ndarray, eps: float) -> np.ndarray:
    """Mass of the ball (x_k - eps, x_k + eps) about every grid angle x_k.

    `cells` are rows of cell masses, shape (..., M); cell k spans
    [x_k - dtheta/2, x_k + dtheta/2), so each ball is centred on its cell.
    The window is a weighted sum of symmetric rolls, innermost pair first,
    each end cell weighted by the fraction of it inside the ball.  The arc
    must fit on the circle, 0 < eps <= pi; at eps = pi it is the circle.
    """
    if not 0.0 < eps <= np.pi:
        raise ValueError(f"ball radius must lie in (0, pi], got {eps!r}")
    cells = np.asarray(cells, dtype=float)
    r = eps / (2.0 * np.pi / cells.shape[-1])     # half-width in cells
    out = min(2.0 * r, 1.0) * cells
    for d in range(1, int(np.ceil(r + 0.5))):
        out = out + min(r + 0.5 - d, 1.0) * (np.roll(cells, d, axis=-1)
                                             + np.roll(cells, -d, axis=-1))
    return out


def log_ball_field(cells: np.ndarray, eps: float,
                   xi: float) -> tuple[np.ndarray, np.ndarray]:
    """h_eps(x) = (1/xi) log mu(B_eps(x)) for rows of cell masses, and a flag
    per row whose window somewhere holds no mass; each caller decides what
    a flagged row means.  Ball masses are raised to the smallest normal
    float before the log, so h stays finite."""
    if not 0.0 < xi < 1.0:
        raise ValueError("chaos parameter must lie in (0, 1)")
    masses = ball_masses(cells, eps)
    return (np.log(np.clip(masses, np.finfo(float).tiny, None)) / xi,
            np.any(masses <= 0.0, axis=-1))


def inverse_map(mu: CircleMeasure, eps: float, xi: float, degree: int) -> BoundaryField:
    """Recover the field from its chaos measure via log ball masses.

    h_eps(x) = (1/xi) log mu(B_eps(x)), centred on its grid mean (the
    centred functional is all downstream checks use) and projected to the
    requested degree.
    """
    h, empty = log_ball_field(mu.cell_masses, eps, xi)
    if empty:
        raise ValueError("ball mass vanished; field cannot be recovered")
    return BoundaryField.from_grid(h - h.mean(), degree=min(degree, (mu.M - 1) // 2))


def second_moment_truncated(xi: float, N: int, n_grid: int = 200001) -> float:
    """E |mu_xi|^2 at truncation N, by quadrature of exp(xi^2 C_N)."""
    u = np.linspace(0.0, 2.0 * np.pi, n_grid)
    m = np.arange(1, N + 1)
    C = 2.0 * (np.cos(np.outer(u, m)) / m).sum(axis=1)
    return 2.0 * np.pi * np.trapezoid(np.exp(xi * xi * C), u)


def second_moment_limit(xi: float) -> float:
    """E |mu_xi|^2 target: 2 pi times the integral of (2 sin(u/2))^{-2 xi^2}."""
    from scipy.integrate import quad   # imported here: slow, and only needed here
    val, _ = quad(lambda u: (2.0 * np.sin(u / 2.0)) ** (-2.0 * xi * xi), 0.0, 2.0 * np.pi,
                  points=[0.0, 2.0 * np.pi], limit=200)
    return 2.0 * np.pi * val
