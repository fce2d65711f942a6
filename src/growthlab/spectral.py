"""Exact spectral calculus on the unit circle.

Real trigonometric polynomials are stored in the orthonormal basis of
L^2 of the circle with arclength measure,

    e_0 = 1/sqrt(2 pi),  e_{2m-1} = cos(m.)/sqrt(pi),  e_{2m} = sin(m.)/sqrt(pi),

with eigenvalue ladder lam_k = ceil(k/2).  Harmonic extension, harmonic
conjugation, the Dirichlet-to-Neumann operator and tangential derivative
act diagonally (or skew-diagonally) in this basis, so every operator here
is exact on band-limited data given a large enough grid.

This module is the one place that converts between e_k coefficients and
grid samples: batch_values (coefficients -> grid) and batch_coeffs (grid ->
coefficients) act along the last axis of arrays of any leading shape.
grid_conjugate and grid_dirichlet_to_neumann stay grid -> grid operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQRT_PI = np.sqrt(np.pi)
SQRT_2PI = np.sqrt(2.0 * np.pi)


class GridTooSmallError(ValueError):
    """Grid cannot resolve the requested polynomial degree."""


def grid_angles(M: int) -> np.ndarray:
    """M equispaced angles on [0, 2pi)."""
    return 2.0 * np.pi * np.arange(M) / M


def eigenvalues(N: int) -> np.ndarray:
    """lam_k = ceil(k/2) for k = 0..2N."""
    return np.ceil(np.arange(2 * N + 1) / 2.0)


# -- the coefficient <-> grid transform (batched along the last axis) ---------


def fourier_coeffs(values: np.ndarray) -> np.ndarray:
    """rfft of grid samples along the last axis over the grid size: c_m with
    values = c_0 + 2 Re sum_{m >= 1} c_m e^{i m theta} below the Nyquist mode."""
    return np.fft.rfft(values, axis=-1) / values.shape[-1]


def batch_values(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Samples at M equispaced angles of e_k coefficient rows (..., 2N+1),
    by inverse FFT; raises GridTooSmallError when M < 2N+1."""
    N = (coeffs.shape[-1] - 1) // 2
    if M < 2 * N + 1:
        raise GridTooSmallError(f"grid size {M} aliases degree {N}")
    spec = np.zeros(coeffs.shape[:-1] + (M // 2 + 1,), dtype=complex)
    spec[..., 0] = coeffs[..., 0] / SQRT_2PI * M
    m = np.arange(1, N + 1)
    spec[..., 1:N + 1] = (coeffs[..., 2 * m - 1] - 1j * coeffs[..., 2 * m]) / SQRT_PI * (M / 2.0)
    return np.fft.irfft(spec, n=M, axis=-1)


def batch_coeffs(values: np.ndarray, degree: int) -> np.ndarray:
    """e_k coefficients (..., 2 degree + 1) of the interpolating polynomials of
    grid rows (..., M); exact for degree <= N once M >= 2N+1, and raises
    GridTooSmallError below that threshold."""
    M = values.shape[-1]
    if M < 2 * degree + 1:
        raise GridTooSmallError(f"grid size {M} cannot resolve degree {degree}")
    spec = fourier_coeffs(values)
    c = np.zeros(values.shape[:-1] + (2 * degree + 1,))
    c[..., 0] = spec[..., 0].real * SQRT_2PI
    m = np.arange(1, degree + 1)
    c[..., 2 * m - 1] = 2.0 * SQRT_PI * spec[..., 1:degree + 1].real
    c[..., 2 * m] = -2.0 * SQRT_PI * spec[..., 1:degree + 1].imag
    return c


@dataclass
class BoundaryField:
    """Real trigonometric polynomial of degree <= N on the unit circle.

    coeffs[k] is the coefficient on e_k, k = 0..2N.
    """

    coeffs: np.ndarray
    _grid_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size % 2 != 1:
            raise ValueError("coeffs must be a flat array of odd length 2N+1")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, N: int) -> "BoundaryField":
        return cls(np.zeros(2 * N + 1))

    @classmethod
    def basis(cls, k: int, N: int | None = None) -> "BoundaryField":
        N = max((k + 1) // 2, 1) if N is None else N
        c = np.zeros(2 * N + 1)
        c[k] = 1.0
        return cls(c)

    @classmethod
    def cosine(cls, m: int, amplitude: float, N: int | None = None) -> "BoundaryField":
        """amplitude * cos(m theta), m >= 1."""
        return cls.basis(2 * m - 1, N) * (amplitude * SQRT_PI)

    @classmethod
    def constant(cls, value: float, N: int = 1) -> "BoundaryField":
        c = np.zeros(2 * N + 1)
        c[0] = value * SQRT_2PI
        return cls(c)

    @classmethod
    def from_grid(cls, values: np.ndarray, degree: int | None = None) -> "BoundaryField":
        """Interpolating field of the given degree from M equispaced samples.

        Exact for trigonometric polynomials of degree <= N once M >= 2N+1;
        raises GridTooSmallError below that threshold.
        """
        values = np.asarray(values, dtype=float)
        if degree is None:
            degree = (values.size - 1) // 2
        return cls(batch_coeffs(values, degree))

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2

    def truncate(self, N: int) -> "BoundaryField":
        c = np.zeros(2 * N + 1)
        n = min(N, self.degree)
        c[: 2 * n + 1] = self.coeffs[: 2 * n + 1]
        return BoundaryField(c)

    def mean(self) -> float:
        """Average value over the circle."""
        return self.coeffs[0] / SQRT_2PI

    def integral(self) -> float:
        """Integral against arclength measure."""
        return self.coeffs[0] * SQRT_2PI

    def _complex_coeffs(self) -> np.ndarray:
        """c_m with p(theta) = Re(sum_m c_m e^{i m theta}), m = 0..N."""
        N = self.degree
        c = np.zeros(N + 1, dtype=complex)
        c[0] = self.coeffs[0] / SQRT_2PI
        m = np.arange(1, N + 1)
        c[1:] = (self.coeffs[2 * m - 1] - 1j * self.coeffs[2 * m]) / SQRT_PI
        return c

    def values(self, M: int) -> np.ndarray:
        """Samples at M equispaced angles (cached)."""
        if M not in self._grid_cache:
            self._grid_cache[M] = batch_values(self.coeffs, M)
        return self._grid_cache[M]

    def value_at(self, theta) -> np.ndarray:
        """Evaluate at arbitrary angles by Horner summation."""
        theta = np.asarray(theta, dtype=float)
        w = np.exp(1j * theta)
        c = self._complex_coeffs()
        acc = np.full_like(w, c[-1])
        for cm in c[-2::-1]:
            acc = acc * w + cm
        return acc.real

    # -- operators ----------------------------------------------------------

    def conjugate(self) -> "BoundaryField":
        """Harmonic conjugate: 1 -> 0, Re(w^n) -> Im(w^n), Im(w^n) -> -Re(w^n)."""
        N = self.degree
        c = np.zeros_like(self.coeffs)
        m = np.arange(1, N + 1)
        c[2 * m - 1] = -self.coeffs[2 * m]
        c[2 * m] = self.coeffs[2 * m - 1]
        return BoundaryField(c)

    def dirichlet_to_neumann(self) -> "BoundaryField":
        """Normal derivative of the harmonic extension: e_k -> -lam_k e_k."""
        return BoundaryField(-eigenvalues(self.degree) * self.coeffs)

    def tangential_derivative(self) -> "BoundaryField":
        """d/dtheta, counterclockwise."""
        N = self.degree
        c = np.zeros_like(self.coeffs)
        m = np.arange(1, N + 1)
        c[2 * m - 1] = m * self.coeffs[2 * m]
        c[2 * m] = -m * self.coeffs[2 * m - 1]
        return BoundaryField(c)

    def l2_inner(self, other: "BoundaryField") -> float:
        n = min(self.coeffs.size, other.coeffs.size)
        return float(np.sum(self.coeffs[:n] * other.coeffs[:n]))

    def harmonic_extend(self, z) -> np.ndarray:
        """Value of the harmonic extension at |z| < 1."""
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) >= 1.0):
            raise ValueError("harmonic extension requires |z| < 1")
        c = self._complex_coeffs()
        acc = np.full_like(z, c[-1])
        for cm in c[-2::-1]:
            acc = acc * z + cm
        return acc.real if acc.ndim else float(acc.real)

    # -- arithmetic ---------------------------------------------------------

    def _binop(self, other, op) -> "BoundaryField":
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n)
        b = np.zeros(n)
        a[: self.coeffs.size] = self.coeffs
        b[: other.coeffs.size] = other.coeffs
        return BoundaryField(op(a, b))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, scalar: float):
        return BoundaryField(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return BoundaryField(-self.coeffs)


# -- module-level operator forms -----------------------------------------------

def poisson_kernel(z, w) -> np.ndarray:
    """H(z, w) = (1/2pi) Re((w+z)/(w-z)) for |z| < 1, |w| = 1."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return ((w + z) / (w - z)).real / (2.0 * np.pi)


def harmonic_extend_quadrature(p: BoundaryField, z: complex, M: int = 512) -> float:
    """Poisson integral of p by trapezoid quadrature (oracle route)."""
    theta = grid_angles(M)
    w = np.exp(1j * theta)
    vals = p.values(M)
    return float(np.sum(poisson_kernel(z, w) * vals) * (2.0 * np.pi / M))


def grid_conjugate(values: np.ndarray) -> np.ndarray:
    """Harmonic conjugate of grid samples along the last axis (batched).

    Exact when the sampled function is band-limited below the Nyquist
    mode; the unpaired Nyquist bin (even grids) is dropped.
    """
    M = values.shape[-1]
    spec = np.fft.rfft(values, axis=-1)
    spec[..., 0] = 0.0
    spec[..., 1:] *= -1j
    if M % 2 == 0:
        spec[..., -1] = 0.0
    return np.fft.irfft(spec, n=M, axis=-1)


def grid_dirichlet_to_neumann(values: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Dirichlet-to-Neumann operator on grid samples along the last axis,
    of their projection to modes of degree <= `degree` when one is given."""
    M = values.shape[-1]
    spec = np.fft.rfft(values, axis=-1)
    k = np.arange(spec.shape[-1])
    spec *= -k if degree is None else np.where(k <= degree, -k, 0.0)
    if M % 2 == 0:
        spec[..., -1] = 0.0
    return np.fft.irfft(spec, n=M, axis=-1)


def conjugate_pv(p: BoundaryField, M: int) -> np.ndarray:
    """Harmonic conjugate on the grid via the principal-value integral.

    The kernel Im((w'+w)/(w'-w)) = -cot((theta'-theta)/2) is integrated by
    trapezoid after subtracting the singular part analytically; the
    diagonal takes the continuity value 2 p'(theta).  For band-limited p
    the subtracted integrand is again a trigonometric polynomial, so the
    rule is exact once M resolves it.
    """
    theta = grid_angles(M)
    vals = p.values(M)
    dvals = p.tangential_derivative().values(M)
    diff = theta[None, :] - theta[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = (vals[None, :] - vals[:, None]) / np.tan(diff / 2.0)
    np.fill_diagonal(kern, 2.0 * dvals)
    return -kern.sum(axis=1) * (2.0 * np.pi / M) / (2.0 * np.pi)
