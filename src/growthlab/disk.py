"""Smooth test functions on an annulus of the punctured disk.

A DiskTestFunction is a finite sum of separable terms bump(r) * trig(theta)
with closed-form radial derivative and band-limited angular factor, so
complex derivatives, Poisson adjoints and angular mode expansions are all
available analytically (radial moments by Gauss quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import gauss_legendre
from .spectral import BoundaryField, eigenvalues


@dataclass(frozen=True)
class RadialProfile:
    """Smooth compactly supported radial factor with analytic derivative."""

    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        a, b = self.support
        inside = (r > a) & (r < b)
        out = np.zeros_like(r)
        out[inside] = self.fn(r[inside])
        return out

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        a, b = self.support
        inside = (r > a) & (r < b)
        out = np.zeros_like(r)
        out[inside] = self.dfn(r[inside])
        return out

    def moment(self, j: float, n: int = 80) -> float:
        """Integral of fn(r) r^j over the support."""
        r, w = gauss_legendre(*self.support, n)
        return float(np.sum(self(r) * r ** j * w))

    def scaled(self, c: float) -> "RadialProfile":
        return RadialProfile(lambda r: c * self.fn(r), lambda r: c * self.dfn(r), self.support)


def bump(a: float, b: float) -> RadialProfile:
    """C-infinity bump exp(-1/(1-x^2)) on (a, b), zero outside."""
    if not 0.0 < a < b < 1.0:
        raise ValueError("bump support must satisfy 0 < a < b < 1")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def fn(r):
        x = (r - mid) / half
        return np.exp(-1.0 / (1.0 - x * x))

    def dfn(r):
        x = (r - mid) / half
        return fn(r) * (-2.0 * x / (1.0 - x * x) ** 2) / half

    return RadialProfile(fn, dfn, (a, b))


@dataclass
class DiskTestFunction:
    """Sum of separable terms R(r) T(theta) supported in an annulus."""

    terms: list[tuple[RadialProfile, BoundaryField]]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one term")
        a = min(t[0].support[0] for t in self.terms)
        b = max(t[0].support[1] for t in self.terms)
        if not 0.0 < a < b < 1.0:
            raise ValueError("support must be an annulus strictly inside the punctured disk")
        self.support = (a, b)

    @classmethod
    def separable(cls, radial: RadialProfile, angular: BoundaryField) -> "DiskTestFunction":
        return cls([(radial, angular)])

    @property
    def degree(self) -> int:
        return max(t[1].degree for t in self.terms)

    # -- evaluation ----------------------------------------------------------

    def eval_polar(self, r, theta):
        """Values on the outer product of radius and angle arrays."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape)
        for R, T in self.terms:
            out = out + R(r) * T.value_at(theta)
        return out

    def eval_z(self, z):
        z = np.asarray(z, dtype=complex)
        return self.eval_polar(np.abs(z), np.angle(z))

    def dz(self, r, theta):
        """Complex derivative d/dz via (e^{-i theta}/2)(d_r - (i/r) d_theta)."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
        phase = np.exp(-1j * theta)
        for R, T in self.terms:
            dr = R.deriv(r) * T.value_at(theta)
            dth = R(r) * T.tangential_derivative().value_at(theta)
            out = out + 0.5 * phase * (dr - 1j * dth / r)
        return out

    # -- integrals -----------------------------------------------------------

    def integral(self) -> float:
        """Integral over the disk against area measure."""
        return sum(R.moment(1) * T.integral() for R, T in self.terms)

    def log_pairing(self, n: int = 80) -> float:
        """Integral of f log|z| over the disk."""
        total = 0.0
        for R, T in self.terms:
            r, w = gauss_legendre(*R.support, n)
            total += float(np.sum(R(r) * np.log(r) * r * w)) * T.integral()
        return total

    def poisson_adjoint(self, degree: int | None = None) -> BoundaryField:
        """Boundary trace H* f, band-limited at the angular degree of f.

        Coefficient k of H* f is the k-th angular coefficient of f paired
        with the radial moment r^{lam_k + 1}; exact because the angular
        factors are band-limited.
        """
        N = self.degree if degree is None else degree
        coeffs = np.zeros(2 * N + 1)
        lam = eigenvalues(N)
        for R, T in self.terms:
            n = min(T.degree, N)
            a = T.coeffs[: 2 * n + 1]
            mom = np.array([R.moment(l + 1) for l in lam[: 2 * n + 1]])
            coeffs[: 2 * n + 1] += a * mom
        return BoundaryField(coeffs)

    def angular_modes(self, r, K: int) -> np.ndarray:
        """Angular coefficients (e_k basis, k <= 2K) at the given radii."""
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape + (2 * K + 1,))
        for R, T in self.terms:
            n = min(T.degree, K)
            out[..., : 2 * n + 1] += R(r)[..., None] * T.coeffs[None, : 2 * n + 1]
        return out

    def __add__(self, other: "DiskTestFunction") -> "DiskTestFunction":
        return DiskTestFunction(self.terms + other.terms)

    def __mul__(self, c: float) -> "DiskTestFunction":
        return DiskTestFunction([(R.scaled(float(c)), T) for R, T in self.terms])

    __rmul__ = __mul__


def realize_symbol(p: BoundaryField, support: tuple[float, float] = (0.35, 0.75)) -> DiskTestFunction:
    """Disk test function f with H* f = p exactly.

    One bump term per active degree of p, normalized so the radial moment
    matching that degree is 1.
    """
    base = bump(*support)
    terms = []
    N = p.degree
    if p.coeffs[0] != 0.0:
        c = np.zeros(2 * N + 1)
        c[0] = p.coeffs[0]
        terms.append((base.scaled(1.0 / base.moment(1)), BoundaryField(c)))
    for m in range(1, N + 1):
        block = p.coeffs[2 * m - 1 : 2 * m + 1]
        if np.any(block != 0.0):
            c = np.zeros(2 * N + 1)
            c[2 * m - 1 : 2 * m + 1] = block
            terms.append((base.scaled(1.0 / base.moment(m + 1)), BoundaryField(c)))
    if not terms:
        terms.append((base.scaled(0.0), BoundaryField.zeros(N)))
    return DiskTestFunction(terms)
