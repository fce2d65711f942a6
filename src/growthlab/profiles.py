"""Cylinder-functional profiles: smooth compactly supported functions of a
few real pairings, with analytic gradient and Hessian, and their Gaussian
mollifications.

The standard profile is a product of one-dimensional plateau bumps built
from the C-infinity step sigma(t) = u(t)/(u(t)+u(1-t)), u(t) = e^{-1/t}.
Mollification P_Sigma psi(x) = E psi(x + Sigma^{1/2} Z) by a diagonal
covariance is exact: a product of one-dimensional Gaussian convolutions of
the bumps, by composite Gauss-Legendre over each bump's support.  Its
integrals along a line that moves one axis, times an exponential, have a
closed form (MollifiedProfile.line_integrals), which the single-block
zero-mode estimators use on the mollified and on the plain profile alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import composite_rule


def _u(t):
    """e^{-1/t} with first and second derivatives, for t > 0."""
    e = np.exp(-1.0 / t)
    return e, e / t ** 2, e * (1.0 / t ** 4 - 2.0 / t ** 3)


def _step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, with two derivatives.

    Only points strictly inside (0, 1) need the exponentials; the rest are
    the constants 0 or 1 with zero derivatives.
    """
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


def _orders(key, dim: int) -> list[int]:
    """Derivative order per axis of a profile entry key: ('v',) the value,
    ('g', i) the gradient entry i, ('h', i, j) the Hessian entry ij."""
    orders = [0] * dim
    for axis in key[1:]:
        orders[axis] += 1
    return orders


@dataclass(frozen=True)
class PlateauBump1D:
    """C-infinity bump supported on [lo, hi], equal to 1 on the inner plateau."""

    lo: float
    hi: float
    rise: float

    def __post_init__(self):
        if not (0 < self.rise <= 0.5 * (self.hi - self.lo) + 1e-15):
            raise ValueError("rise must fit inside the support")

    def pieces(self, y):
        y = np.asarray(y, dtype=float)
        sL, sL1, sL2 = _step((y - self.lo) / self.rise)
        sR, sR1, sR2 = _step((self.hi - y) / self.rise)
        sL1, sL2 = sL1 / self.rise, sL2 / self.rise ** 2
        sR1, sR2 = -sR1 / self.rise, sR2 / self.rise ** 2
        val = sL * sR
        d1 = sL1 * sR + sL * sR1
        d2 = sL2 * sR + 2.0 * sL1 * sR1 + sL * sR2
        return val, d1, d2

    @property
    def support(self):
        return (self.lo, self.hi)


class ProductProfile:
    """psi(x) = prod_k psi_k(x_k) of 1-D plateau bumps; smooth, compact."""

    def __init__(self, factors: list[PlateauBump1D]):
        self.factors = factors
        self.dim = len(factors)
        self.box = [f.support for f in factors]

    @classmethod
    def bumps(cls, centers, halfwidths, rise_frac: float = 0.5) -> "ProductProfile":
        facs = [PlateauBump1D(c - h, c + h, rise_frac * h) for c, h in zip(centers, halfwidths)]
        return cls(facs)

    def _pieces(self, x):
        x = np.asarray(x, dtype=float)
        return [f.pieces(x[..., k]) for k, f in enumerate(self.factors)]

    def _entry(self, pieces, key):
        """The derivative entry key from per-factor (value, d1, d2).

        The product runs over the differentiated factors first, then the
        others, each in index order, so every entry has the same bits
        whatever the shapes of the pieces.
        """
        orders = _orders(key, self.dim)
        factors = sorted(range(self.dim), key=lambda b: orders[b] == 0)
        out = pieces[factors[0]][orders[factors[0]]]
        for b in factors[1:]:
            out = out * pieces[b][orders[b]]
        return out

    def along(self, base, slopes, m, keys):
        """The entries keys of psi(base + m slopes), in one pass per factor.

        base (B, n) holds the arguments at m = 0, slopes (n,) their
        m-derivatives and m (B, K) the line parameter per row.  Returns a
        dict of the entries by key, each equal to the matching entry of
        value/grad/hess at the same points, bit for bit.  A factor with zero
        slope is constant along each row, so it is evaluated on shape (B, 1)
        and broadcast; an entry none of whose factors moves keeps that shape.
        """
        pieces = []
        for k, f in enumerate(self.factors):
            y = base[:, k : k + 1]
            if slopes[k] != 0.0:
                y = y + m * slopes[k]
            pieces.append(f.pieces(y))
        return {key: self._entry(pieces, key) for key in keys}

    def value(self, x):
        return self._entry(self._pieces(x), ("v",))

    def grad(self, x):
        pieces = self._pieces(x)
        return np.stack([self._entry(pieces, ("g", i)) for i in range(self.dim)], axis=-1)

    def hess(self, x):
        pieces = self._pieces(x)
        rows = [[self._entry(pieces, ("h", i, j)) for j in range(self.dim)]
                for i in range(self.dim)]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


class BoundedSmoothProfile:
    """tanh-based bounded cylindrical profile (not compactly supported)."""

    def __init__(self, dim: int, scale: float = 1.0):
        self.dim = dim
        self.scale = scale
        self.box = None

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.tanh(self.scale * x).prod(axis=-1)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        t = np.tanh(self.scale * x)
        out = np.empty_like(x)
        for i in range(self.dim):
            g = self.scale * (1.0 - t[..., i] ** 2)
            for k in range(self.dim):
                if k != i:
                    g = g * t[..., k]
            out[..., i] = g
        return out


# composite Gauss-Legendre over a bump's support for its Gaussian
# convolutions and tilted masses.  On the suites' bumps, whose breakpoints
# fall on panel edges, 16 panels of 16 nodes put the invariance lhs at LIGHT
# within 1e-15 of 128 panels; 8 panels leave 1e-12
_PANELS = 16
_NODES = 16


class CovarianceNotDiagonalError(ValueError):
    """The mollification covariance couples two axes; the exact
    mollification is a product of one-dimensional convolutions only for a
    diagonal covariance."""


class MovingAxesError(ValueError):
    """A zero-mode line moves more than one profile axis; the closed-form
    line integral needs exactly one."""


class MollifiedProfile:
    """Gaussian mollification P_Sigma psi of a product profile, exactly.

    Sigma must be diagonal, so P_Sigma psi is the product over axes b of
    the one-dimensional convolutions (P_v phi_b)(y) = int phi_b(u) g_v(u - y)
    du, v = Sigma_bb, and each derivative (P_v phi_b^{(k)})(y) moves onto
    the Gaussian: int phi_b(u) d_y^k g_v(u - y) du.  Both run over the
    bump's support by composite Gauss-Legendre.  v = 0 leaves the bump as
    it is, so P_0 psi = psi.
    """

    def __init__(self, profile: ProductProfile, sigma: np.ndarray):
        n = profile.dim
        sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        if sigma.shape != (n, n):
            raise ValueError("covariance shape mismatch")
        var = np.diag(sigma).copy()
        if np.any(var < 0.0):
            raise ValueError("mollification covariance is not PSD")
        if np.abs(sigma - np.diag(var)).max() > 1e-12 * max(var.max(), 1e-300):
            raise CovarianceNotDiagonalError(
                "off-diagonal covariance: the mollification does not factor by axis")
        self.profile = profile
        self.dim = n
        self.var = var
        t, wt = composite_rule(_PANELS, _NODES)
        self._rules = []        # per axis: nodes u on the support, weights times phi(u)
        for f in profile.factors:
            u = f.lo + (f.hi - f.lo) * t
            self._rules.append((u, (f.hi - f.lo) * wt * f.pieces(u)[0]))

    def _convolved(self, b, k, y):
        """(P_v phi_b^{(k)})(y) on axis b, for k = 0, 1 or 2."""
        v = self.var[b]
        if v == 0.0:
            return self.profile.factors[b].pieces(y)[k]
        u, wphi = self._rules[b]
        d = u - y[..., None]
        g = d * d
        g *= -0.5 / v
        np.exp(g, out=g)
        if k == 1:
            g *= d
        elif k == 2:
            d *= d
            d -= v
            g *= d
        g *= wphi      # summed elementwise, not by BLAS: the same bits at any shape
        return g.sum(axis=-1) / (np.sqrt(2.0 * np.pi * v) * v ** k)

    def _factors(self, x):
        """factor(b, k): _convolved at the axis-b coordinates of x, once each."""
        done = {}

        def factor(b, k):
            if (b, k) not in done:
                done[(b, k)] = self._convolved(b, k, x[..., b])
            return done[(b, k)]

        return factor

    def eval_many(self, x, keys):
        """Several derivative entries at the points x (..., n), sharing the
        one-dimensional factors; keys as in _orders.  Returns a dict of
        arrays of shape x.shape[:-1]."""
        factor = self._factors(np.asarray(x, dtype=float))
        out = {}
        for key in keys:
            orders = _orders(key, self.dim)
            val = factor(0, orders[0])
            for b in range(1, self.dim):
                val = val * factor(b, orders[b])
            out[key] = val
        return out

    def line_integrals(self, x, axis: int, slope: float):
        """I(rate, key): per row of x (B, n), int e^{rate m} d_key P_Sigma psi
        (x + m slope e_axis) dm over the whole line, in closed form.

        With rho = rate / slope and Phi(rho) = int e^{rho u} phi_axis(u) du,
        Fubini, integration by parts in u and exponential tilting of the
        Gaussian give

            |slope|^{-1} e^{-rho x_axis + rho^2 v / 2} (-rho)^{k_axis} Phi(rho)
            prod_{b != axis} (P_{v_b} phi_b^{(k_b)})(x_b).
        """
        factor = self._factors(x)
        u, wphi = self._rules[axis]

        def integral(rate, key):
            rho = rate / slope
            orders = _orders(key, self.dim)
            mass = np.exp(0.5 * rho * rho * self.var[axis]) * (wphi * np.exp(rho * u)).sum()
            out = np.exp(-rho * x[:, axis]) * (mass * (-rho) ** orders[axis] / abs(slope))
            for b, k in enumerate(orders):
                if b != axis:
                    out = out * factor(b, k)
            return out

        return integral

    def value(self, x):
        return self.eval_many(x, [("v",)])[("v",)]

    def grad_entry(self, i, x):
        return self.eval_many(x, [("g", i)])[("g", i)]

    def hess_entry(self, i, j, x):
        return self.eval_many(x, [("h", i, j)])[("h", i, j)]
