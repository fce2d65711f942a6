"""Cylinder-functional profiles: smooth compactly supported functions of a
few real pairings, with analytic gradient and Hessian, and their Gaussian
mollifications.

The standard profile is a product of one-dimensional plateau bumps built
from the C-infinity step sigma(t) = u(t)/(u(t)+u(1-t)), u(t) = e^{-1/t}.
Mollification P_Sigma psi(x) = E psi(x + Sigma^{1/2} Z) is evaluated by
tensor Gauss-Hermite quadrature, tabulated on a grid and interpolated with
cubic splines (the tables carry every derivative order used downstream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_hermite_standard_normal


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

    def _combine(self, pieces, order: int):
        """value, grad[i] and hess[i][j] from per-factor (value, d1, d2).

        Products run factor by factor in index order, so every entry has
        the same bits whatever the shapes of the pieces; grad and hess are
        None below orders 1 and 2.
        """
        vals = [p[0] for p in pieces]
        value = vals[0]
        for v in vals[1:]:
            value = value * v
        grad = hess = None
        if order >= 1:
            grad = []
            for i in range(self.dim):
                g = pieces[i][1]
                for k in range(self.dim):
                    if k != i:
                        g = g * vals[k]
                grad.append(g)
        if order >= 2:
            hess = [[None] * self.dim for _ in range(self.dim)]
            for i in range(self.dim):
                for j in range(i, self.dim):
                    h = pieces[i][2] if i == j else pieces[i][1] * pieces[j][1]
                    for k in range(self.dim):
                        if k != i and k != j:
                            h = h * vals[k]
                    hess[i][j] = hess[j][i] = h
        return value, grad, hess

    def along(self, base, slopes, m, order: int = 2):
        """psi(base + m slopes) with its derivatives, in one pass per factor.

        base (B, n) holds the arguments at m = 0, slopes (n,) their
        m-derivatives and m (B, K) the line parameter per row.  Returns
        (value, grad, hess) as in _combine: each entry equals the matching
        entry of value/grad/hess at the same points, bit for bit.  A factor
        with zero slope is constant along each row, so it is evaluated on
        shape (B, 1) and broadcast; an entry none of whose factors moves
        keeps that shape.
        """
        pieces = []
        for k, f in enumerate(self.factors):
            y = base[:, k : k + 1]
            if slopes[k] != 0.0:
                y = y + m * slopes[k]
            pieces.append(f.pieces(y))
        return self._combine(pieces, order)

    def value(self, x):
        return self._combine(self._pieces(x), 0)[0]

    def grad(self, x):
        return np.stack(self._combine(self._pieces(x), 1)[1], axis=-1)

    def hess(self, x):
        hess = self._combine(self._pieces(x), 2)[2]
        return np.stack([np.stack(row, axis=-1) for row in hess], axis=-2)


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


_GROUP_CHUNK = 2048    # groups per pass: their partial contractions stay in cache
_CELL_SLACK = 1e-12    # cells a group may overhang its own: roundoff at a knot
_POLE = np.sqrt(3.0) - 2.0    # the pole of the cubic B-spline prefilter


def _prefilter(data: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients that interpolate data at the knots.

    The recursive filter of Unser, Aldroubi and Eden ("B-spline signal
    processing, Part II", IEEE TSP 41, 1993) runs along each axis in turn,
    a causal and an anticausal pass with mirror-symmetric boundaries.
    """
    c = np.array(data, dtype=float)
    z = _POLE
    for axis in range(c.ndim):
        line = np.moveaxis(c, axis, 0)
        n = line.shape[0]
        line *= (1.0 - z) * (1.0 - 1.0 / z)
        zn = z ** (n - 1)
        c0 = line[0] + zn * line[n - 1]
        zi = z
        for i in range(1, n - 1):
            c0 += zi * (line[i] + zn * line[n - 1 - i])
            zi *= z
        line[0] = c0 / (1.0 - zn * zn)
        for i in range(1, n):
            line[i] += z * line[i - 1]
        line[n - 1] = (z * line[n - 2] + line[n - 1]) * z / (z * z - 1.0)
        for i in range(n - 2, -1, -1):
            line[i] = z * (line[i + 1] - line[i])
    return c


def _bspline3_taps(t: np.ndarray, order: int) -> tuple:
    """Cubic B-spline basis (or a derivative) at offsets -1..2 from floor(t).

    t is the fractional position in [0, 1], up to roundoff; returns the four
    weights, each of t's shape, of the coefficients at floor + (-1, 0, 1, 2).
    """
    s = 1.0 - t
    if order == 0:
        return (s * s * s / 6.0,
                (4.0 - 6.0 * t * t + 3.0 * t * t * t) / 6.0,
                (4.0 - 6.0 * s * s + 3.0 * s * s * s) / 6.0,
                t * t * t / 6.0)
    if order == 1:
        return (-0.5 * s * s,
                (-12.0 * t + 9.0 * t * t) / 6.0,
                (12.0 * s - 9.0 * s * s) / 6.0,
                0.5 * t * t)
    return s, (-12.0 + 18.0 * t) / 6.0, (-12.0 + 18.0 * s) / 6.0, t


def _tap_offsets(strides):
    """Flat offsets of a 4^k coefficient neighborhood on axes with the given
    strides, the last axis slowest, so each axis's four taps are contiguous
    blocks when that axis is contracted."""
    return np.array([np.dot(o[::-1], strides) for o in np.ndindex(*(4,) * len(strides))])


class _SplineTable:
    """Cubic B-spline table with derivative-consistent evaluation.

    All derivative queries differentiate the same interpolant, so the
    family (value, gradient, Hessian) is exactly a smooth function with
    its true derivatives; measure-level identities hold for it exactly,
    independent of the table resolution.
    """

    def __init__(self, data, lows, highs):
        self.lows = np.asarray(lows, dtype=float)
        self.highs = np.asarray(highs, dtype=float)
        self.n = self.lows.size
        pts = data.shape[0]
        self.h = (self.highs - self.lows) / (pts - 1)
        self.coef = np.pad(_prefilter(data), 2, mode="constant")
        self.pts = pts

    def _cells(self, x, axes):
        """Scaled positions of x, axis-major on the given axes, clipped into
        the table, and the mask of points off it (more than a cell outside)."""
        col = (-1,) + (1,) * (x.ndim - 1)
        u = (x - self.lows[axes].reshape(col)) / self.h[axes].reshape(col)
        outside = ~np.all((u > -1.0) & (u < self.pts), axis=0)
        return np.clip(u, 0.0, self.pts - 1.0 - 1e-12), outside

    def _contract(self, partial, orders_list, frac, first, stop):
        """Contract partial sums over axes stop-1, ..., first, last axis first.

        orders_list holds per-axis orders of axes first..n-1, and partial maps
        the orders of axes stop..n-1 to arrays whose leading dimension runs
        over the 4^(stop-first) taps, the last axis slowest; frac[k - first]
        is axis k's fractional position, shaped to broadcast against them.
        Each axis sums its taps in a fixed order by elementwise multiply-adds,
        and order tuples that end alike share their partial sums and weights.
        """
        taps = {}
        for orders in orders_list:
            for k in range(stop - 1, first - 1, -1):
                key = orders[k - first:]
                if key in partial:
                    continue
                if (k, key[0]) not in taps:
                    taps[(k, key[0])] = [w / self.h[k] ** key[0]
                                         for w in _bspline3_taps(frac[k - first], key[0])]
                w = taps[(k, key[0])]
                prev = partial[key[1:]]
                p = prev.reshape((4, -1) + prev.shape[1:])
                acc = p[0] * w[0]
                for tap in range(1, 4):
                    acc += p[tap] * w[tap]
                partial[key] = acc
        return partial

    def _row_planes(self, fixed, tails):
        """First stage: contract the trailing axes at each row's coordinates.

        fixed (R, f) holds the coordinates of the last f axes per row, and
        tails the order tuples of those axes.  Returns, per tail, the rows'
        coefficient planes over the other axes, flat (R * P,) with P entries
        a row, and the (R,) mask of rows off the table.
        """
        f = fixed.shape[1]
        lead = self.n - f
        u, outside = self._cells(np.ascontiguousarray(fixed.T), slice(lead, None))
        base = np.floor(u)
        L = self.coef.shape[0]
        strides = L ** np.arange(f - 1, -1, -1)
        rows = strides @ (base.astype(np.int64) + 1)
        idx = (_tap_offsets(strides)[:, None, None] + rows[None, :, None]
               + L ** f * np.arange(L ** lead))
        partial = self._contract({(): self.coef.ravel()[idx]}, tails,
                                 (u - base)[:, :, None], lead, self.n)
        return {t: partial[t][0].ravel() for t in tails}, outside

    def evaluate_many(self, x, orders_list, fixed=None):
        """Interpolant derivatives for several per-axis order tuples at x.

        x has shape (..., Q, n), groups of Q points that share one table
        cell: the cell of the midpoint of the group's first and last
        points.  Its 4^n coefficient neighborhood is gathered once and
        contracted one axis at a time, last axis first, against each
        point's basis weights on that axis (_contract).  Each axis sums its
        four taps in a fixed order by elementwise multiply-adds, so a
        point's result has the same bits whatever the group size Q.  Single
        points are groups of one, x[..., None, :].  A group whose points
        leave the cell by more than _CELL_SLACK raises ValueError; a point
        within it that overhangs by d is read on the neighbouring cubic, off
        by O(d) in the Hessian.  Groups run in chunks of _GROUP_CHUNK.

        With fixed (R, f), rows of points share their last f coordinates:
        x has shape (R, ..., Q, n - f) and fixed[r] holds the last f
        coordinates of every point of x[r].  The first stage contracts
        those axes once per row (_row_planes), with the weights every point
        of the row would take, and each group gathers its neighborhood on
        the other axes from its row's plane, so every entry keeps the bits
        of evaluating the full points.  Without fixed the whole table is
        one row's plane.  Returns one array of shape x.shape[:-1] per order
        tuple.
        """
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1]
        L = self.coef.shape[0]
        if fixed is None:
            rows, lead = 1, self.n
            planes, row_out = {(): self.coef.ravel()}, np.zeros(1, dtype=bool)
        else:
            rows, lead = fixed.shape[0], self.n - fixed.shape[1]
            planes, row_out = self._row_planes(fixed, {o[lead:] for o in orders_list})
        x = x.reshape(-1, shape[-1], lead)
        per_row = x.shape[0] // rows
        strides = L ** np.arange(lead - 1, -1, -1)
        offsets = _tap_offsets(strides)
        outs = [np.empty(x.shape[:-1]) for _ in orders_list]
        for start in range(0, x.shape[0], _GROUP_CHUNK):
            sl = slice(start, start + _GROUP_CHUNK)
            row = np.arange(sl.start, min(sl.stop, x.shape[0])) // per_row
            # axis-major (lead, Q, G): every elementwise pass runs along the groups
            u, outside = self._cells(np.ascontiguousarray(x[sl].transpose(2, 1, 0)),
                                     slice(0, lead))
            outside |= row_out[row]
            base = np.floor(0.5 * (u[:, 0] + u[:, -1]))
            frac = u - base[:, None, :]
            if np.any((frac < -_CELL_SLACK) | (frac > 1.0 + _CELL_SLACK)):
                raise ValueError("a group of points spans more than one table cell")
            idx = offsets[:, None] + (row * L ** lead + strides @ (base.astype(np.int64) + 1))
            partial = self._contract({t: p[idx][:, None, :] for t, p in planes.items()},
                                     orders_list, frac, 0, lead)
            for out, orders in zip(outs, orders_list):
                acc = partial[orders][0]
                acc[outside] = 0.0
                out[sl] = acc.T
        return [out.reshape(shape) for out in outs]


class MollifiedProfile:
    """Gaussian mollification P_Sigma psi with value, gradient and Hessian.

    Evaluated by tensor Gauss-Hermite quadrature; results are tabulated on
    a grid in one pass over the quadrature nodes (the one-dimensional
    factor derivatives are shared across all derivative tables) and
    interpolated with cubic splines.
    """

    def __init__(self, profile: ProductProfile, sigma: np.ndarray,
                 gh_points: int = 16, table_pts: int = 241, tail: float = 8.0):
        self.profile = profile
        n = profile.dim
        sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        if sigma.shape != (n, n):
            raise ValueError("covariance shape mismatch")
        w, V = np.linalg.eigh(sigma)
        if np.any(w < -1e-10 * max(1.0, np.abs(w).max())):
            raise ValueError("mollification covariance is not PSD")
        self.L = V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        sd = np.sqrt(np.clip(np.diag(sigma), 0.0, None))
        lows = [b[0] - tail * sd[k] - 1e-9 for k, b in enumerate(profile.box)]
        highs = [b[1] + tail * sd[k] + 1e-9 for k, b in enumerate(profile.box)]
        self.box = list(zip(lows, highs))
        z1, w1 = gauss_hermite_standard_normal(gh_points)
        mesh = np.meshgrid(*([z1] * n), indexing="ij")
        self.gh_z = np.stack([m.ravel() for m in mesh], axis=-1) @ self.L.T
        wmesh = np.meshgrid(*([w1] * n), indexing="ij")
        self.gh_w = np.ones(gh_points ** n)
        for m in wmesh:
            self.gh_w = self.gh_w * m.ravel()

        axes = [np.linspace(lo, hi, table_pts) for lo, hi in self.box]
        # factor values at (axis point + node shift) once per factor, then one
        # tensor contraction against the quadrature weights ("iq,jq,q->ij" at n = 2)
        fac = [profile.factors[k].pieces(axes[k][:, None] + self.gh_z[None, :, k])[0]
               for k in range(n)]
        out = "ijklmnop"[:n]
        val = np.einsum(",".join(c + "q" for c in out) + ",q->" + out, *fac, self.gh_w)
        # derivative queries differentiate this one interpolant, so the
        # evaluated family is exactly (a smooth function, its gradient,
        # its Hessian): the identities under test hold for it exactly
        self._table = _SplineTable(val, lows, highs)
        self.dim = n

    def _orders(self, key):
        orders = [0] * self.dim
        if key[0] == "g":
            orders[key[1]] = 1
        elif key[0] == "h":
            orders[key[1]] += 1
            orders[key[2]] += 1
        return tuple(orders)

    def eval_many(self, x, keys, fixed=None):
        """Evaluate several derivative entries in one neighborhood pass.

        x is grouped as in _SplineTable.evaluate_many, (..., Q, n) with
        each group of Q points inside one table cell, or (R, ..., Q, n - f)
        with rows that share the last f coordinates fixed (R, f); keys are
        tuples ('v',), ('g', i) or ('h', i, j).
        """
        vals = self._table.evaluate_many(x, [self._orders(k) for k in keys], fixed)
        return dict(zip(keys, vals))

    def along(self, base, slopes, m, order: int = 2):
        """Mollified value, grad and hess at base + m * slopes, per segment.

        Unlike ProductProfile.along's (B, K), m has shape (B, S, Q), and the
        Q points of each segment must lie in one table cell (as between knot
        crossings): one gather per segment serves every point and entry.
        When only the first slope is nonzero, as in the suites' fixtures,
        the other axes stay fixed along each row: they are contracted once
        per row into a line of coefficients along the first axis (the fixed
        argument of _SplineTable.evaluate_many).  Every entry keeps the bits
        of value, grad_entry and hess_entry at base + m * slopes.  Outputs
        have m's shape; hess[i][j] is evaluated once for i <= j.
        """
        if np.ndim(m) != 3:
            raise ValueError("m must have shape (B, S, Q): Q points per knot segment")
        n = self.dim
        keys = [("v",)]
        if order >= 1:
            keys += [("g", i) for i in range(n)]
        if order >= 2:
            keys += [("h", i, j) for i in range(n) for j in range(i, n)]
        slopes = np.asarray(slopes, dtype=float)
        lead = n if slopes[1:].any() else 1
        args = base[:, None, None, :lead] + m[..., None] * slopes[:lead]
        vals = self.eval_many(args, keys, base[:, lead:] if lead < n else None)
        grad = [vals[("g", i)] for i in range(n)] if order >= 1 else None
        hess = None
        if order >= 2:
            hess = [[vals[("h", min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
        return vals[("v",)], grad, hess

    def _entry(self, key, x):
        x = np.asarray(x, dtype=float)[..., None, :]
        return self._table.evaluate_many(x, [self._orders(key)])[0][..., 0]

    def value(self, x):
        return self._entry(("v",), x)

    def grad_entry(self, i, x):
        return self._entry(("g", i), x)

    def hess_entry(self, i, j, x):
        return self._entry(("h", i, j), x)
