"""Quadrature helpers: Gauss rules, batched Gauss panels, Green-kernel pairings.

Disk integrals are done in polar coordinates, Gauss-Legendre radially and
trapezoid in angle (the trapezoid rule is exact on band-limited angular
data).  Pairings against the disk Green kernel reduce per angular mode to
two-dimensional radial integrals whose only non-smoothness is a kink on
the diagonal r1 = r2, handled by splitting the square there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=None)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed once
    per n and shared read-only."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [a, b]."""
    x, w = legendre_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def composite_rule(k: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre on [0, 1]: k equal panels of order nodes."""
    x, w = legendre_rule(order)
    edges = np.linspace(0.0, 1.0, k + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 / k
    return (mids[:, None] + half * x[None, :]).ravel(), np.tile(half * w, k)


def batched_gauss_panels(fn, a: np.ndarray, b: np.ndarray, rel_tol: float = 1e-8,
                         order: int = 16, start_panels: int = 2,
                         max_panels: int = 64) -> np.ndarray:
    """Composite Gauss-Legendre over per-row intervals with panel doubling.

    fn(nodes) evaluates the integrand on a matrix of nodes whose rows
    correspond to the rows of (a, b); it may return shape (B, nodes) or
    (B, nodes, outputs) for several integrands sharing the nodes.  Rows
    with empty intervals integrate to zero.  Panels double from
    start_panels until every live row agrees with the previous level to
    rel_tol, or max_panels is reached.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    width = np.maximum(b - a, 0.0)
    live = width > 0

    def composite(k):
        t, wt = composite_rule(k, order)
        nodes = a[:, None] + width[:, None] * t[None, :]
        vals = fn(nodes)
        if vals.ndim == 3:
            out = np.einsum("bkc,k->bc", vals, wt)
            return out * width[:, None]
        return width * (vals * wt).sum(axis=1)

    k = start_panels
    prev = composite(k)
    while 2 * k <= max_panels:
        k *= 2
        cur = composite(k)
        # absolute floor at the overall output scale: rows or whole output
        # columns that integrate to (near) zero terminate immediately
        scale = np.maximum(np.abs(cur), 1e-6 * np.abs(cur).max() + 1e-300)
        ok = np.abs(cur - prev) <= rel_tol * scale
        if cur.ndim == 2:
            ok = ok.all(axis=1)
        if np.all(~live | ok):
            return cur
        prev = cur
    return prev


# -- polar quadrature on an annulus -----------------------------------------

def annulus_grid(r_min: float, r_max: float, nr: int, M: int):
    """Polar tensor grid: GL radii (with weights including r dr) x angles."""
    r, wr = gauss_legendre(r_min, r_max, nr)
    theta = 2.0 * np.pi * np.arange(M) / M
    wtheta = 2.0 * np.pi / M
    return r, wr * r, theta, wtheta


def integrate_polar(fn, r_min: float, r_max: float, nr: int = 48, M: int = 256) -> float:
    """Integral over the annulus of fn(r, theta) against area measure."""
    r, wr, theta, wt = annulus_grid(r_min, r_max, nr, M)
    vals = fn(r[:, None], theta[None, :])
    return float((wr @ vals).sum() * wt)


# -- Green kernel mode pairings ----------------------------------------------

def green_pair_modes(u_modes, sup_u, v_modes, sup_v, K: int, nr: int = 40) -> float:
    """Pairing integral of u(z1) G(z1, z2) v(z2) over the disk squared.

    u_modes(r) returns the angular coefficients (basis e_k, k = 0..2K) of
    u at radius r as an array of shape r.shape + (2K+1,); same for v.  G
    is the inverse Laplacian kernel of the unit disk, expanded per angular
    mode; the mode kernels kink at r1 = r2, so the inner radial interval
    is split there.  Modes above K must be absent from at least one side.
    Each side's mode table is evaluated once per node set.
    """
    au, bu = sup_u
    av, bv = sup_v
    x, wleg = legendre_rule(nr)
    r2, w2 = gauss_legendre(av, bv, nr)
    V_out = v_modes(r2)

    def inner_nodes(lo, hi):
        r1 = 0.5 * (hi - lo)[None, :] * x[:, None] + 0.5 * (hi + lo)[None, :]
        w1 = 0.5 * (hi - lo)[None, :] * wleg[:, None]
        return r1, w1, hi > lo

    # region r1 <= r2 and region r1 > r2, inner variable r1 on the u side
    r1A, w1A, maskA = inner_nodes(np.full(nr, au), np.minimum(r2, bu))
    r1B, w1B, maskB = inner_nodes(np.maximum(r2, au), np.full(nr, bu))
    U_A = u_modes(r1A)
    U_B = u_modes(r1B)
    ru, wu = gauss_legendre(au, bu, nr)
    U_fix = u_modes(ru)

    def kinked(k, kern):
        inner = np.zeros(nr)
        valsA = U_A[..., k] * kern(r1A, r2[None, :]) * r1A * w1A
        inner += np.where(maskA, valsA.sum(axis=0), 0.0)
        valsB = U_B[..., k] * kern(r2[None, :], r1B) * r1B * w1B
        inner += np.where(maskB, valsB.sum(axis=0), 0.0)
        return float(np.sum(inner * V_out[..., k] * r2 * w2))

    total = 2.0 * np.pi * kinked(0, lambda rs, rb: np.log(rb))
    for m in range(1, K + 1):
        for k in (2 * m - 1, 2 * m):
            hump = kinked(k, lambda rs, rb, m=m: (rs / rb) ** m)
            sep = float(np.sum(U_fix[..., k] * ru ** (m + 1) * wu)) * \
                float(np.sum(V_out[..., k] * r2 ** (m + 1) * w2))
            total += np.pi * (-1.0 / m) * (hump - sep)
    return total / (2.0 * np.pi)
