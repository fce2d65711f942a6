"""Loewner vector field, transport operator, and the boundary kernel V.

The kernel attached to a boundary symbol p is, in angles x of w and y of w',

    V_p(w, w') = cot((y - x)/2) (ptilde(y) - ptilde(x)),

symmetric, with continuity value -2 d_n H p on the diagonal.  For
band-limited p all its contractions against band-limited data are finite
trigonometric sums, evaluated here both as grid double sums and in closed
spectral form; the spectral forms are what the measure-level checks use.
"""

from __future__ import annotations

import numpy as np

from .disk import DiskTestFunction
from .gmc import CircleMeasure
from .quadrature import gauss_legendre, green_pair_modes
from .spectral import (BoundaryField, batch_coeffs, fourier_coeffs, grid_angles,
                       grid_conjugate)


# -- Loewner vector field ------------------------------------------------------


def loewner_field(mu: CircleMeasure, z):
    """L_mu(z) = -int z (z+w)/(z-w) mu(dw) by grid quadrature.

    The quadrature aliases like |z|^M near the circle, so evaluation points
    within a few grid lengths of the boundary raise.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0 - 8.0 / mu.M):
        raise ValueError("evaluation point too close to the circle for the grid")
    w = np.exp(1j * mu.angles)
    zz = z[..., None]
    integrand = zz * (zz + w) / (zz - w)
    return -(integrand * mu.density).sum(axis=-1) * (2.0 * np.pi / mu.M)


def loewner_field_deriv(mu: CircleMeasure, z):
    """d/dz of the Loewner vector field, by grid quadrature."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0 - 8.0 / mu.M):
        raise ValueError("evaluation point too close to the circle for the grid")
    w = np.exp(1j * mu.angles)
    zz = z[..., None]
    integrand = (zz + w) / (zz - w) - 2.0 * zz * w / (zz - w) ** 2
    return -(integrand * mu.density).sum(axis=-1) * (2.0 * np.pi / mu.M)


def loewner_field_polar(mu: CircleMeasure, r: np.ndarray):
    """L_mu and its z-derivative on radius rows times the full angle grid.

    Uses the one-sided power series L_mu(z) = z F(z), F(z) = 2 pi (c_0 +
    2 sum c_k z^k) in the Fourier coefficients c_k of the density, and an
    inverse FFT per radius, so the cost is nr * M log M instead of
    nr * M^2.  Agrees with the direct quadrature to the grid's aliasing
    level for radii away from the circle.
    """
    r = np.asarray(r, dtype=float)
    shape = r.shape
    r = r.ravel()
    M = mu.M
    c = fourier_coeffs(mu.density)
    K = c.size - 1
    k = np.arange(K + 1)
    powers = r[:, None] ** k
    spec = np.zeros((r.size, M), dtype=complex)
    spec[:, 0] = 2.0 * np.pi * c[0]
    spec[:, 1 : K + 1] = 4.0 * np.pi * c[1:] * powers[:, 1:]
    F = np.fft.ifft(spec, axis=1) * M
    specd = np.zeros((r.size, M), dtype=complex)
    specd[:, 0:K] = 4.0 * np.pi * (k[1:] * c[1:]) * powers[:, : K]
    F1 = np.fft.ifft(specd, axis=1) * M
    z = r[:, None] * np.exp(1j * grid_angles(M))[None, :]
    L = z * F
    L1 = F + z * F1
    return L.reshape(shape + (M,)), L1.reshape(shape + (M,))


def _transport_polar(f: DiskTestFunction, mu: CircleMeasure, r: np.ndarray):
    """f, D_mu f and L_mu' on radius rows times the full angle grid."""
    r = np.asarray(r, dtype=float)
    L, L1 = loewner_field_polar(mu, r)
    theta = grid_angles(mu.M)
    fz = f.eval_polar(r[..., None], theta)
    dfz = f.dz(r[..., None], theta)
    return fz, 2.0 * fz * L1.real + 2.0 * (L * dfz).real, L1


def dmu_polar(f: DiskTestFunction, mu: CircleMeasure, r: np.ndarray) -> np.ndarray:
    """D_mu f on radius rows times the full angle grid (fast path)."""
    return _transport_polar(f, mu, r)[1]


def bulk_pairings(f: DiskTestFunction, mu: CircleMeasure, nr: int,
                  h: BoundaryField | None = None) -> dict:
    """Area pairings over the support annulus of f, by nr Gauss-Legendre
    radii times the trapezoid angle grid of mu: 'log' pairs D_mu f with
    log r, 'conformal' pairs f with Re L_mu', and 'harmonic' (only when h
    is given) pairs D_mu f with the harmonic extension of h."""
    r, wr = gauss_legendre(*f.support, nr)
    fvals, dvals, L1 = _transport_polar(f, mu, r)
    wt = 2.0 * np.pi / mu.M

    def pair(a, b):
        return float(((wr * r)[:, None] * a * b).sum() * wt)

    out = {"log": pair(dvals, np.log(r)[:, None]), "conformal": pair(fvals, L1.real)}
    if h is not None:
        z = r[:, None] * np.exp(1j * grid_angles(mu.M))[None, :]
        out["harmonic"] = pair(dvals, h.harmonic_extend(z))
    return out


def dmu(f: DiskTestFunction, mu: CircleMeasure, r, theta):
    """Transport derivative D_mu f = 2 f Re(L') + L_mu f on a polar mesh,
    with L_mu and L_mu' by direct grid quadrature (the M^2 route that
    dmu_polar's power series is checked against)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    z = r * np.exp(1j * theta)
    fz = f.eval_polar(r, theta)
    dfz = f.dz(r, theta)
    L = loewner_field(mu, z)
    L1 = loewner_field_deriv(mu, z)
    return 2.0 * fz * L1.real + 2.0 * (L * dfz).real


def dmu_modes(f: DiskTestFunction, mu: CircleMeasure, K: int):
    """Angular mode table of D_mu f, as a callable on radius arrays."""

    return lambda r: batch_coeffs(dmu_polar(f, mu, r), K)


# -- kernel V ------------------------------------------------------------------


def kernel_v(p: BoundaryField, M: int) -> np.ndarray:
    """Assemble V_p on the M x M angle grid, continuity value on the diagonal."""
    theta = grid_angles(M)
    pt = p.conjugate().values(M)
    dn = p.dirichlet_to_neumann().values(M)
    diff = theta[None, :] - theta[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (pt[None, :] - pt[:, None]) / np.tan(diff / 2.0)
    np.fill_diagonal(vals, -2.0 * dn)
    return vals


def contract_left(p: BoundaryField, q: BoundaryField, M: int) -> np.ndarray:
    """(p V_q)(w') = int p(w) V_q(w, w') dl(w), in closed spectral form.

    Equals 2 pi (ptilde qtilde - conj(p qtilde)) where conj is harmonic
    conjugation of the product.
    """
    pv = p.values(M)
    qt = q.conjugate().values(M)
    return 2.0 * np.pi * (p.conjugate().values(M) * qt - grid_conjugate(pv * qt))


def operator_a(p: BoundaryField, q: BoundaryField, M: int) -> np.ndarray:
    """A(p, q) = (p V_q - q V_p) / 2 pi = conj(ptilde q - p qtilde)."""
    pv, qv = p.values(M), q.values(M)
    pt, qt = p.conjugate().values(M), q.conjugate().values(M)
    return grid_conjugate(pt * qv - pv * qt)


def vkernel_dnh_grid(pt: np.ndarray, dnh: np.ndarray, dnh_conj: np.ndarray) -> np.ndarray:
    """w -> int V_p(w, w') d_n H h(w') dl(w') = 2 pi (ptilde conj(d_n H h)
    - conj(d_n H h ptilde)) on the grid, from the grid values of ptilde, of
    d_n H h and of its conjugate; batched along the last axis."""
    return 2.0 * np.pi * (pt * dnh_conj - grid_conjugate(dnh * pt))


def vkernel_pair_dnh(p: BoundaryField, h: BoundaryField, M: int) -> np.ndarray:
    """w -> int V_p(w, w') d_n H h(w') dl(w'), in closed spectral form."""
    dnh = h.dirichlet_to_neumann().values(M)
    return vkernel_dnh_grid(p.conjugate().values(M), dnh, grid_conjugate(dnh))


def contraction_suite(p: BoundaryField, q: BoundaryField) -> dict:
    """Residuals of the contraction identities of the kernel V.

    Grid double sums of the assembled kernel versus the closed spectral
    forms: row integral, diagonal, symmetric and antisymmetric product
    contractions, and the degree sign formula for pure modes.  The grid
    has max(64, 8 (deg p + deg q + 1)) angles.
    """
    M = max(64, 8 * (p.degree + q.degree + 1))
    dtheta = 2.0 * np.pi / M
    Vp = kernel_v(p, M)
    Vq = kernel_v(q, M)
    out = {}

    row = Vp.sum(axis=0) * dtheta
    out["row_integral"] = float(np.abs(row - 2.0 * np.pi * (p.values(M) - p.mean())).max())
    out["diagonal"] = float(np.abs(np.diag(Vp) + 2.0 * p.dirichlet_to_neumann().values(M)).max())

    pv, qv = p.values(M), q.values(M)
    pt, qt = p.conjugate().values(M), q.conjugate().values(M)
    pVq = (pv[:, None] * Vq).sum(axis=0) * dtheta
    qVp = (qv[:, None] * Vp).sum(axis=0) * dtheta
    sym = (pVq + qVp) / (2.0 * np.pi)
    out["symmetric_contraction"] = float(
        np.abs(sym - (pv * qv + pt * qt - p.mean() * q.mean())).max())
    anti = (pVq - qVp) / (2.0 * np.pi)
    out["antisymmetric_contraction"] = float(np.abs(anti - operator_a(p, q, M)).max())
    out["spectral_left_contraction"] = float(np.abs(pVq - contract_left(p, q, M)).max())

    zero_mean_a = operator_a(p - BoundaryField.constant(p.mean(), 1),
                             q - BoundaryField.constant(q.mean(), 1), M)
    decomp = zero_mean_a + p.mean() * qv - q.mean() * pv
    out["mean_decomposition"] = float(np.abs(operator_a(p, q, M) - decomp).max())
    return out


def sign_formula_residual(deg_p: int, deg_q: int) -> float:
    """A(p, q) = -sgn(p, q)(pq + ptilde qtilde) for pure-degree p, q with
    coefficients from numpy's default generator at seed 0, on 256 angles."""
    rng = np.random.default_rng(0)
    M = 256
    N = max(deg_p, deg_q, 1)

    def pure(deg):
        c = np.zeros(2 * N + 1)
        if deg == 0:
            c[0] = rng.standard_normal()
        else:
            c[2 * deg - 1 : 2 * deg + 1] = rng.standard_normal(2)
        return BoundaryField(c)

    p, q = pure(deg_p), pure(deg_q)
    sgn = (deg_p > deg_q) - (deg_p < deg_q)
    target = -sgn * (p.values(M) * q.values(M)
                     + p.conjugate().values(M) * q.conjugate().values(M))
    return float(np.abs(operator_a(p, q, M) - target).max())


def finite_rank_truncation(p: BoundaryField, ranks) -> list[float]:
    """Sup-norm residual of the rank-K truncation of V_p on 256 angles, for
    K in ranks.

    Truncation keeps 2-D Fourier modes with both indices at most K; for a
    band-limited symbol the kernel is exactly finite rank, so residuals
    decay to roundoff once K reaches the symbol degree.
    """
    M = 256
    V = kernel_v(p, M)
    spec = np.fft.fft2(V)
    freqs = np.fft.fftfreq(M, d=1.0 / M)
    out = []
    for K in ranks:
        mask = (np.abs(freqs)[:, None] <= K) & (np.abs(freqs)[None, :] <= K)
        out.append(float(np.abs(np.fft.ifft2(spec * mask).real - V).max()))
    return out


# -- boundary localization -----------------------------------------------------


# Gauss-Legendre radii of the localization suite's bulk pairings.  The
# radial rule, not the angle grid, limits the Green pairing: at 40 radii
# its relative error stayed near 2e-4 for every grid from 64 to 256 points
# (N = 16, seed 1); 64 radii put it below 5e-6.
LOCALIZATION_NR = 64


def boundary_localization_suite(f1: DiskTestFunction, f2: DiskTestFunction,
                                mu: CircleMeasure) -> dict:
    """Bulk quadrature versus boundary-spectral forms of the three
    localization identities; returns (lhs, rhs, relative residual) each."""
    nr = LOCALIZATION_NR
    p1 = f1.poisson_adjoint()
    p2 = f2.poisson_adjoint()
    out = {}
    bulk = bulk_pairings(f1, mu, nr)

    # log pairing of the transported test function
    lhs = bulk["log"]
    rhs = -2.0 * np.pi * mu.integrate_field(p1)
    out["log_pairing"] = (lhs, rhs, _rel(lhs, rhs))

    # conformal-factor pairing
    lhs = bulk["conformal"]
    rhs = 2.0 * np.pi * mu.integrate_field(p1 - p1.dirichlet_to_neumann())
    out["conformal_factor"] = (lhs, rhs, _rel(lhs, rhs))

    # symmetrized Green pairing
    K = max(f1.degree, f2.degree) + 2
    g1 = -green_pair_modes(lambda rr: f1.angular_modes(rr, K), f1.support,
                           dmu_modes(f2, mu, K), f2.support, K, nr)
    g2 = -green_pair_modes(dmu_modes(f1, mu, K), f1.support,
                           lambda rr: f2.angular_modes(rr, K), f2.support, K, nr)
    lhs = g1 + g2
    rhs = 2.0 * np.pi * mu.integrate(p1.values(mu.M) * p2.values(mu.M))
    out["green_pairing"] = (lhs, rhs, _rel(lhs, rhs))
    return out


def kernel_u_check(f: DiskTestFunction, h: BoundaryField,
                   mu: CircleMeasure) -> tuple[float, float, float]:
    """Bulk pairing of D_mu f with the harmonic extension of h, on 48
    Gauss-Legendre radii, versus the kernel-V spectral form; returns (lhs,
    rhs, relative residual)."""
    lhs = bulk_pairings(f, mu, 48, h)["harmonic"]
    p = f.poisson_adjoint()
    rhs = mu.integrate(vkernel_pair_dnh(p, h, mu.M))
    return lhs, rhs, _rel(lhs, rhs)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale
