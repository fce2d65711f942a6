"""Boundary trace field: sampling, covariance calculus, and the
localization of the zero mode under the sigma-finite field measure.

The mean-zero trace field at truncation N is

    h0 = sqrt(2 pi) sum_{1<=k<=2N} e_k X_k / sqrt(lam_k),

with i.i.d. standard normals X_k, so mode k has variance 2 pi / lam_k and
the pointwise covariance is the truncation of -2 log |w - z|.  The full
field h = h0 + m carries Lebesgue weight e^{delta m} dm on the zero mode;
a compactly supported profile with at least one nonzero-mean symbol
localizes the m-integral to the interval m_support returns, and
generator._zero_mode_rows integrates it per sample.  Every Monte Carlo
estimator draws its samples in batches through monte_carlo_rows.
"""

from __future__ import annotations

import warnings
import dataclasses

import numpy as np

from .quadrature import green_pair_modes
from .spectral import BoundaryField, batch_values, eigenvalues


class IntegrabilityError(ValueError):
    """Zero-mode integral would not localize (no nonzero-mean symbol)."""


# -- coupling constants -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CouplingParams:
    """Metric-growth coupling constants with their algebraic relations."""

    xi: float
    gamma: float
    Q: float
    alpha: float
    chi: float
    beta: float
    c: float
    omega: float
    d_gamma: float | None = None

    def __post_init__(self):
        if abs(self.Q - (self.gamma / 2.0 + 2.0 / self.gamma)) > 1e-12:
            raise ValueError("Q must equal gamma/2 + 2/gamma")
        if self.d_gamma is not None and abs(self.xi - self.gamma / self.d_gamma) > 1e-12:
            raise ValueError("xi must equal gamma / d_gamma")

    @classmethod
    def pure_gravity(cls) -> "CouplingParams":
        """The couplings solving the invariance relations for metric growth.

        With (alpha, chi, beta) = (-2Q + gamma, -Q, 0) the first relation
        forces 2 xi in {gamma/2, 2/gamma}.  The second branch gives
        d = gamma^2, which the dimension bound d >= 2 + gamma^2/2 rejects:
        it would need gamma^2 >= 4.  The surviving branch fixes d = 4, and
        the mean-shift relations select Q = 5 gamma / 4, hence
        gamma^2 = 8/3.
        """
        gamma = np.sqrt(8.0 / 3.0)
        xi = 1.0 / np.sqrt(6.0)
        Q = 5.0 / np.sqrt(6.0)
        omega = -gamma
        return cls(xi=xi, gamma=gamma, Q=Q, alpha=-2.0 * Q - omega, chi=-Q,
                   beta=0.0, c=-xi / (2.0 * np.pi), omega=omega, d_gamma=4.0)

    def replace(self, **kw) -> "CouplingParams":
        """A copy with the given fields changed, validated again."""
        return dataclasses.replace(self, **kw)

    def invariance_residuals(self) -> tuple[float, float, float, float]:
        """Residuals of the four sufficient relations; all zero at pure gravity."""
        tpc = 2.0 * np.pi * self.c
        return (2.0 * self.xi + 1.0 / (2.0 * self.xi) + self.chi,
                self.chi - self.alpha + tpc,
                tpc * tpc - self.xi * self.xi,
                self.beta)

    @property
    def zero_mode_weight(self) -> float:
        """delta with m-density e^{delta m}; equals -2 pi c."""
        return -2.0 * np.pi * self.c


# -- trace sampling -----------------------------------------------------------


def mode_std(N: int) -> np.ndarray:
    """Standard deviations sqrt(2 pi / lam_k) for k = 1..2N."""
    lam = eigenvalues(N)[1:]
    return np.sqrt(2.0 * np.pi / lam)


def sample_trace_batch(N: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent mean-zero trace samples, as (n, 2N+1) coefficient rows."""
    if N < 1:
        raise ValueError("truncation degree must be at least 1")
    out = np.zeros((n, 2 * N + 1))
    out[:, 1:] = rng.standard_normal((n, 2 * N)) * mode_std(N)
    return out


def pair_symbol(coeffs: np.ndarray, p: BoundaryField) -> np.ndarray:
    """Batched pairing of h0 rows with a symbol against arclength measure."""
    n = min((coeffs.shape[1] - 1) // 2, p.degree)
    return coeffs[:, 1 : 2 * n + 1] @ p.coeffs[1 : 2 * n + 1]


def pair_dnh(coeffs: np.ndarray, k: BoundaryField) -> np.ndarray:
    """Batched <k, d_n H h0> of h0 rows with a symbol in L^2 of the circle."""
    N = (coeffs.shape[1] - 1) // 2
    return -(coeffs * (eigenvalues(N) * k.truncate(N).coeffs)[None, :]).sum(axis=1)


# -- covariance kernels -------------------------------------------------------


def truncated_boundary_covariance(N: int, dtheta):
    """Covariance of the degree-N trace field at angular separation dtheta."""
    dtheta = np.asarray(dtheta, dtype=float)
    m = np.arange(1, N + 1)
    return 2.0 * (np.cos(np.multiply.outer(dtheta, m)) / m).sum(axis=-1)


def green_dirichlet(z1, z2):
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    return -np.log(np.abs((z1 - z2) / (1.0 - np.conj(z1) * z2)))


def bulk_covariance_matrix(fs: list, nr: int = 40) -> np.ndarray:
    """Covariance of the Dirichlet-field pairings of the test functions.

    Entry (i, j) is -2 pi times the Green pairing of f_i with f_j, computed
    per angular mode with the diagonal kink split out.  Warns if roundoff
    drives a diagonal entry or an eigenvalue visibly negative.
    """
    n = len(fs)
    K = max(f.degree for f in fs)
    sigma = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            val = -2.0 * np.pi * green_pair_modes(
                lambda r, f=fs[i]: f.angular_modes(r, K), fs[i].support,
                lambda r, f=fs[j]: f.angular_modes(r, K), fs[j].support, K, nr)
            sigma[i, j] = sigma[j, i] = val
    if np.any(np.diag(sigma) < -1e-10):
        warnings.warn("covariance quadrature degenerated: negative diagonal")
    w = np.linalg.eigvalsh(sigma)
    if w.min() < -1e-10 * max(1.0, w.max()):
        warnings.warn("covariance quadrature degenerated: negative eigenvalue")
    return sigma


# -- Gaussian identity harness -------------------------------------------------

GAUSSIAN_IDENTITIES = ("IBP1", "IBP2", "CM1", "CM2", "CM3")


def gaussian_identity_check(which: str, cov: np.ndarray, n_samples: int,
                            rng: np.random.Generator):
    """Monte-Carlo check of a Gaussian integration-by-parts or shift identity.

    Variables are the rows of a centered Gaussian vector with the given
    covariance; the smooth test function is tanh, shifted to tanh(x + 1/2)
    in IBP2, whose sides an odd function would make vanish.  Returns
    (mc_lhs, rhs, stderr) where stderr gates the paired difference.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    w = np.linalg.eigvalsh(cov)
    if w.min() < -1e-12 * max(1.0, w.max()):
        raise ValueError("covariance must be positive semidefinite")
    L = np.linalg.cholesky(cov + 1e-14 * np.eye(cov.shape[0]))
    Z = rng.standard_normal((n_samples, cov.shape[0])) @ L.T

    psi = np.tanh

    def dpsi(x):
        return 1.0 - np.tanh(x) ** 2

    if which == "IBP1":
        X, Y = Z[:, 0], Z[:, min(1, Z.shape[1] - 1)]
        lhs = psi(X) * Y
        rhs = cov[0, min(1, Z.shape[1] - 1)] * dpsi(X)
    elif which == "IBP2":
        # with the odd tanh both sides would have mean 0 for any covariance
        t = np.tanh(Z[:, :-1] + 0.5)
        Y = Z[:, -1]
        lhs = t.prod(axis=1) * Y
        rhs = np.zeros_like(Y)
        for i in range(t.shape[1]):
            rhs = rhs + cov[i, -1] * (1.0 - t[:, i] ** 2) * np.delete(t, i, axis=1).prod(axis=1)
    elif which == "CM1":
        W, Y = Z[:, 0], Z[:, 1]
        lhs = W * np.exp(Y - cov[1, 1] / 2.0)
        rhs = np.full_like(lhs, cov[0, 1])
    elif which == "CM2":
        W, Zv, X, Y = Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3]
        lhs = W * Zv * np.exp(X - cov[2, 2] / 2.0) * np.exp(Y - cov[3, 3] / 2.0)
        rhs = np.full_like(lhs, (cov[0, 1] + (cov[0, 2] + cov[0, 3]) * (cov[1, 2] + cov[1, 3]))
                           * np.exp(cov[2, 3]))
    elif which == "CM3":
        W, Zv, X, Y = Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3]
        eX = np.exp(X - cov[2, 2] / 2.0)
        eY = np.exp(Y - cov[3, 3] / 2.0)
        lhs = (W - cov[0, 2]) * (Zv - cov[1, 3]) * eX * eY
        rhs = np.full_like(lhs, (cov[0, 3] * cov[1, 2] + cov[0, 1]) * np.exp(cov[2, 3]))
    else:
        raise ValueError(f"unknown identity {which!r}")

    diff = lhs - rhs
    return float(lhs.mean()), float(rhs.mean()), float(diff.std(ddof=1) / np.sqrt(diff.size))


# -- Monte Carlo driver ----------------------------------------------------------


def monte_carlo_rows(per_batch, n_samples: int, batch: int) -> np.ndarray:
    """Per-sample rows (n_samples, k) drawn in batches of at most batch.

    per_batch(b) draws b samples and returns their rows as a (b, k) array;
    batches run in order, and the last one holds the remainder.
    """
    rows = []
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        rows.append(per_batch(b))
        done += b
    return np.concatenate(rows)


def mean_stderr(v: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(v.size))


def mean_zero_pairing(h: BoundaryField, p: BoundaryField) -> float:
    """Arclength pairing of the mean-zero part of h with p, mode by mode."""
    return sum(h.coeffs[k] * p.coeffs[k] for k in range(1, min(h.coeffs.size, p.coeffs.size)))


# -- zero-mode localization -----------------------------------------------------


def m_support(blocks):
    """Localized m-interval per sample from compact profile blocks.

    Each block is (base, slopes, box): base (B, n) pairing values at m = 0,
    slopes (n,) their m-derivatives and box the profile support.  Raises
    if no coordinate anywhere carries a nonzero slope.
    """
    B = blocks[0][0].shape[0]
    lo = np.full(B, -np.inf)
    hi = np.full(B, np.inf)
    any_slope = False
    for base, slopes, box in blocks:
        for j, s in enumerate(slopes):
            a, b = box[j]
            if s == 0.0:
                dead = (base[:, j] < a) | (base[:, j] > b)
                lo[dead], hi[dead] = np.inf, -np.inf
                continue
            any_slope = True
            t1 = (a - base[:, j]) / s
            t2 = (b - base[:, j]) / s
            lo = np.maximum(lo, np.minimum(t1, t2))
            hi = np.minimum(hi, np.maximum(t1, t2))
    if not any_slope:
        raise IntegrabilityError(
            "no symbol has nonzero mean: the zero-mode integral does not localize")
    bad = ~np.isfinite(lo) | ~np.isfinite(hi) | (hi < lo)
    lo[bad] = 0.0
    hi[bad] = 0.0
    return lo, hi


# -- Cameron-Martin and conjugate-shift checks -----------------------------------


def cameron_martin_check(symbols, profile, p: BoundaryField, t: float, N: int,
                         n_samples: int, rng: np.random.Generator):
    """Shift identity for the mean-zero trace measure, common random numbers.

    E F(h + t p) versus E F(h) exp(t <h, p>_{1/2} - t^2 |p|^2_{1/2} / 2).
    Returns (lhs, rhs, stderr of the paired difference).
    """
    coeffs = sample_trace_batch(N, n_samples, rng)
    base = np.stack([pair_symbol(coeffs, q) for q in symbols], axis=-1)
    shift = np.array([mean_zero_pairing(p, q) for q in symbols])
    lhs = profile.value(base + t * shift[None, :])
    pc = p.truncate(N).coeffs
    pairing = -pair_dnh(coeffs, p) / (2.0 * np.pi)
    norm2 = float(np.sum(eigenvalues(N) * pc * pc)) / (2.0 * np.pi)
    rhs = profile.value(base) * np.exp(t * pairing - 0.5 * t * t * norm2)
    diff = lhs - rhs
    return float(lhs.mean()), float(rhs.mean()), float(diff.std(ddof=1) / np.sqrt(diff.size))


def inverse_laplace_half(p: BoundaryField) -> BoundaryField:
    """P with dirichlet_to_neumann(P) = mean-zero part of p: P = -sum p_m/m."""
    c = np.zeros_like(p.coeffs)
    lam = eigenvalues(p.degree)
    c[1:] = -p.coeffs[1:] / lam[1:]
    return BoundaryField(c)


def tilde_shift_check(symbols, profile, h: BoundaryField, xi: float) -> float:
    """Conjugate-gradient shift identity, per sample, on 1024 grid angles.

    Evaluates the conjugated gradient of the cylindrical functional at the
    field shifted by -xi times the boundary log kernel rooted at x, and
    compares with the tangential x-derivative of the shifted functional
    divided by 2 pi xi.  Returns the max grid residual.
    """
    M = 1024
    base = np.array([mean_zero_pairing(h, q) + h.mean() * q.integral() for q in symbols])
    P = [inverse_laplace_half(q) for q in symbols]
    shifts = np.stack([2.0 * np.pi * xi * Pq.values(M) for Pq in P], axis=-1)
    args = base[None, :] + shifts
    grads = profile.grad(args)
    tildes = np.stack([q.conjugate().values(M) for q in symbols], axis=-1)
    lhs = (grads * tildes).sum(axis=-1)
    composite = profile.value(args)
    comp_field = BoundaryField.from_grid(composite, degree=M // 2 - 1)
    rhs = comp_field.tangential_derivative().values(M) / (2.0 * np.pi * xi)
    return float(np.abs(lhs - rhs).max())
