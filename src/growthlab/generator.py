"""Generator of the boundary-field evolution, its invariance equation,
and the Dirichlet form with its symmetric/antisymmetric split.

Drifts are assembled in two interchangeable forms: a bulk form pairing the
transported test function against the field by disk quadrature, and a
boundary form in which every term is a circle integral against the driving
measure (the V-kernel carries the field pairing).  _TraceBatch holds the
boundary form once: the estimators evaluate it per sample, and the
per-configuration routes on a batch of one.  Measure-level checks
run Monte Carlo over trace samples with the zero mode integrated per
sample; left and right sides always share random numbers, and gates are
placed at three standard errors of the paired difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .disk import DiskTestFunction, realize_symbol
from .fields import (CouplingParams, IntegrabilityError, batch_values,
                     bulk_covariance_matrix, m_support, mean_stderr,
                     monte_carlo_rows, pair_dnh, pair_symbol, sample_trace_batch,
                     truncated_boundary_covariance)
from .gmc import CircleMeasure, chaos_density_batch, chaos_measure
from .kernels import (bulk_pairings, contract_left, dmu_modes, operator_a,
                      vkernel_dnh_grid)
from .profiles import MollifiedProfile, MovingAxesError, ProductProfile
from .quadrature import batched_gauss_panels, green_pair_modes
from .spectral import (BoundaryField, eigenvalues, grid_angles, grid_conjugate,
                       grid_dirichlet_to_neumann)

TWO_PI = 2.0 * np.pi


@dataclass
class CylindricalFunctional:
    """psi of finitely many boundary pairings, with realizing bulk functions.

    symbols are band-limited boundary fields p_i; each is realizable as
    the Poisson adjoint of a disk test function (built on demand) when
    bulk pairings are needed.  The realized functions, their covariance,
    their log pairings and the invariance estimator's mollified profile
    are built once per functional, on first use.
    """

    symbols: list
    profile: ProductProfile
    annulus: tuple[float, float] = (0.35, 0.75)
    _realized: list | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.symbols)

    def slopes(self) -> np.ndarray:
        return np.array([p.integral() for p in self.symbols])

    def realized(self) -> list:
        if self._realized is None:
            self._realized = [realize_symbol(p, self.annulus) for p in self.symbols]
        return self._realized

    @cached_property
    def covariance(self) -> np.ndarray:
        """Covariance of the bulk Gaussian pairings with the realized functions."""
        return bulk_covariance_matrix(self.realized(), nr=40)

    @cached_property
    def log_pairings(self) -> np.ndarray:
        return np.array([f.log_pairing() for f in self.realized()])

    @cached_property
    def mollified(self) -> MollifiedProfile:
        """The profile averaged over the bulk Gaussian."""
        return MollifiedProfile(self.profile, self.covariance)


# -- the generator -------------------------------------------------------------


class _TraceBatch:
    """Trace fields with their driving measures on a grid, and the
    generator's per-field terms against them: the drift b(p), the
    diffusion sigma(p, q) and the V-kernel pairing.  The only
    implementation of these terms, used by every estimator per sample and
    by the per-configuration routes on a batch of one.

    draw() samples fields against the chaos e^{-xi h} at m = 0; at() holds
    one field h against a given measure mu.
    """

    def __init__(self, coeffs: np.ndarray, grid: np.ndarray, mu0: np.ndarray):
        self.M = grid.shape[-1]
        self.dtheta = TWO_PI / self.M
        self.coeffs = coeffs
        self.dnh = grid_dirichlet_to_neumann(grid)
        self.dnh_conj = grid_conjugate(self.dnh)
        self.mu0 = mu0
        self.mass0 = mu0.sum(axis=1) * self.dtheta

    @classmethod
    def draw(cls, N: int, b: int, rng: np.random.Generator, xi: float,
             M: int) -> "_TraceBatch":
        """b mean-zero trace samples of degree N against their chaos."""
        coeffs = sample_trace_batch(N, b, rng)
        grid = batch_values(coeffs, M)
        return cls(coeffs, grid, chaos_density_batch(grid, -1, xi, N))

    @classmethod
    def at(cls, h: BoundaryField, mu: CircleMeasure) -> "_TraceBatch":
        """A batch of one: the field h against the measure mu."""
        return cls(h.coeffs[None, :], h.values(mu.M)[None, :], mu.density[None, :])

    def mu_int(self, gvals) -> np.ndarray:
        """Integral of grid values against each sample's measure."""
        return (self.mu0 * gvals).sum(axis=-1) * self.dtheta

    def bases(self, symbols) -> np.ndarray:
        """(B, n) pairings of the mean-zero fields with each symbol."""
        return np.stack([pair_symbol(self.coeffs, p) for p in symbols], axis=-1)

    def vpair_dnh(self, p: BoundaryField) -> np.ndarray:
        """V-kernel drift term: pairing of V_p with the field's normal data."""
        return self.mu_int(vkernel_dnh_grid(p.conjugate().values(self.M), self.dnh,
                                            self.dnh_conj))

    def drift(self, p: BoundaryField, params: CouplingParams) -> np.ndarray:
        """Measure part of the drift b(p) per sample; the full drift
        subtracts beta int p dl, which does not scale with the measure."""
        return (self.vpair_dnh(p)
                - TWO_PI * params.chi * self.mu_int(p.dirichlet_to_neumann().values(self.M))
                + TWO_PI * (params.chi - params.alpha) * self.mu_int(p.values(self.M)))

    def diffusion(self, p: BoundaryField, q: BoundaryField) -> np.ndarray:
        """sigma(p, q) = (2 pi)^2 int p q dmu per sample."""
        return TWO_PI ** 2 * self.mu_int(p.values(self.M) * q.values(self.M))


def _generator_term(b, sig, grad, hess):
    """sum_j b_j d_j psi + 1/2 sum_jk sigma_jk d_jk psi, entry by entry, for
    scalars or for per-sample arrays shaped against the profile's; sums in
    place, as the nodes of a batch make arrays of many megabytes."""
    out = b[0] * grad[0]
    for j in range(1, len(b)):
        out += b[j] * grad[j]
    for j in range(len(b)):
        for k in range(len(b)):
            out += 0.5 * sig[j][k] * hess[j][k]
    return out


def drift_bulk(f: DiskTestFunction, h: BoundaryField, mu: CircleMeasure,
               params: CouplingParams, nr: int = 48) -> float:
    """Bulk-form drift: field pairing of the transported test function."""
    bulk = bulk_pairings(f, mu, nr, h)
    p = f.poisson_adjoint()
    return (bulk["harmonic"] - TWO_PI * params.alpha * mu.integrate_field(p)
            + params.chi * bulk["conformal"] - params.beta * p.integral())


def _nested(f, rows):
    """f applied to every per-sample array of a nested list."""
    return [_nested(f, r) for r in rows] if isinstance(rows, list) else f(rows)


# nodes per block of rows that an integrand sees at once: whole batches make
# temporaries of many megabytes, and the elementwise arithmetic then runs at
# memory speed; blocks of this size stay in cache
_BLOCK_NODES = 2 ** 16


def _in_blocks(fn, m, rows):
    """fn(m, *rows) evaluated on blocks of consecutive rows, each holding at
    most _BLOCK_NODES nodes of m (at least one row), written into one array
    allocated at the first block.  Every value is elementwise per row, so
    the result has the bits of a single call."""
    B = m.shape[0]
    step = max(1, _BLOCK_NODES // (m.size // B))
    out = None
    for start in range(0, B, step):
        block = slice(start, start + step)
        vals = fn(m[block], *_nested(lambda r: r[block], rows))
        if out is None:
            out = np.empty((B,) + vals.shape[1:])
        out[block] = vals
    return out


def _integrate_live(fn, rows, lo, hi, n_out: int):
    """Per-sample integrals over [lo, hi] of fn(m, *rows), live rows only.

    rows are nested lists of per-sample arrays (leading axis B).  Rows with
    hi > lo go to batched_gauss_panels together, and fn sees exactly those
    rows of every array, a block of rows at a time (_in_blocks); a row with
    an empty interval is an exact zero in the output and never reaches fn.
    fn returns (B, K, n_out), and the output has shape (B, n_out).
    """
    live = hi > lo
    out = np.zeros(lo.shape + (n_out,))
    if live.any():
        sub = _nested(lambda r: r[live], rows)
        out[live] = batched_gauss_panels(lambda m: _in_blocks(fn, m, sub),
                                         lo[live], hi[live])
    return out


def _m_interval(*blocks):
    """Per-sample m-interval on which every (base, slopes, profile) block is
    inside its profile's support box."""
    return m_support([(base, slopes, prof.box) for base, slopes, prof in blocks])


def _zero_mode_rows(blocks, inputs, fn, n_out, n_samples: int,
                    rng: np.random.Generator, xi: float, N: int, M: int, batch: int):
    """Per-sample zero-mode integrals of fn over n_samples trace fields.

    Each block is (symbols, profile, order, shift): its profile is taken
    at the sample's pairings with the symbols plus shift, moved along m by
    the symbols' integrals.  Per batch, inputs(tb) returns the per-sample
    inputs drawn from the _TraceBatch tb, as a list of (B,) arrays or
    nested lists of them, and fn(m, *psi, *inputs) is the integrand: psi
    holds each block's (value, grad, hess) up to its order, and every
    input is shaped to broadcast against m.  The integral runs by Gauss
    panels on the live rows (_integrate_live with n_out).  Raises before any
    draw if no symbol has a nonzero mean.  Returns the rows of every sample.
    """
    slopes = [np.array([p.integral() for p in symbols]) for symbols, *_ in blocks]
    if not any(np.any(s != 0.0) for s in slopes):
        raise IntegrabilityError(
            "no symbol has nonzero mean: the zero-mode integral does not localize")

    def integrand(m, bases, rows):
        psi = [prof.along(base, s, m, order)
               for base, s, (_, prof, order, _) in zip(bases, slopes, blocks)]
        shaped = _nested(lambda r: r.reshape(r.shape + (1,) * (m.ndim - 1)), rows)
        return fn(m, *psi, *shaped)

    def per_batch(b):
        tb = _TraceBatch.draw(N, b, rng, xi, M)
        bases = [tb.bases(symbols) + shift for symbols, _, _, shift in blocks]
        lo, hi = _m_interval(*zip(bases, slopes, [prof for _, prof, _, _ in blocks]))
        return _integrate_live(integrand, [bases, inputs(tb)], lo, hi, n_out)

    return monte_carlo_rows(per_batch, n_samples, batch)


def _line_rows(symbols, profile: MollifiedProfile, shift, inputs, fn, n_samples: int,
               rng: np.random.Generator, xi: float, N: int, M: int, batch: int):
    """Per-sample zero-mode integrals of a single profile block, in closed form.

    The profile is taken at the sample's pairings with the symbols plus
    shift and moves along m by the symbols' integrals, which must be
    nonzero on exactly one axis.  Per batch, inputs(tb) returns the
    per-sample inputs drawn from the _TraceBatch tb, and fn(I, *inputs)
    returns the batch's rows, where I(rate, key) is each sample's
    int e^{rate m} d_key profile dm (MollifiedProfile.line_integrals).
    Raises before any draw unless exactly one symbol has a nonzero mean.
    """
    slopes = np.array([p.integral() for p in symbols])
    moving = np.flatnonzero(slopes)
    if moving.size == 0:
        raise IntegrabilityError(
            "no symbol has nonzero mean: the zero-mode integral does not localize")
    if moving.size > 1:
        raise MovingAxesError(
            f"{moving.size} symbols have a nonzero mean: the zero mode moves one axis only")
    axis = int(moving[0])

    def per_batch(b):
        tb = _TraceBatch.draw(N, b, rng, xi, M)
        I = profile.line_integrals(tb.bases(symbols) + shift, axis, slopes[axis])
        return fn(I, *inputs(tb))

    return monte_carlo_rows(per_batch, n_samples, batch)


def _first_order_rows(F: CylindricalFunctional, inputs, rate: float, n_samples: int,
                      rng: np.random.Generator, xi: float, N: int, M: int, batch: int):
    """Per-sample int e^{rate m} (a psi + sum_i c_i d_i psi) dm on F's plain
    profile (mollified by Sigma = 0), with [a, c] = inputs(tb)."""

    def fn(I, a, c):
        out = a * I(rate, ("v",))
        for i in range(F.dim):
            out += c[i] * I(rate, ("g", i))
        return out

    plain = MollifiedProfile(F.profile, np.zeros((F.dim, F.dim)))
    return _line_rows(F.symbols, plain, 0.0, inputs, fn, n_samples, rng, xi, N, M, batch)


@dataclass
class PairedEstimate:
    """Two paired Monte Carlo estimates with the stderr of their difference."""

    lhs: float
    rhs: float
    stderr: float
    lhs_stderr: float
    rhs_stderr: float
    n: int

    @property
    def z(self) -> float:
        return abs(self.lhs - self.rhs) / self.stderr if self.stderr > 0 else 0.0

    def consistent(self, k: float = 3.0) -> bool:
        return abs(self.lhs - self.rhs) <= k * self.stderr


def _paired_from_samples(lhs, rhs) -> PairedEstimate:
    lhs_mean, lhs_se = mean_stderr(lhs)
    rhs_mean, rhs_se = mean_stderr(rhs)
    return PairedEstimate(lhs_mean, rhs_mean, mean_stderr(lhs - rhs)[1], lhs_se,
                          rhs_se, lhs.size)


# -- invariance equation ----------------------------------------------------------


def invariance_check(F: CylindricalFunctional, params: CouplingParams,
                     n_samples: int, rng: np.random.Generator, N: int = 64,
                     M: int = 256, batch: int = 4096) -> PairedEstimate:
    """Stationarity residual of the growth generator under the field measure.

    lhs is the expectation of the generator form of the time derivative
    (with the bulk Gaussian averaged into the mollified profile); rhs is
    the same expectation reduced by integration by parts to the four
    telescoped coefficients

        (chi - alpha + 2 pi c) int p dmu - (chi + 2 xi + 1/(2 xi))
        int d_nH p dmu - beta avg(p), and -((2 pi c)^2 - xi^2)/2 |mu|.

    Both sides share random numbers; at parameters solving the invariance
    relations the rhs vanishes identically and the lhs is consistent with
    zero.  The generator-side coefficients carry the 2 pi normalization of
    the boundary-localized drift.
    """
    xi = params.xi
    delta = params.zero_mode_weight
    n = F.dim

    coef_rhs_a = TWO_PI * (params.chi - params.alpha + TWO_PI * params.c)
    coef_rhs_b = -TWO_PI * (params.chi + 2.0 * xi + 1.0 / (2.0 * xi))
    coef_rhs_mass = -0.5 * ((TWO_PI * params.c) ** 2 - xi ** 2)
    # the beta term of the drift, the same on both sides, does not scale with mu
    beta_c = [-TWO_PI * params.beta * p.mean() for p in F.symbols]

    def fn(I, b, sig, rhs_c, mass_c):
        rate = delta - xi
        grad = [I(rate, ("g", i)) for i in range(n)]
        hess = [[I(rate, ("h", min(i, j), max(i, j))) for j in range(n)] for i in range(n)]
        lhs = _generator_term(b, sig, grad, hess)
        rhs = mass_c * I(rate, ("v",))
        for i in range(n):
            mean_grad = I(delta, ("g", i))
            lhs += beta_c[i] * mean_grad
            rhs += rhs_c[i] * grad[i]
            rhs += beta_c[i] * mean_grad
        return np.stack([lhs, rhs], axis=-1)

    def inputs(tb):
        A = [tb.mu_int(p.values(M)) for p in F.symbols]
        B = [tb.mu_int(p.dirichlet_to_neumann().values(M)) for p in F.symbols]
        return [[tb.drift(p, params) for p in F.symbols],
                [[tb.diffusion(p, q) for q in F.symbols] for p in F.symbols],
                [coef_rhs_a * A[i] + coef_rhs_b * B[i] for i in range(n)],
                coef_rhs_mass * tb.mass0]

    rows = _line_rows(F.symbols, F.mollified, _log_shift(F, params), inputs, fn,
                      n_samples, rng, xi, N, M, batch)
    return _paired_from_samples(rows[:, 0], rows[:, 1])


def _log_shift(F: CylindricalFunctional, params: CouplingParams) -> np.ndarray:
    """alpha times the log pairings of the realized test functions."""
    return params.alpha * F.log_pairings


def _configuration(F: CylindricalFunctional, params: CouplingParams,
                   h: BoundaryField, m: float, M: int):
    """(tb, mu, x) at one field h with zero mode m: mu = e^{-xi (h + m)} its
    chaos, tb the _TraceBatch of h against mu, and x the profile argument,
    <h + m, p_i> plus the log shift, shaped (1, n)."""
    mu = chaos_measure(h, -1, params.xi, M) * np.exp(-params.xi * m)
    tb = _TraceBatch.at(h, mu)
    return tb, mu, tb.bases(F.symbols) + (h.mean() + m) * F.slopes() + _log_shift(F, params)


def invariance_local_value(F: CylindricalFunctional, params: CouplingParams,
                           h: BoundaryField, m: float, M: int = 256) -> float:
    """Boundary-localized form of the stationarity integrand at one
    configuration: the generator term of the Monte Carlo estimators, with
    their _TraceBatch drift and diffusion on a batch of one."""
    tb, _, x = _configuration(F, params, h, m, M)
    n = F.dim
    psit = F.mollified
    b = [tb.drift(p, params) - params.beta * p.integral() for p in F.symbols]
    sig = [[tb.diffusion(p, q) for q in F.symbols] for p in F.symbols]
    return float(_generator_term(b, sig, [psit.grad_entry(i, x) for i in range(n)],
                                 [[psit.hess_entry(i, j, x) for j in range(n)]
                                  for i in range(n)])[0])


def invariance_bulk_value(F: CylindricalFunctional, params: CouplingParams,
                          h: BoundaryField, m: float, M: int = 256) -> float:
    """Generator form of the stationarity integrand at one configuration,
    assembled from bulk quadratures (the cross-check route for the
    boundary-localized estimator).  Its radial rules take 80 nodes: at 40
    the quadrature error reached 3.4e-4 of the integrand at LIGHT, seed 1,
    against about 1e-8 at 80."""
    _, mu, x = _configuration(F, params, h, m, M)
    psit = F.mollified
    fs = F.realized()
    nr = 80
    total = 0.0
    K = max(f.degree for f in fs) + 2
    for i, f in enumerate(fs):
        bulk = bulk_pairings(f, mu, nr, h)
        gi = psit.grad_entry(i, x)[0]
        total += (bulk["harmonic"] + params.alpha * bulk["log"]
                  + params.chi * bulk["conformal"] - params.beta * f.integral()) * gi
        for j, fj in enumerate(fs):
            gterm = green_pair_modes(lambda rr: f.angular_modes(rr, K), f.support,
                                     dmu_modes(fj, mu, K), fj.support, K, nr)
            total += -TWO_PI * gterm * psit.hess_entry(i, j, x)[0]
    return float(total)


# -- Dirichlet form ---------------------------------------------------------------


@dataclass
class DirichletFormResult:
    forward: PairedEstimate      # <F, -L G> vs sym + antisym
    swapped: PairedEstimate      # <G, -L F> vs sym - antisym
    sym: float
    antisym: float


def dirichlet_form(F: CylindricalFunctional, G: CylindricalFunctional,
                   n_samples: int, rng: np.random.Generator, N: int = 64,
                   M: int = 256, batch: int = 2048) -> DirichletFormResult:
    """Dirichlet form of the pure-gravity generator and its split.

    Estimates <F, -L G> and <G, -L F> against the closed symmetric part
    2 pi^2 int <DF, DG>_{L^2(mu)} drho and antisymmetric part (conjugate
    product term plus the mean-mass term), under common random numbers.
    """
    params = CouplingParams.pure_gravity()
    xi = params.xi
    delta = params.zero_mode_weight
    nF, nG = F.dim, G.dim
    slopesF, slopesG = F.slopes(), G.slopes()
    a_grid = [[operator_a(p, q, M) for q in G.symbols] for p in F.symbols]

    def fn(m, F_, G_, bF, bG, sigF, sigG, cross, across, mass0):
        Fv, Fg, Fh = F_
        Gv, Gg, Gh = G_
        w = np.exp((delta - xi) * m)
        LG = _generator_term(bG, sigG, Gg, Gh)
        LF = _generator_term(bF, sigF, Fg, Fh)
        sym = np.zeros_like(m)
        anti = np.zeros_like(m)
        for i in range(nF):
            for j in range(nG):
                sym += 0.5 * cross[i][j] * Fg[i] * Gg[j]
                anti += 0.5 * across[i][j] * Fg[i] * Gg[j]
        meanF = sum(g * s for g, s in zip(Fg, slopesF))
        meanG = sum(g * s for g, s in zip(Gg, slopesG))
        anti += (0.5 * TWO_PI ** 2 * xi * mass0
                 * (meanF * Gv - meanG * Fv))
        return np.stack([-Fv * LG * w, -Gv * LF * w, sym * w, anti * w], axis=-1)

    def inputs(tb):
        across = [[TWO_PI ** 2 * tb.mu_int(a_grid[i][j]) for j in range(nG)]
                  for i in range(nF)]
        # cross/across carry (2 pi)^2 and are halved in fn, landing the closed
        # forms on their 2 pi^2 normalization; same for the mean-mass term
        drifts = [[tb.drift(p, params) for p in H.symbols] for H in (F, G)]
        sigmas = [[[tb.diffusion(p, q) for q in R.symbols] for p in L.symbols]
                  for L, R in ((F, F), (G, G), (F, G))]
        return drifts + sigmas + [across, tb.mass0]

    rows = _zero_mode_rows([(F.symbols, F.profile, 2, 0.0), (G.symbols, G.profile, 2, 0.0)],
                           inputs, fn, 4, n_samples, rng, xi, N, M, batch)
    lhs_f, lhs_s, sym, anti = rows.T
    fwd = _paired_from_samples(lhs_f, sym + anti)
    swp = _paired_from_samples(lhs_s, sym - anti)
    return DirichletFormResult(fwd, swp, sym.mean(), anti.mean())


# -- measure-level lemma checks ----------------------------------------------------


def rotational_invariance_check(ell: BoundaryField, F: CylindricalFunctional,
                                n_samples: int, rng: np.random.Generator,
                                N: int = 64, M: int = 256,
                                batch: int = 4096) -> tuple[float, float]:
    """Residual of the rotation identity at pure gravity

        E[(int d_t ell dmu) F + 2 pi xi int ell conj(DF) dmu] = 0.

    Returns (estimate, stderr).
    """
    params = CouplingParams.pure_gravity()
    xi, delta = params.xi, params.zero_mode_weight
    dtl = ell.tangential_derivative().values(M)
    lt = [ell.values(M) * p.conjugate().values(M) for p in F.symbols]

    def inputs(tb):
        return [tb.mu_int(dtl), [TWO_PI * xi * tb.mu_int(g) for g in lt]]

    return mean_stderr(_first_order_rows(F, inputs, delta - xi, n_samples, rng, xi, N, M,
                                         batch))


def ibp_hdmuf_check(p: BoundaryField, F: CylindricalFunctional,
                    G: CylindricalFunctional, n_samples: int,
                    rng: np.random.Generator, N: int = 64, M: int = 256,
                    batch: int = 4096) -> tuple[float, float]:
    """Residual of the product-rule identity for the field pairing of the
    transported test function, at pure gravity.  Returns (estimate, stderr).
    """
    params = CouplingParams.pure_gravity()
    xi, delta = params.xi, params.zero_mode_weight
    p0 = p.values(M) - p.mean()
    dnp = p.dirichlet_to_neumann().values(M)
    left_F = [contract_left(q, p, M) for q in F.symbols]
    left_G = [contract_left(q, p, M) for q in G.symbols]
    w_rate = delta - xi

    def fn(m, F_, G_, K1, KF, KG):
        Fv, Fg, _ = F_
        Gv, Gg, _ = G_
        out = K1 * Fv * Gv
        for i in range(F.dim):
            out = out + KF[i] * Fg[i] * Gv
        for j in range(G.dim):
            out = out + KG[j] * Fv * Gg[j]
        return (out * np.exp(w_rate * m))[..., None]

    def inputs(tb):
        K1 = (tb.vpair_dnh(p)
              + TWO_PI * xi * tb.mu_int(p0)
              + 2.0 * xi * TWO_PI * tb.mu_int(dnp))
        return [K1, [TWO_PI * tb.mu_int(g) for g in left_F],
                [TWO_PI * tb.mu_int(g) for g in left_G]]

    rows = _zero_mode_rows([(F.symbols, F.profile, 1, 0.0), (G.symbols, G.profile, 1, 0.0)],
                           inputs, fn, 1, n_samples, rng, xi, N, M, batch)
    return mean_stderr(rows[:, 0])


def ibp_potential_check(ell: BoundaryField, k: BoundaryField,
                        F: CylindricalFunctional, n_samples: int,
                        rng: np.random.Generator, c: float | None = None,
                        N: int = 64, M: int = 256,
                        batch: int = 4096) -> tuple[float, float]:
    """Residual of the potential-gradient integration by parts

        E[(-int k DV dl int ell dmu - xi int ell k dmu) phi
           + sum_i (int p_i k dl)(int ell dmu) phi_i] = 0

    with DV = -(1/2pi) d_nH h + c.  The measure stays at pure gravity.  The
    c term is c (int k dl)(int ell dmu) phi, so a mismatched c makes the
    residual linear in (c - c_pure) only when k has a nonzero integral; for
    a k of zero integral the residual does not depend on c.
    """
    params = CouplingParams.pure_gravity()
    if c is None:
        c = params.c
    xi, delta = params.xi, params.zero_mode_weight
    lv = ell.values(M)
    kv = k.values(M)
    k_int = k.integral()
    pk = np.array([sum(p.coeffs[i] * k.coeffs[i]
                       for i in range(min(p.coeffs.size, k.coeffs.size)))
                   for p in F.symbols])

    def inputs(tb):
        kdv = -pair_dnh(tb.coeffs, k) / TWO_PI + c * k_int   # int k DV dl per sample
        Lmu = tb.mu_int(lv)
        LK = tb.mu_int(lv * kv)
        return [-kdv * Lmu - xi * LK, [pk_i * Lmu for pk_i in pk]]

    return mean_stderr(_first_order_rows(F, inputs, delta - xi, n_samples, rng, xi, N, M,
                                         batch))


def qle_drift_compare(p: BoundaryField, f: DiskTestFunction, h: BoundaryField,
                      nu: CircleMeasure, nr: int = 48) -> dict:
    """Drift of the growth generator versus the exploration-process drift.

    The exploration normalization fixes harmonic functions to vanish at
    the origin, so the two drifts differ exactly by the zero-mode offset
    2 pi xi (avg p) |nu|; after accounting for it the agreement is
    deterministic.  The exploration side pairs the field in the bulk by
    quadrature; ours is fully boundary-spectral.
    """
    if abs(nu.total_mass - 1.0) > 1e-10:
        raise ValueError("exploration drift is stated for probability measures")
    params = CouplingParams.pure_gravity()
    xi, Q = params.xi, params.Q
    b_ours = float(_TraceBatch.at(h, nu).drift(p, params)[0])    # beta = 0 here
    hterm = bulk_pairings(f, nu, nr, h)["harmonic"]
    b_ms = (hterm + TWO_PI * Q * nu.integrate_field(p.dirichlet_to_neumann())
            + TWO_PI * xi * nu.integrate_field(p - BoundaryField.constant(p.mean(), 1)))
    offset = TWO_PI * xi * p.mean() * nu.total_mass
    scale = max(abs(b_ours), abs(b_ms), 1e-12)
    return {"b_ours": b_ours, "b_exploration": b_ms, "zero_mode_offset": offset,
            "residual": abs(b_ours - (b_ms + offset)) / scale}


def projection_covariance_identity(P: list, N: int = 64, M: int = 256) -> float:
    """Spectral residual of E[Pi_P(d_nH h)(x) h(x)] = -2 pi S_2(P)(x).

    The expectation is a finite Gaussian sum: E <d_nH h, p> a_k equals
    -2 pi p_k for every mode k >= 1, so the field is -2 pi times the
    mean-zero part of p, summed against p over the family.
    """
    lam = eigenvalues(N)
    lhs = np.zeros(M)
    s2 = np.zeros(M)
    for p in P:
        proj_field = BoundaryField(-TWO_PI * p.truncate(N).coeffs * (lam > 0))
        lhs += p.values(M) * proj_field.values(M)
        s2 += p.values(M) ** 2
    return float(np.abs(lhs + TWO_PI * s2).max())


def projected_symmetric_ibp_check(P: list, F_profile: ProductProfile,
                                  G: CylindricalFunctional, n_samples: int,
                                  rng: np.random.Generator, N: int = 64,
                                  M: int = 256, batch: int = 4096) -> PairedEstimate:
    """Finite-rank integration by parts of the symmetric form.

    F is the cylindrical functional with the orthonormal symbols P; the
    identity localizes the renormalized normal-derivative pairing to the
    projection on span(P).  Returns the paired lhs/rhs estimate.
    """
    gram = np.array([[p.l2_inner(q) for q in P] for p in P])
    if np.abs(gram - np.eye(len(P))).max() > 1e-10:
        raise ValueError("symbols must be orthonormal in L^2 of the circle")
    params = CouplingParams.pure_gravity()
    xi, delta = params.xi, params.zero_mode_weight
    nP, nG = len(P), G.dim
    s2 = np.zeros(M)
    pi1 = np.zeros(M)
    for p in P:
        s2 += p.values(M) ** 2
        pi1 += p.integral() * p.values(M)
    pgrid = np.stack([p.values(M) for p in P])
    qgrid = np.stack([q.values(M) for q in G.symbols])
    # Pi_P(q_j) on the grid
    proj_q = np.zeros((nG, M))
    for j, q in enumerate(G.symbols):
        for i, p in enumerate(P):
            proj_q[j] += p.l2_inner(q) * pgrid[i]

    def fn(m, F_, G_, cross, projq_mu, kern_q, pi1_q):
        Fv, Fg, _ = F_
        _, Gg, Gh = G_
        lhs = np.zeros_like(m)
        for i in range(nP):
            for j in range(nG):
                lhs = lhs + cross[i][j] * Fg[i] * Gg[j]
        inner = np.zeros_like(m)
        for j in range(nG):
            for j2 in range(nG):
                inner = inner + projq_mu[j2][j] * Gh[j][j2]
        for j in range(nG):
            inner = inner + (xi / TWO_PI) * pi1_q[j] * Gg[j]
            inner = inner + (1.0 / TWO_PI) * kern_q[j] * Gg[j]
        rhs = -Fv * inner
        w = np.exp((delta - xi) * m)
        return np.stack([lhs * w, rhs * w], axis=-1)

    def inputs(tb):
        # Pi_P(d_nH h) per sample on the grid
        coefs = np.stack([pair_dnh(tb.coeffs, p) for p in P], axis=-1)    # (B, nP)
        proj_dnh = coefs @ pgrid                                   # (B, M)
        cross = [[tb.mu_int(pgrid[i] * qgrid[j]) for j in range(nG)]
                 for i in range(nP)]
        projq_mu = [[tb.mu_int(proj_q[j2] * qgrid[j]) for j in range(nG)]
                    for j2 in range(nG)]
        kern = xi * (-TWO_PI * s2)[None, :] + proj_dnh             # (B, M)
        kern_q = [tb.mu_int(kern * qgrid[j][None, :]) for j in range(nG)]
        pi1_q = [tb.mu_int(pi1 * qgrid[j][None, :]) for j in range(nG)]
        return [cross, projq_mu, kern_q, pi1_q]

    rows = _zero_mode_rows([(P, F_profile, 1, 0.0), (G.symbols, G.profile, 2, 0.0)],
                           inputs, fn, 2, n_samples, rng, xi, N, M, batch)
    return _paired_from_samples(rows[:, 0], rows[:, 1])


def derivative_martingale_identity(N: int, xi: float, rng: np.random.Generator,
                                   M: int = 256) -> float:
    """Grid residual of the tilted-exponential derivative representation.

    The per-mode tilt product M_N and the sum of its mode derivatives are
    assembled factor by factor and compared against the spectral form
    (d_nH h_N + xi E[h_N d_nH h_N]) M_N; the two routes agree to roundoff.
    """
    X = rng.standard_normal(2 * N)
    lam = eigenvalues(N)[1:]
    basis = batch_values(np.eye(2 * N + 1)[1:], M)
    # factor-by-factor route
    log_m = (-xi * X[:, None] * basis / np.sqrt(lam)[:, None]
             - 0.5 * xi * xi * basis ** 2 / lam[:, None]).sum(axis=0)
    Mgrid = np.exp(log_m)
    lhs = np.zeros(M)
    for k in range(2 * N):
        lhs += (-np.sqrt(lam[k]) * X[k] * basis[k] - xi * basis[k] ** 2) * Mgrid
    # spectral route
    dnh = -((np.sqrt(lam) * X)[:, None] * basis).sum(axis=0)
    cov = -(basis ** 2).sum(axis=0)        # E[h_N d_nH h_N] pointwise
    rhs = (dnh + xi * cov) * Mgrid
    return float(np.abs(lhs - rhs).max())


def truncated_second_moment_growth(N: int, xi: float, q: BoundaryField,
                                   ranks, M: int = 256) -> list[float]:
    """Second moment of the projected renormalized drift term across
    projection ranks; grows without bound as the projection fills."""
    theta = grid_angles(M)
    ddiff = theta[None, :] - theta[:, None]
    cov = truncated_boundary_covariance(N, ddiff)
    qv = q.values(M)
    weight = np.exp(xi * xi * cov) * qv[None, :] * qv[:, None]
    rows = batch_values(np.eye(2 * max(ranks) + 1)[1:], M)
    out = []
    for K in ranks:
        S = np.zeros((M, M))
        T = np.zeros((M, M))
        for k in range(1, 2 * K + 1):
            ek = rows[k - 1]
            T += np.ceil(k / 2.0) * np.outer(ek, ek)
            S += np.outer(ek, ek)
        integrand = (xi ** 2 * (TWO_PI * S) ** 2 + TWO_PI * T) * weight
        out.append(float(integrand.sum() * (TWO_PI / M) ** 2))
    return out


def divergence_form_check(F: CylindricalFunctional, G: CylindricalFunctional,
                          n_samples: int, rng: np.random.Generator,
                          N: int = 64, M: int = 256,
                          batch: int = 4096) -> PairedEstimate:
    """Divergence-form reassembly of the kernel-gradient pairing.

    Compares E[int DF V_{DG} dl dmu] with the integration-by-parts route
    -E[F (Div(e^{-xi h} V_{DG}) - <DV V_{DG}, e^{-xi h}>)], all terms
    boundary-spectral, common random numbers.
    """
    params = CouplingParams.pure_gravity()
    xi, delta, c = params.xi, params.zero_mode_weight, params.c
    nF, nG = F.dim, G.dim
    left = [[contract_left(p, q, M) for q in G.symbols] for p in F.symbols]
    row = [TWO_PI * (q.values(M) - q.mean()) for q in G.symbols]
    qv = [q.values(M) for q in G.symbols]
    qt = [q.conjugate().values(M) for q in G.symbols]
    dn_q = [q.dirichlet_to_neumann().values(M) for q in G.symbols]
    sym_qq = [[qv[j] * qv[k] + qt[j] * qt[k] - G.symbols[j].mean() * G.symbols[k].mean()
               for k in range(nG)] for j in range(nG)]

    def fn(m, F_, G_, lhs_c, div_h, div_g, dv_pair):
        Fv, Fg, _ = F_
        _, Gg, Gh = G_
        lhs = np.zeros_like(m)
        for i in range(nF):
            for j in range(nG):
                lhs = lhs + lhs_c[i][j] * Fg[i] * Gg[j]
        div = np.zeros_like(m)
        for j in range(nG):
            for k in range(nG):
                div = div + div_h[j][k] * Gh[j][k]
        for j in range(nG):
            div = div + div_g[j] * Gg[j]
        dvp = np.zeros_like(m)
        for j in range(nG):
            dvp = dvp + dv_pair[j] * Gg[j]
        rhs = -Fv * (div - dvp)
        w = np.exp((delta - xi) * m)
        return np.stack([lhs * w, rhs * w], axis=-1)

    def inputs(tb):
        lhs_c = [[tb.mu_int(left[i][j]) for j in range(nG)] for i in range(nF)]
        div_h = [[np.pi * tb.mu_int(sym_qq[j][k]) for k in range(nG)] for j in range(nG)]
        div_g = [2.0 * xi * tb.mu_int(dn_q[j]) for j in range(nG)]
        # <DV V_{q_j}, mu>: DV = -(1/2pi) d_nH h + c against the first slot
        dv_pair = [-tb.vpair_dnh(q) / TWO_PI + c * tb.mu_int(row[j])
                   for j, q in enumerate(G.symbols)]
        return [lhs_c, div_h, div_g, dv_pair]

    rows = _zero_mode_rows([(F.symbols, F.profile, 1, 0.0), (G.symbols, G.profile, 2, 0.0)],
                           inputs, fn, 2, n_samples, rng, xi, N, M, batch)
    return _paired_from_samples(rows[:, 0], rows[:, 1])
