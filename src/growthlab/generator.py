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
from functools import cache, cached_property

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
    their log pairings and the closed-form zero mode's profiles (mollified
    and plain) are built once per functional, on first use.
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

    @cached_property
    def plain(self) -> MollifiedProfile:
        """The profile itself (mollified by Sigma = 0), for the closed-form
        zero mode."""
        return MollifiedProfile(self.profile, np.zeros((self.dim, self.dim)))


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


def _generator_terms(symbols, drift):
    """The generator L psi = sum_j b_j d_j psi + 1/2 sum_jk sigma_jk d_jk psi
    as (coefficient, key) terms, drifts first, then the diffusion row by row.

    drift(tb, p) is the drift coefficient of the symbol p on the _TraceBatch
    tb, and sigma_jk is tb.diffusion.  Hessian keys are sorted, so both
    off-diagonal terms read one entry.
    """
    terms = [(lambda tb, p=p: drift(tb, p), ("g", j)) for j, p in enumerate(symbols)]
    terms += [(lambda tb, p=p, q=q: 0.5 * tb.diffusion(p, q), ("h", min(j, k), max(j, k)))
              for j, p in enumerate(symbols) for k, q in enumerate(symbols)]
    return terms


def _column_sums(terms, tb, value):
    """Per column, the sum of coefficient(tb) * value(keys) over the terms
    (column, coefficient, keys), in the order they are listed."""
    cols = {}
    for col, coef, keys in terms:
        v = coef(tb) * value(keys)
        if col in cols:
            cols[col] += v
        else:
            cols[col] = v
    return [cols[c] for c in sorted(cols)]


def drift_bulk(f: DiskTestFunction, h: BoundaryField, mu: CircleMeasure,
               params: CouplingParams, nr: int = 48) -> float:
    """Bulk-form drift: field pairing of the transported test function."""
    bulk = bulk_pairings(f, mu, nr, h)
    p = f.poisson_adjoint()
    return (bulk["harmonic"] - TWO_PI * params.alpha * mu.integrate_field(p)
            + params.chi * bulk["conformal"] - params.beta * p.integral())


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
        vals = fn(m[block], *(r[block] for r in rows))
        if out is None:
            out = np.empty((B,) + vals.shape[1:])
        out[block] = vals
    return out


def _integrate_live(fn, rows, lo, hi, n_out: int):
    """Per-sample integrals over [lo, hi] of fn(m, *rows), live rows only.

    rows are per-sample arrays (leading axis B).  Rows with hi > lo go to
    batched_gauss_panels together, and fn sees exactly those rows of every
    array, a block of rows at a time (_in_blocks); a row with an empty
    interval is an exact zero in the output and never reaches fn.  fn
    returns (B, K, n_out), and the output has shape (B, n_out).

    The rule is fixed at the ladder's last level, 64 panels of 16 nodes: the
    suites' batches never stopped below it, and tests/test_generator.py
    holds each two-block estimator to a 128-panel rule.
    """
    live = hi > lo
    out = np.zeros(lo.shape + (n_out,))
    if live.any():
        sub = [r[live] for r in rows]
        out[live] = batched_gauss_panels(lambda m: _in_blocks(fn, m, sub),
                                         lo[live], hi[live],
                                         start_panels=64, max_panels=64)
    return out


def _m_interval(*blocks):
    """Per-sample m-interval on which every (base, slopes, profile) block is
    inside its profile's support box."""
    return m_support([(base, slopes, prof.box) for base, slopes, prof in blocks])


def _zero_mode_rows(blocks, terms, rate: float, n_samples: int,
                    rng: np.random.Generator, xi: float, N: int, M: int, batch: int):
    """Per-sample zero-mode integrals of products of profile blocks, by Gauss
    panels, over n_samples trace fields.

    Each block is (symbols, profile): the profile is taken at the sample's
    pairings with the symbols, moved along m by the symbols' integrals.
    Each term (column, coefficient, keys) adds coefficient(tb), from the
    batch's _TraceBatch tb, times the product over blocks of the profile
    entry keys[b] (ProductProfile.along) to its column; a column's terms
    are grouped by their first block's key, which multiplies the group's
    sum once, and every column is multiplied once by e^{rate m}.  The
    integral runs on the live rows (_integrate_live).  Raises before any
    draw if no symbol has a nonzero mean.  Returns (n_samples, columns).
    """
    slopes = [np.array([p.integral() for p in symbols]) for symbols, _ in blocks]
    if not any(np.any(s != 0.0) for s in slopes):
        raise IntegrabilityError(
            "no symbol has nonzero mean: the zero-mode integral does not localize")
    nb = len(blocks)
    keys = [list(dict.fromkeys(k[b] for _, _, k in terms)) for b in range(nb)]
    n_cols = 1 + max(col for col, _, _ in terms)
    groups = [{} for _ in range(n_cols)]
    for t, (col, _, k) in enumerate(terms):
        groups[col].setdefault(k[0], []).append((t, k[1:]))

    def integrand(m, *rows):
        psi = [prof.along(base, s, m, kb)
               for base, s, (_, prof), kb in zip(rows, slopes, blocks, keys)]
        coefs = [c[:, None] for c in rows[nb:]]
        w = np.exp(rate * m)
        out = np.empty(m.shape + (n_cols,))
        for col, by_first in enumerate(groups):
            acc = None
            for first, members in by_first.items():
                inner = None
                for t, rest in members:
                    v = coefs[t]
                    for entries, key in zip(psi[1:], rest):
                        v = v * entries[key]
                    inner = v if inner is None else inner + v
                v = psi[0][first] * inner
                if acc is None:
                    acc = v
                else:
                    acc += v
            np.multiply(acc, w, out=out[..., col])
        return out

    def per_batch(b):
        tb = _TraceBatch.draw(N, b, rng, xi, M)
        bases = [tb.bases(symbols) for symbols, _ in blocks]
        lo, hi = _m_interval(*zip(bases, slopes, [prof for _, prof in blocks]))
        coefs = [np.broadcast_to(coef(tb), (b,)) for _, coef, _ in terms]
        return _integrate_live(integrand, bases + coefs, lo, hi, n_cols)

    return monte_carlo_rows(per_batch, n_samples, batch)


def _line_rows(symbols, profile: MollifiedProfile, shift, terms, n_samples: int,
               rng: np.random.Generator, xi: float, N: int, M: int, batch: int):
    """Per-sample zero-mode integrals of a single profile block, in closed form.

    The profile is taken at the sample's pairings with the symbols plus
    shift and moves along m by the symbols' integrals, which must be
    nonzero on exactly one axis.  Each term (column, coefficient, (rate,
    key)) adds coefficient(tb), from the batch's _TraceBatch tb, times
    I(rate, key) to its column, in the order listed (_column_sums), where
    I(rate, key) is each sample's int e^{rate m} d_key profile dm
    (MollifiedProfile.line_integrals).  Raises before any draw unless
    exactly one symbol has a nonzero mean.  Returns (n_samples, columns).
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
        I = cache(profile.line_integrals(tb.bases(symbols) + shift, axis, slopes[axis]))
        return np.stack(_column_sums(terms, tb, lambda rk: I(*rk)), axis=-1)

    return monte_carlo_rows(per_batch, n_samples, batch)


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
    rate = delta - xi

    coef_rhs_a = TWO_PI * (params.chi - params.alpha + TWO_PI * params.c)
    coef_rhs_b = -TWO_PI * (params.chi + 2.0 * xi + 1.0 / (2.0 * xi))
    coef_rhs_mass = -0.5 * ((TWO_PI * params.c) ** 2 - xi ** 2)

    def rhs_coef(p):
        return lambda tb: (coef_rhs_a * tb.mu_int(p.values(M))
                           + coef_rhs_b * tb.mu_int(p.dirichlet_to_neumann().values(M)))

    # the beta term of the drift, the same on both sides, does not scale with
    # mu; a mean-zero symbol has none
    beta = {i: (lambda tb, c=-TWO_PI * params.beta * p.mean(): c, (delta, ("g", i)))
            for i, p in enumerate(F.symbols) if p.mean() != 0.0}
    terms = [(0, coef, (rate, key)) for coef, key in _generator_terms(
        F.symbols, lambda tb, p: tb.drift(p, params))]
    terms += [(0, *t) for t in beta.values()]
    terms.append((1, lambda tb: coef_rhs_mass * tb.mass0, (rate, ("v",))))
    for i, p in enumerate(F.symbols):
        terms.append((1, rhs_coef(p), (rate, ("g", i))))
        if i in beta:
            terms.append((1, *beta[i]))

    rows = _line_rows(F.symbols, F.mollified, _log_shift(F, params), terms, n_samples, rng,
                      xi, N, M, batch)
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
    terms = [(0, coef, key) for coef, key in _generator_terms(
        F.symbols, lambda tb, p: tb.drift(p, params) - params.beta * p.integral())]
    psi = F.mollified.eval_many(x, [key for _, _, key in terms])
    return float(_column_sums(terms, tb, psi.__getitem__)[0][0])


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
    V = ("v",)

    def drift(tb, p):
        return tb.drift(p, params)

    def mean_mass(tb):
        """The mean-mass term's coefficient, 1/2 (2 pi)^2 xi |mu|, in
        1/2 (2 pi)^2 xi |mu| (d_m F G - d_m G F) with d_m the derivative
        along the zero mode.  FOUND (ROADMAP item 18): against the
        generator's own antisymmetric part (<F, -LG> - <G, -LF>)/2, computed
        by quadrature at N = 2, this term is (2 pi)^2 too large; the
        measurement points to the coefficient 1/2 xi |mu|."""
        return 0.5 * TWO_PI ** 2 * xi * tb.mass0

    terms = [(0, lambda tb, c=c: -c(tb), (V, key))
             for c, key in _generator_terms(G.symbols, drift)]
    terms += [(1, lambda tb, c=c: -c(tb), (key, V))
              for c, key in _generator_terms(F.symbols, drift)]
    # the closed symmetric and conjugate-product parts carry (2 pi)^2 and are
    # halved, landing on their 2 pi^2 normalization
    for i, p in enumerate(F.symbols):
        for j, q in enumerate(G.symbols):
            keys, a = (("g", i), ("g", j)), operator_a(p, q, M)
            terms += [(2, lambda tb, p=p, q=q: 0.5 * tb.diffusion(p, q), keys),
                      (3, lambda tb, a=a: 0.5 * (TWO_PI ** 2 * tb.mu_int(a)), keys)]
    terms += [(3, lambda tb, s=s: mean_mass(tb) * s, (("g", i), V))
              for i, s in enumerate(F.slopes()) if s != 0.0]
    terms += [(3, lambda tb, s=s: -mean_mass(tb) * s, (V, ("g", j)))
              for j, s in enumerate(G.slopes()) if s != 0.0]

    rows = _zero_mode_rows([(F.symbols, F.profile), (G.symbols, G.profile)], terms,
                           params.zero_mode_weight - xi, n_samples, rng, xi, N, M, batch)
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
    terms = [(0, lambda tb: tb.mu_int(dtl), (delta - xi, ("v",)))]
    terms += [(0, lambda tb, g=ell.values(M) * p.conjugate().values(M):
               TWO_PI * xi * tb.mu_int(g), (delta - xi, ("g", i)))
              for i, p in enumerate(F.symbols)]
    return mean_stderr(_line_rows(F.symbols, F.plain, 0.0, terms, n_samples, rng, xi, N, M,
                                  batch)[:, 0])


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
    V = ("v",)

    def left(q):
        return lambda tb, g=contract_left(q, p, M): TWO_PI * tb.mu_int(g)

    terms = [(0, lambda tb: (tb.vpair_dnh(p) + TWO_PI * xi * tb.mu_int(p0)
                             + 2.0 * xi * TWO_PI * tb.mu_int(dnp)), (V, V))]
    terms += [(0, left(q), (("g", i), V)) for i, q in enumerate(F.symbols)]
    terms += [(0, left(q), (V, ("g", j))) for j, q in enumerate(G.symbols)]
    rows = _zero_mode_rows([(F.symbols, F.profile), (G.symbols, G.profile)], terms,
                           delta - xi, n_samples, rng, xi, N, M, batch)
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
    lk = lv * k.values(M)
    k_int = k.integral()
    pk = np.array([sum(p.coeffs[i] * k.coeffs[i]
                       for i in range(min(p.coeffs.size, k.coeffs.size)))
                   for p in F.symbols])

    def value_coef(tb):
        kdv = -pair_dnh(tb.coeffs, k) / TWO_PI + c * k_int   # int k DV dl per sample
        return -kdv * tb.mu_int(lv) - xi * tb.mu_int(lk)

    terms = [(0, value_coef, (delta - xi, ("v",)))]
    terms += [(0, lambda tb, pk_i=pk_i: pk_i * tb.mu_int(lv), (delta - xi, ("g", i)))
              for i, pk_i in enumerate(pk)]
    return mean_stderr(_line_rows(F.symbols, F.plain, 0.0, terms, n_samples, rng, xi, N, M,
                                  batch)[:, 0])


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
    s2 = np.zeros(M)
    pi1 = np.zeros(M)
    for p in P:
        s2 += p.values(M) ** 2
        pi1 += p.integral() * p.values(M)
    pgrid = np.stack([p.values(M) for p in P])
    qgrid = np.stack([q.values(M) for q in G.symbols])
    # Pi_P(q_j) on the grid
    proj_q = np.zeros((G.dim, M))
    for j, q in enumerate(G.symbols):
        for i, p in enumerate(P):
            proj_q[j] += p.l2_inner(q) * pgrid[i]

    def kern_q(q):
        def coef(tb):
            # Pi_P(d_nH h) per sample on the grid
            proj_dnh = np.stack([pair_dnh(tb.coeffs, p) for p in P], axis=-1) @ pgrid
            kern = xi * (-TWO_PI * s2)[None, :] + proj_dnh
            return -(1.0 / TWO_PI) * tb.mu_int(kern * q[None, :])
        return coef

    V = ("v",)
    terms = [(0, lambda tb, g=pgrid[i] * qgrid[j]: tb.mu_int(g), (("g", i), ("g", j)))
             for i in range(len(P)) for j in range(G.dim)]
    # the rhs, -F (sum_jj2 <Pi_P q_j2 q_j, mu> G_jj2 + sum_j (xi/2pi <pi1 q_j, mu>
    # + 1/2pi <kern q_j, mu>) G_j)
    terms += [(1, lambda tb, g=proj_q[j2] * qgrid[j]: -tb.mu_int(g),
               (V, ("h", min(j, j2), max(j, j2))))
              for j in range(G.dim) for j2 in range(G.dim)]
    for j in range(G.dim):
        terms += [(1, lambda tb, g=pi1 * qgrid[j]: -(xi / TWO_PI) * tb.mu_int(g),
                   (V, ("g", j))),
                  (1, kern_q(qgrid[j]), (V, ("g", j)))]
    rows = _zero_mode_rows([(P, F_profile), (G.symbols, G.profile)], terms, delta - xi,
                           n_samples, rng, xi, N, M, batch)
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
    nG = G.dim
    qv = [q.values(M) for q in G.symbols]
    qt = [q.conjugate().values(M) for q in G.symbols]
    V = ("v",)

    def dv_pair(j, q):
        """<DV V_{q_j}, mu>: DV = -(1/2pi) d_nH h + c against the first slot."""
        row = TWO_PI * (q.values(M) - q.mean())
        return lambda tb: -tb.vpair_dnh(q) / TWO_PI + c * tb.mu_int(row)

    terms = [(0, lambda tb, g=contract_left(p, q, M): tb.mu_int(g), (("g", i), ("g", j)))
             for i, p in enumerate(F.symbols) for j, q in enumerate(G.symbols)]
    # the rhs, -F (Div(e^{-xi h} V_{DG}) - <DV V_{DG}, mu>)
    terms += [(1, lambda tb, g=(qv[j] * qv[k] + qt[j] * qt[k]
                                - G.symbols[j].mean() * G.symbols[k].mean()):
               -(np.pi * tb.mu_int(g)), (V, ("h", min(j, k), max(j, k))))
              for j in range(nG) for k in range(nG)]
    terms += [(1, lambda tb, g=q.dirichlet_to_neumann().values(M):
               -(2.0 * xi * tb.mu_int(g)), (V, ("g", j))) for j, q in enumerate(G.symbols)]
    terms += [(1, dv_pair(j, q), (V, ("g", j))) for j, q in enumerate(G.symbols)]
    rows = _zero_mode_rows([(F.symbols, F.profile), (G.symbols, G.profile)], terms,
                           delta - xi, n_samples, rng, xi, N, M, batch)
    return _paired_from_samples(rows[:, 0], rows[:, 1])
