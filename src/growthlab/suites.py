"""Named check suites: every verifiable identity of the lab, wired to a
uniform result record with its gate and a traceability anchor.  CHECKS
declares each check's gate, tolerance and anchor once; a suite function
only measures, and run_suite gates its measurements in CHECKS order.

Deterministic identities gate on absolute or relative residuals at the
tolerances of their operators (spectral-only 1e-10/1e-8, mixed bulk
quadrature 1e-4); paired statistical identities gate at three standard
errors of the paired difference under common random numbers.  The
squared-Bessel mass slope is a Monte Carlo estimate against a known
target: it gates at a fixed 2% relative tolerance, reports its stderr,
and takes its path count from the slope's closed-form standard error so
that the 2% sits at least four standard errors out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import fields, generator, gmc, kernels, loewner
from .disk import DiskTestFunction, bump, realize_symbol
from .profiles import BoundedSmoothProfile, ProductProfile
from .rng import make_rng
from .spectral import BoundaryField, conjugate_pv, grid_angles

TWO_PI = 2.0 * np.pi
PURE_GRAVITY_SUITES = ("invariance", "dirichlet")
ATOM_STEP = 1e-3        # time step of the atom-driving check, gated at 40 t^2


class CouplingMismatchError(ValueError):
    """A suite fixed at pure gravity was configured with another xi."""


class CheckTableError(RuntimeError):
    """A suite measured a check that CHECKS does not declare, or missed one."""


@dataclass
class ExperimentConfig:
    """Scales, couplings and seed of one suite run."""

    suite: str
    N: int = 64
    M: int = 256
    n_samples: int = 10000
    n_samples_main: int | None = None      # heavier count for headline gates
    dt: float = 1e-3
    T: float = 0.5
    seed: int = 1
    xi: float | None = None
    out_dir: str = "results"

    def __post_init__(self):
        if self.xi is not None and not 0.0 < self.xi < 1.0:
            raise ValueError("xi must lie in (0, 1)")
        if self.suite in PURE_GRAVITY_SUITES and self.xi is not None \
                and not np.isclose(self.xi, run_xi(self), rtol=1e-12, atol=0.0):
            raise CouplingMismatchError(f"the {self.suite} suite runs at pure gravity, "
                                        f"xi = {run_xi(self)!r}; got xi = {self.xi!r}")
        if self.N > self.M / 4:
            raise ValueError("truncation degree must satisfy N <= M/4")
        if self.n_samples < 100 or (self.n_samples_main is not None
                                    and self.n_samples_main < 100):
            raise ValueError("need at least 100 samples")
        if not (self.dt > 0.0 and self.T > 0.0):
            raise ValueError("time step dt and horizon T must be positive")

    @property
    def heavy_n(self) -> int:
        return self.n_samples_main or self.n_samples


@dataclass
class CheckResult:
    name: str
    lhs: float
    rhs: float
    stderr: float
    tol: float
    gate: str            # 'abs' | 'rel' | '3se' | 'bound'
    passed: bool
    anchor: str
    series: dict = field(default_factory=dict)

    @classmethod
    def gated(cls, name, gate, tol, anchor, lhs, rhs=0.0, stderr=0.0, series=None):
        """The verdict of one check under its gate.

        "abs" gates |lhs - rhs| <= tol and "rel" the same residual over
        |rhs|; either may report the stderr of a Monte Carlo lhs.  "3se"
        gates |lhs - rhs| <= tol * stderr, tol being the k of k standard
        errors.  "bound" gates lhs <= tol and keeps no rhs or stderr.
        """
        lhs, rhs, stderr = float(lhs), float(rhs), float(stderr)
        resid = abs(lhs - rhs)
        if gate == "abs":
            passed = resid <= tol
        elif gate == "rel":
            passed = resid / max(abs(rhs), 1e-300) <= tol
        elif gate == "3se":
            passed = resid <= tol * stderr
        elif gate == "bound":
            passed, rhs, stderr = lhs <= tol, 0.0, 0.0
        else:
            raise ValueError(f"unknown gate {gate!r}")
        return cls(name, lhs, rhs, stderr, tol, gate, bool(passed), anchor, series or {})


def _rows(names: str, gate: str, tol: float, anchor: str) -> list[tuple]:
    """CHECKS rows of the whitespace-separated names under one gate."""
    return [(name, gate, tol, anchor) for name in names.split()]


# (name, gate, tol, anchor) of every check of every suite, in report order
CHECKS = {
    "identities": [
        *_rows("conjugation-basis-action conjugation-involution conjugation-antisymmetry",
               "abs", 1e-12, "harmonic-conjugation"),
        ("normal-derivative-eigenbasis", "abs", 1e-12, "dirichlet-to-neumann"),
        *_rows("normal-tangential-exchange normal-derivative-square",
               "abs", 1e-10, "dirichlet-to-neumann"),
        ("principal-value-conjugation", "abs", 1e-6, "harmonic-conjugation"),
        ("grid-roundtrip", "abs", 1e-12, "fourier-basis"),
        ("parseval", "abs", 1e-10, "fourier-basis"),
        *_rows("kernel-row_integral kernel-diagonal kernel-symmetric_contraction "
               "kernel-antisymmetric_contraction kernel-mean_decomposition "
               "kernel-spectral_left_contraction kernel-sign-formula",
               "abs", 1e-8, "kernel-contractions"),
        ("kernel-finite-rank-decay", "bound", 0.5, "kernel-finite-rank"),
        *_rows("localization-log_pairing localization-conformal_factor "
               "localization-green_pairing", "rel", 1e-4, "boundary-localization"),
        ("kernel-field-pairing", "rel", 1e-4, "kernel-field-pairing"),
        ("transport-two-routes", "abs", 1e-8, "transport-operator"),
        ("transport-measure-linearity", "abs", 1e-10, "transport-operator"),
    ],
    "gmc": [
        ("chaos-mean-mass", "3se", 3.0, "chaos-normalization"),
        ("chaos-second-moment", "3se", 3.0, "chaos-second-moment"),
        ("chaos-shift-scaling", "abs", 1e-12, "driving-measure-scaling"),
        ("chaos-derivative", "rel", 1e-6, "chaos-derivative"),
        ("chaos-weighted-field", "3se", 3.0, "chaos-weighted-field"),
        ("inverse-map-smooth-decay", "abs", 0.5, "inverse-map"),
        ("inverse-map-l2-decay", "bound", 0.5, "inverse-map"),
        ("inverse-map-variance-ratio", "bound", 50.0, "inverse-map-variance"),
    ],
    "loewner": [
        *_rows("uniform-flow-scaling uniform-flow-lifetime", "abs", 1e-8, "uniform-flow"),
        *_rows("conformal-radius-routes conformal-radius-value conformal-radius-mass2",
               "abs", 1e-8, "conformal-radius"),
        ("atom-euler-step", "bound", 40.0 * ATOM_STEP * ATOM_STEP, "atom-driving"),
        ("mapper-capacity", "abs", 1e-6, "nearly-circular-map"),
        ("hadamard-variation", "rel", 1e-2, "hadamard-variation"),
        ("hadamard-order", "bound", 0.35, "hadamard-variation"),
        ("smooth-metric-driving", "bound", 1e-2, "smooth-metric-driving"),
        ("smooth-metric-linear-decay", "bound", 0.5, "smooth-metric-driving"),
        ("reparametrization-speed", "rel", 5e-3, "reparametrization"),
        ("lifetime-monotonicity", "bound", 0.5, "domain-monotonicity"),
    ],
    "invariance": [
        *_rows("pure-gravity-gamma-squared pure-gravity-dimension pure-gravity-Q "
               "pure-gravity-residuals", "abs", 1e-14, "pure-gravity-couplings"),
        ("invariance-pure-gravity", "3se", 3.0, "invariance-equation"),
        *_rows("invariance-residual-alpha invariance-residual-chi "
               "invariance-residual-beta invariance-residual-c",
               "3se", 3.0, "invariance-residual"),
        ("generator-bulk-boundary", "bound", 1e-4, "generator-localization"),
    ],
    "dirichlet": [
        *_rows("dirichlet-form-split dirichlet-form-swapped dirichlet-exchange",
               "3se", 3.0, "dirichlet-form"),
        ("dirichlet-self-antisymmetry", "abs", 1e-10, "dirichlet-form"),
        ("divergence-form", "3se", 3.0, "divergence-form"),
    ],
    "dynamics": [
        *_rows("mass-drift-slope mass-scaled-drift", "rel", 0.02, "squared-bessel-mass"),
        ("mass-bracket", "rel", 0.05, "mass-bracket"),
        ("mass-step-convergence", "rel", 0.05, "mass-step-convergence"),
        ("mass-positivity", "bound", 0.5, "mass-positivity"),
        ("mass-martingale", "bound", 0.5, "mass-martingale"),
        ("ou-stationary-variance", "bound", 3.0, "flat-noise-baseline"),
        ("ou-spectral-gap", "rel", 0.02, "flat-noise-baseline"),
        ("driving-from-state-radial", "rel", 1e-6, "state-driven-growth"),
    ],
    "appendix": [
        *_rows("gaussian-ibp1 gaussian-ibp2 gaussian-cm1 gaussian-cm2 gaussian-cm3",
               "3se", 3.0, "gaussian-identities"),
        ("trace-shift-identity", "3se", 3.0, "trace-shift-identity"),
        ("conjugate-shift-identity", "bound", 1e-8, "conjugate-shift"),
        ("derivative-martingale", "bound", 1e-10, "derivative-martingale"),
        ("renormalized-drift-divergence", "bound", 0.5, "renormalized-drift-divergence"),
        *_rows("exploration-drift exploration-drift-meanzero",
               "bound", 1e-4, "exploration-drift"),
        ("projection-covariance", "bound", 1e-10, "projection-covariance"),
        ("projected-symmetric-ibp", "3se", 3.0, "projected-ibp"),
        ("rotation-identity", "3se", 3.0, "rotation-identity"),
        ("field-transport-ibp", "3se", 3.0, "field-transport-ibp"),
        ("potential-gradient-ibp", "3se", 3.0, "potential-gradient-ibp"),
    ],
}


# -- shared fixtures -------------------------------------------------------------


def _fixture_symbols(N: int):
    p1 = BoundaryField.constant(1.0 / TWO_PI, min(4, N)) + 0.6 * BoundaryField.basis(1, min(4, N))
    p2 = 0.8 * BoundaryField.basis(3, min(4, N)) + 0.3 * BoundaryField.basis(2, min(4, N))
    return p1, p2


def _fixture_functional(N: int) -> generator.CylindricalFunctional:
    p1, p2 = _fixture_symbols(N)
    prof = ProductProfile.bumps([0.0, 0.0], [2.0, 2.5])
    return generator.CylindricalFunctional([p1, p2], prof)


def _fixture_g(N: int) -> generator.CylindricalFunctional:
    q1 = BoundaryField.constant(1.0 / TWO_PI, min(4, N)) - 0.5 * BoundaryField.basis(2, min(4, N))
    q2 = 0.7 * BoundaryField.basis(1, min(4, N)) + 0.2 * BoundaryField.basis(4, min(4, N))
    prof = ProductProfile.bumps([0.0, 0.0], [2.2, 2.0])
    return generator.CylindricalFunctional([q1, q2], prof)


# -- suite: identities -------------------------------------------------------------


def run_identities(cfg: ExperimentConfig) -> dict:
    rng = make_rng(cfg.seed, 1)
    out = {}
    deg = 16
    M = max(cfg.M, 8 * deg)
    p = BoundaryField(rng.standard_normal(2 * deg + 1))
    q = BoundaryField(rng.standard_normal(2 * deg + 1))

    # conjugation and Dirichlet-to-Neumann algebra
    res = 0.0
    for mdeg in range(1, deg + 1):
        c = BoundaryField.basis(2 * mdeg - 1, deg)
        s = BoundaryField.basis(2 * mdeg, deg)
        res = max(res, np.abs(c.conjugate().coeffs - s.coeffs).max(),
                  np.abs(s.conjugate().coeffs + c.coeffs).max())
    out["conjugation-basis-action"] = res
    tt = p.conjugate().conjugate() + p - BoundaryField.constant(p.mean(), deg)
    out["conjugation-involution"] = np.abs(tt.coeffs).max()
    out["conjugation-antisymmetry"] = p.conjugate().l2_inner(q) + p.l2_inner(q.conjugate())
    out["normal-derivative-eigenbasis"] = max(
        np.abs((BoundaryField.basis(k, deg).dirichlet_to_neumann().coeffs
                + np.ceil(k / 2) * BoundaryField.basis(k, deg).coeffs)).max()
        for k in range(0, 2 * deg + 1))
    r1 = p.dirichlet_to_neumann().coeffs + p.conjugate().tangential_derivative().coeffs
    r2 = p.conjugate().dirichlet_to_neumann().coeffs - p.tangential_derivative().coeffs
    out["normal-tangential-exchange"] = max(np.abs(r1).max(), np.abs(r2).max())
    sq = p.dirichlet_to_neumann().dirichlet_to_neumann().coeffs \
        + p.tangential_derivative().tangential_derivative().coeffs
    out["normal-derivative-square"] = np.abs(sq).max()
    out["principal-value-conjugation"] = np.abs(conjugate_pv(p, M) - p.conjugate().values(M)).max()
    grid = p.values(M)
    out["grid-roundtrip"] = np.abs(BoundaryField.from_grid(grid, degree=deg).coeffs
                                   - p.coeffs).max()
    out["parseval"] = float(np.sum(p.coeffs ** 2)) - float(np.sum(grid ** 2) * TWO_PI / M)

    # kernel contractions
    out.update({f"kernel-{k}": v for k, v in kernels.contraction_suite(p, q).items()})
    out["kernel-sign-formula"] = max(kernels.sign_formula_residual(2, 5),
                                     kernels.sign_formula_residual(5, 2),
                                     kernels.sign_formula_residual(3, 3))
    ranks = kernels.finite_rank_truncation(BoundaryField(rng.standard_normal(25)),
                                           [4, 8, 16])
    mono = float(ranks[0] > ranks[1] > ranks[2]) - 1.0  # 0 when monotone
    out["kernel-finite-rank-decay"] = (-mono, 0.0, 0.0,
                                       {"ranks": [4, 8, 16], "residuals": ranks})

    # boundary localization and the field-pairing kernel identity
    f1 = DiskTestFunction.separable(bump(0.3, 0.6), BoundaryField(rng.standard_normal(7)))
    f2 = DiskTestFunction.separable(bump(0.4, 0.75), BoundaryField(rng.standard_normal(5)))
    h = BoundaryField(fields.sample_trace_batch(cfg.N, 1, rng)[0])
    mu = gmc.chaos_measure(h, -1, self_xi(cfg), cfg.M)
    for key, (lhs, rhs, _) in kernels.boundary_localization_suite(f1, f2, mu).items():
        out[f"localization-{key}"] = (lhs, rhs)
    lhs, rhs, _ = kernels.kernel_u_check(f1, BoundaryField(
        fields.sample_trace_batch(8, 1, rng)[0]), mu)
    out["kernel-field-pairing"] = (lhs, rhs)

    # transport operator routes and linearity in the measure
    r = np.linspace(0.35, 0.55, 4)[:, None]
    th = np.linspace(0.0, 6.0, 5)[None, :]
    d1 = kernels.dmu(f1, mu, r, th, "split")
    d2 = kernels.dmu(f1, mu, r, th, "combined")
    out["transport-two-routes"] = np.abs(d1 - d2).max()
    mu2 = gmc.CircleMeasure.uniform(0.7, cfg.M)
    combo = kernels.dmu(f1, gmc.CircleMeasure(0.4 * mu.density + 1.1 * mu2.density), r, th)
    lin = combo - 0.4 * kernels.dmu(f1, mu, r, th) - 1.1 * kernels.dmu(f1, mu2, r, th)
    out["transport-measure-linearity"] = np.abs(lin).max()
    return out


def not_decaying(errs) -> float:
    """1.0 unless the errors strictly decrease, for a bound gate at 0.5."""
    return float(not all(a > b for a, b in zip(errs, errs[1:])))


def self_xi(cfg: ExperimentConfig) -> float:
    return cfg.xi if cfg.xi is not None else fields.CouplingParams.pure_gravity().xi


def run_xi(cfg: ExperimentConfig) -> float:
    """The xi a run of cfg.suite uses: the invariance and Dirichlet-form
    suites are fixed at pure gravity, the others read cfg.xi."""
    if cfg.suite in PURE_GRAVITY_SUITES:
        return fields.CouplingParams.pure_gravity().xi
    return self_xi(cfg)


# -- suite: gmc ---------------------------------------------------------------------


def run_gmc(cfg: ExperimentConfig) -> dict:
    xi = self_xi(cfg)
    rng = make_rng(cfg.seed, 2)
    out = {}
    n = max(cfg.n_samples, 1000)

    coeffs = fields.sample_trace_batch(cfg.N, n, rng)
    vals = fields.batch_values(coeffs, cfg.M)
    dens = gmc.chaos_density_batch(vals, 1, xi, cfg.N)
    masses = dens.sum(axis=1) * TWO_PI / cfg.M
    out["chaos-mean-mass"] = (masses.mean(), TWO_PI, masses.std(ddof=1) / np.sqrt(n))

    # second moment against the singular-kernel quadrature target
    N2, M2 = 4 * cfg.N, 16 * cfg.N
    c2 = fields.sample_trace_batch(N2, n, make_rng(cfg.seed, 3))
    d2 = gmc.chaos_density_batch(fields.batch_values(c2, M2), 1, xi, N2)
    m2 = (d2.sum(axis=1) * TWO_PI / M2) ** 2
    out["chaos-second-moment"] = (m2.mean(), gmc.second_moment_limit(xi),
                                  m2.std(ddof=1) / np.sqrt(n))

    # deterministic scaling response of the driving measure
    h = BoundaryField(coeffs[0])
    shift = 0.37
    d_plain = gmc.chaos_measure(h, -1, xi, cfg.M).density
    d_shift = gmc.chaos_measure(h + BoundaryField.constant(shift, 1), -1, xi, cfg.M).density
    out["chaos-shift-scaling"] = np.abs(d_shift - np.exp(-xi * shift) * d_plain).max()

    # directional derivative of weighted mass
    psmooth = BoundaryField(make_rng(cfg.seed, 4).standard_normal(7))
    fsym = BoundaryField(make_rng(cfg.seed, 5).standard_normal(9))
    out["chaos-derivative"] = gmc.chaos_derivative(psmooth, fsym, h, -xi, cfg.M)

    # shifted-field representation of the weighted expectation
    prof = BoundedSmoothProfile(1, scale=0.3)
    out["chaos-weighted-field"] = gmc.weighted_field_check(
        BoundaryField.constant(1.0, 2), [BoundaryField.basis(1, cfg.N)], prof,
        xi, cfg.N, cfg.M, n, make_rng(cfg.seed, 6))

    # inverse map: smooth recovery, whose centred ball averages err by
    # O(eps^2) (a window off by one cell plateaus), and ensemble convergence
    hsm = 0.8 * BoundaryField.basis(1, 4) + 0.5 * BoundaryField.basis(4, 4)
    mu_sm = gmc.CircleMeasure(np.exp(xi * hsm.values(cfg.M)))
    radii = [0.2, 0.1, 0.05]
    sup_errs = [float(np.abs(gmc.inverse_map(mu_sm, eps, xi, 8).values(cfg.M)
                             - (hsm.values(cfg.M) - hsm.mean())).max()) for eps in radii]
    order = np.polyfit(np.log(radii), np.log(sup_errs), 1)[0]
    out["inverse-map-smooth-decay"] = (order, 2.0, 0.0,
                                       {"eps": radii, "sup_error": sup_errs})

    n_ens = min(n, 400)
    pq = BoundaryField.basis(1, cfg.N)
    errs, ratios = inverse_map_ensemble(cfg, xi, n_ens, make_rng(cfg.seed, 7), pq)
    out["inverse-map-l2-decay"] = (not_decaying(errs), 0.0, 0.0,
                                   {"eps": [0.2, 0.1, 0.05], "l2_error": errs,
                                    "variance_ratio": ratios})
    out["inverse-map-variance-ratio"] = max(ratios)
    return out


def inverse_map_ensemble(cfg, xi, n_ens, rng, pq):
    errs, ratios = [], []
    coeffs = fields.sample_trace_batch(cfg.N, n_ens, rng)
    vals = fields.batch_values(coeffs, cfg.M)
    dens = gmc.chaos_density_batch(vals, 1, xi, cfg.N)
    pv = pq.values(cfg.M)
    dtheta = TWO_PI / cfg.M
    exact_pair = vals @ pv * dtheta
    for eps in (0.2, 0.1, 0.05):
        h_eps, _ = gmc.log_ball_field(dens * dtheta, eps, xi)
        h_eps = h_eps - h_eps.mean(axis=0)[None, :]
        pair = h_eps @ pv * dtheta
        errs.append(float(np.sqrt(np.mean((pair - exact_pair) ** 2))))
        ratios.append(float(np.var(h_eps - vals, axis=0).max() / np.log(1.0 / eps)))
    return errs, ratios


# -- suite: loewner -------------------------------------------------------------------


def run_loewner(cfg: ExperimentConfig) -> dict:
    xi = self_xi(cfg)
    out = {}
    M = cfg.M
    mu1 = gmc.CircleMeasure.uniform(1.0, M)

    res = loewner.flow(loewner.DrivingPath.constant(mu1, 0.5), 0.3 + 0.2j, dt=0.02)
    out["uniform-flow-scaling"] = abs(res.at_end() - np.exp(0.5) * (0.3 + 0.2j))
    res2 = loewner.flow(loewner.DrivingPath.constant(mu1, 2.0), 0.5 + 0j)
    out["uniform-flow-lifetime"] = (res2.lifetime, np.log((1.0 - 1e-6) / 0.5))

    ode, mass = loewner.conformal_radius(loewner.DrivingPath.constant(mu1, 1.0), 1.0)
    out["conformal-radius-routes"] = (ode, mass)
    out["conformal-radius-value"] = (ode, np.e)
    ode2, _ = loewner.conformal_radius(
        loewner.DrivingPath.constant(gmc.CircleMeasure.uniform(2.0, M), 0.5), 0.5)
    out["conformal-radius-mass2"] = (ode2, np.e)

    # one short step from a near-atom matches the atom vector field
    spike = gmc.CircleMeasure.narrow_bump(0.0, 1.0, M)
    t = ATOM_STEP
    z0 = 0.4 + 0.3j
    g1 = loewner.flow(loewner.DrivingPath.constant(spike, t), z0, dt=t / 8).at_end()
    out["atom-euler-step"] = abs(g1 - (z0 - t * z0 * (z0 + 1.0) / (z0 - 1.0)))

    # mapper capacity against the doubled-resolution oracle
    th = grid_angles(M)
    dom = loewner.StarDomain(1.0 - 0.05 * (1.0 + np.cos(th)) / 2.0)
    th2 = grid_angles(2 * M)
    dom2 = loewner.StarDomain(1.0 - 0.05 * (1.0 + np.cos(th2)) / 2.0)
    cm, cm2 = loewner.nearly_circular_map(dom), loewner.nearly_circular_map(dom2)
    out["mapper-capacity"] = (cm.gprime0, cm2.gprime0)

    had = loewner.hadamard_check(
        BoundaryField.constant(1.0, 2) + 0.4 * BoundaryField.basis(1, 2),
        0.3 + 0.2j, -0.4 + 0.1j, M=M)
    out["hadamard-variation"] = (had["sweep"][1][1], had["formula"], 0.0,
                                 {"dt": [r[0] for r in had["sweep"]],
                                  "fd": [r[1] for r in had["sweep"]],
                                  "rel_err": [r[2] for r in had["sweep"]]})
    out["hadamard-order"] = abs(had["order"] - 1.0)

    phi = BoundaryField.cosine(1, 0.1, 4)
    smd = loewner.smooth_metric_driving(phi, xi, 1e-3, M=M)
    out["smooth-metric-driving"] = smd["rel_error"]
    smd2 = loewner.smooth_metric_driving(phi, xi, 2e-3, M=M)
    out["smooth-metric-linear-decay"] = abs(smd2["rel_error"] / smd["rel_error"] - 2.0)

    # reparametrization: doubled speed over half the horizon, same measure rate
    dom_a = loewner.StarDomain(1.0 - 1e-3 * np.exp(-xi * phi.values(M)))
    dom_b = loewner.StarDomain(1.0 - 2e-3 * np.exp(-xi * phi.values(M)))
    fit_a = loewner.fit_driving_measure(loewner.nearly_circular_map(dom_a), 1e-3)
    fit_b = loewner.fit_driving_measure(loewner.nearly_circular_map(dom_b), 1e-3)
    out["reparametrization-speed"] = (fit_b.total_mass / fit_a.total_mass, 2.0)

    # domain monotonicity of lifetimes
    lt1 = loewner.flow(loewner.DrivingPath.constant(mu1, 3.0), 0.6 + 0j).lifetime
    lt2 = loewner.flow(loewner.DrivingPath.constant(1.5 * mu1, 3.0), 0.6 + 0j).lifetime
    out["lifetime-monotonicity"] = float(lt2 > lt1)
    return out


# -- suite: invariance ------------------------------------------------------------------


def run_invariance(cfg: ExperimentConfig) -> dict:
    pg = fields.CouplingParams.pure_gravity()
    out = {
        "pure-gravity-gamma-squared": (pg.gamma ** 2, 8.0 / 3.0),
        "pure-gravity-dimension": (pg.d_gamma, 4.0),
        "pure-gravity-Q": (pg.Q, 2.0 * pg.xi + 1.0 / (2.0 * pg.xi)),
        "pure-gravity-residuals": max(abs(r) for r in pg.invariance_residuals()),
    }

    F = _fixture_functional(cfg.N)
    res = generator.invariance_check(F, pg, cfg.heavy_n, make_rng(cfg.seed, 10),
                                     N=cfg.N, M=cfg.M)
    out["invariance-pure-gravity"] = (res.lhs, 0.0, res.lhs_stderr)
    perturbed = {
        "alpha": pg.replace(alpha=pg.alpha + 0.2),
        "chi": pg.replace(chi=pg.chi + 0.15),
        "beta": pg.replace(beta=0.1),
        "c": pg.replace(c=pg.c * 1.3),
    }
    for name, params in perturbed.items():
        r = generator.invariance_check(F, params, cfg.n_samples,
                                       make_rng(cfg.seed, 10), N=cfg.N, M=cfg.M)
        out[f"invariance-residual-{name}"] = (r.lhs, r.rhs, r.stderr)

    # generator forms agree configuration by configuration
    rng = make_rng(cfg.seed, 11)
    worst = 0.0
    for _ in range(5):
        h = BoundaryField(fields.sample_trace_batch(cfg.N, 1, rng)[0])
        m = float(rng.uniform(-0.5, 0.5))
        v1 = generator.invariance_local_value(F, pg, h, m, M=cfg.M)
        v2 = generator.invariance_bulk_value(F, pg, h, m, M=cfg.M)
        worst = max(worst, abs(v1 - v2) / max(abs(v1), abs(v2), 1e-12))
    out["generator-bulk-boundary"] = worst
    return out


# -- suite: dirichlet --------------------------------------------------------------------


def run_dirichlet(cfg: ExperimentConfig) -> dict:
    F = _fixture_functional(cfg.N)
    G = _fixture_g(cfg.N)
    res = generator.dirichlet_form(F, G, cfg.heavy_n, make_rng(cfg.seed, 20),
                                   N=cfg.N, M=cfg.M)
    fwd, swp = res.forward, res.swapped
    exch_se = np.hypot(fwd.stderr, swp.stderr)
    # antisym(F, F) vanishes sample by sample, so a few samples test it fully
    self_res = generator.dirichlet_form(F, F, 100, make_rng(cfg.seed, 21), N=cfg.N, M=cfg.M)
    div = generator.divergence_form_check(F, G, cfg.n_samples,
                                          make_rng(cfg.seed, 22), N=cfg.N, M=cfg.M)
    return {
        "dirichlet-form-split": (fwd.lhs, fwd.rhs, fwd.stderr),
        "dirichlet-form-swapped": (swp.lhs, swp.rhs, swp.stderr),
        "dirichlet-exchange": (fwd.lhs + swp.lhs - 2.0 * res.sym, 0.0, max(exch_se, 1e-12)),
        "dirichlet-self-antisymmetry": self_res.antisym,
        "divergence-form": (div.lhs, div.rhs, div.stderr),
    }


# -- suite: dynamics ---------------------------------------------------------------------


def run_dynamics(cfg: ExperimentConfig) -> dict:
    """The seven ensembles draw from their own streams, so they run as jobs on
    a thread pool, one thread per usable CPU (numpy's draws and ufuncs release
    the GIL), with the bits of a one-after-another run.  Each job returns only
    what its checks read."""
    from concurrent.futures import ThreadPoolExecutor

    xi = self_xi(cfg)
    n_paths = min(max(cfg.heavy_n, 1000), 3000)

    def mass_law():
        # one-cell mass law: the path count comes from the slope's closed-form
        # standard error, not from n_samples, so that the fixed two-percent
        # relative gate sits at least four standard errors out
        n_mass = dyn.mass_law_paths(0.1, xi, cfg.dt, cfg.T, rel_tol=0.02)
        return dyn.mass_law_stats(0.1, xi, cfg.dt, cfg.T, n_mass, make_rng(cfg.seed, 30))

    def bracket(dt, stream):
        """`dyn.bracket_stats` and the mean drift of one ensemble."""
        paths = dyn.simulate_mass_ensemble(40.0 * np.pi, xi, dt, cfg.T, n_paths,
                                           make_rng(cfg.seed, stream), M=16, N=4)
        return (*dyn.bracket_stats(paths, xi, dt),
                (paths[:, -1].mean() - paths[:, 0].mean()) / cfg.T)

    def martingale():
        """(t, mean, se) of the compensated mass at three checkpoints."""
        reps = 200
        ens = dyn.simulate_mass_ensemble(40.0 * np.pi, xi, cfg.dt, 0.12, reps,
                                         make_rng(cfg.seed, 34), M=16, N=4)
        drift_line = 2.0 * np.pi ** 2 * xi ** 2 * np.arange(ens.shape[1]) * cfg.dt
        resid = ens - ens[:, :1] - drift_line[None, :]
        ks = [int(frac * (ens.shape[1] - 1)) for frac in (0.33, 0.66, 1.0)]
        return [(k * cfg.dt, resid[:, k].mean(), resid[:, k].std(ddof=1) / np.sqrt(reps))
                for k in ks]

    def ou_end(h0, dt, T, stream, n):
        """Final coefficients (n, 2N+1) of a flat-noise baseline, copied so
        that the paths die in the job."""
        return dyn.ou_baseline(h0, dt, T, make_rng(cfg.seed, stream), n_paths=n)[:, -1].copy()

    jobs = {    # longest first, so the short jobs fill in beside the long ones
        "mass_law": mass_law,
        "bracket_half": lambda: bracket(cfg.dt / 2.0, 32),
        "bracket_full": lambda: bracket(cfg.dt, 31),
        "positivity": lambda: dyn.simulate_symmetric(
            gmc.CircleMeasure.uniform(40.0 * np.pi, 32), xi, cfg.dt, 0.12, 8,
            make_rng(cfg.seed, 33)).masses.min(),
        "martingale": martingale,
        "ou": lambda: ou_end(BoundaryField.zeros(8), 0.02, 5.0 / np.pi, 35,
                             max(cfg.n_samples, 2000)),
        "ou_gap": lambda: ou_end(BoundaryField.basis(1, 2) * 10.0, 0.01, 0.2, 36,
                                 max(cfg.n_samples, 20000)),
    }
    with ThreadPoolExecutor(min(len(jobs), len(os.sched_getaffinity(0)))) as pool:
        futures = {name: pool.submit(job) for name, job in jobs.items()}
    done = {name: f.result() for name, f in futures.items()}

    out = {}
    stats = done["mass_law"]
    out["mass-drift-slope"] = (stats.slope, stats.slope_target, stats.slope_stderr,
                               {"t": stats.times.tolist()[::50],
                                "mean": stats.mean_curve.tolist()[::50]})
    out["mass-scaled-drift"] = (stats.scaled_drift, 0.5,
                                stats.slope_stderr / (TWO_PI * xi) ** 2)

    qv, pred, se, drift_full = done["bracket_full"]
    out["mass-bracket"] = (qv, pred, se)
    # half-step run: the bracket gate holds at both resolutions and the two
    # slopes are reported side by side
    qv2, pred2, se2, drift_half = done["bracket_half"]
    out["mass-step-convergence"] = (qv2, pred2, se2,
                                    {"dt": [cfg.dt, cfg.dt / 2.0],
                                     "slope": [drift_full, drift_half],
                                     "bracket": [qv / pred, qv2 / pred2]})

    # martingale increments at three checkpoints
    out["mass-positivity"] = float(done["positivity"] < 0.0)
    mart_rows = done["martingale"]
    ok = all(abs(mean) <= 3.0 * se for _, mean, se in mart_rows)
    out["mass-martingale"] = (float(not ok), 0.0, 0.0,
                              {"t": [r[0] for r in mart_rows],
                               "mean": [r[1] for r in mart_rows],
                               "se": [r[2] for r in mart_rows]})

    # flat-noise baseline: stationary mode variances and the spectral gap; the
    # stderr of a sample variance under the null is the target's, not v's
    ou = done["ou"]
    worst_z = 0.0
    for k in (1, 2, 3, 4, 6):
        target = TWO_PI / np.ceil(k / 2.0)
        se = target * np.sqrt(2.0 / (ou.shape[0] - 1))
        worst_z = max(worst_z, abs(ou[:, k].var(ddof=1) - target) / se)
    out["ou-stationary-variance"] = worst_z
    gap_end = done["ou_gap"][:, 1]
    out["ou-spectral-gap"] = (gap_end.mean() / 10.0, np.exp(-np.pi * 0.2),
                              gap_end.std(ddof=1) / np.sqrt(gap_end.size) / 10.0)

    # growth driving from a constant-field path
    flat = dyn.MeasurePath(np.array([0.0, cfg.dt, 2 * cfg.dt]),
                           np.tile(np.full(16, TWO_PI / 16), (3, 1)))
    driving = dyn.driving_from_state(flat, xi)
    g = loewner.flow(driving, 0.5 + 0j).at_end()
    out["driving-from-state-radial"] = (abs(g), 0.5 * np.exp(driving.mass_integral()))
    return out


# -- suite: appendix ---------------------------------------------------------------------


def run_appendix(cfg: ExperimentConfig) -> dict:
    xi = self_xi(cfg)
    out = {}
    n = cfg.n_samples

    cov2 = np.array([[1.0, 0.3], [0.3, 2.0]])
    cov4 = 0.8 * np.eye(4) + 0.15
    for i, (which, cov) in enumerate([("IBP1", cov2), ("IBP2", np.eye(3) + 0.2),
                                      ("CM1", np.array([[1.0, 0.4], [0.4, 1.0]])),
                                      ("CM2", cov4), ("CM3", cov4)]):
        out[f"gaussian-{which.lower()}"] = fields.gaussian_identity_check(
            which, cov, max(n, 20000), make_rng(cfg.seed, 40 + i))

    # shift identity of the mean-zero trace measure
    prof = BoundedSmoothProfile(2, scale=0.25)
    symbols = [BoundaryField.basis(1, 4), BoundaryField.basis(4, 4)]
    out["trace-shift-identity"] = fields.cameron_martin_check(
        symbols, prof, 0.7 * BoundaryField.basis(1, 4) + 0.4 * BoundaryField.basis(3, 4),
        0.5, cfg.N, max(n, 20000), make_rng(cfg.seed, 46))

    # conjugate-gradient shift identity, deterministic per sample
    rng = make_rng(cfg.seed, 47)
    h = BoundaryField(fields.sample_trace_batch(cfg.N, 1, rng)[0])
    prof2 = ProductProfile.bumps([0.0, 0.0], [3.0, 3.0])
    out["conjugate-shift-identity"] = fields.tilde_shift_check(
        [BoundaryField.basis(1, 4),
         0.5 * BoundaryField.basis(3, 4) + 0.2 * BoundaryField.basis(2, 4)], prof2, h, xi)

    out["derivative-martingale"] = generator.derivative_martingale_identity(
        8, xi, make_rng(cfg.seed, 48))
    ranks = [2, 8, min(32, cfg.M // 4)]
    growth = generator.truncated_second_moment_growth(
        cfg.N, xi, BoundaryField.constant(1.0, 2), ranks, M=cfg.M)
    out["renormalized-drift-divergence"] = (
        float(not (growth[0] < growth[1] < growth[2])), 0.0, 0.0,
        {"rank": ranks, "second_moment": growth})

    # exploration-drift comparison
    rngq = make_rng(cfg.seed, 49)
    p = BoundaryField(rngq.standard_normal(9)) * 0.4
    f = realize_symbol(p)
    hq = BoundaryField(fields.sample_trace_batch(cfg.N, 1, rngq)[0])
    nu = gmc.CircleMeasure(np.exp(0.3 * np.cos(grid_angles(cfg.M))))
    nu = nu * (1.0 / nu.total_mass)
    out["exploration-drift"] = generator.qle_drift_compare(p, f, hq, nu)["residual"]
    p0 = p - BoundaryField.constant(p.mean(), 1)
    out["exploration-drift-meanzero"] = generator.qle_drift_compare(
        p0, realize_symbol(p0), hq, nu)["residual"]

    # projected symmetric integration by parts
    P = [BoundaryField.basis(0, 2), BoundaryField.basis(1, 2), BoundaryField.basis(2, 2)]
    out["projection-covariance"] = generator.projection_covariance_identity(
        [BoundaryField.basis(1, 2), BoundaryField.basis(2, 2)], N=cfg.N, M=cfg.M)
    Fprof = ProductProfile.bumps([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
    G = _fixture_g(cfg.N)
    proj = generator.projected_symmetric_ibp_check(P, Fprof, G, n, make_rng(cfg.seed, 50),
                                                   N=cfg.N, M=cfg.M)
    out["projected-symmetric-ibp"] = (proj.lhs, proj.rhs, proj.stderr)

    # rotation identity and potential-gradient integration by parts
    F = _fixture_functional(cfg.N)
    est, se = generator.rotational_invariance_check(
        BoundaryField.basis(3, 4) + BoundaryField.constant(0.2, 4), F, n,
        make_rng(cfg.seed, 51), N=cfg.N, M=cfg.M)
    out["rotation-identity"] = (est, 0.0, se)
    est2, se2 = generator.ibp_hdmuf_check(0.5 * BoundaryField.basis(1, 4)
                                          + BoundaryField.constant(0.1, 4),
                                          F, G, n, make_rng(cfg.seed, 52),
                                          N=cfg.N, M=cfg.M)
    out["field-transport-ibp"] = (est2, 0.0, se2)
    # k has a nonzero integral, so the c (int k dl) term of the residual is live
    est3, se3 = generator.ibp_potential_check(
        BoundaryField.constant(0.3, 2) + 0.5 * BoundaryField.basis(2, 2),
        BoundaryField.basis(1, 2) + BoundaryField.constant(0.5, 2), F, n,
        make_rng(cfg.seed, 53), N=cfg.N, M=cfg.M)
    out["potential-gradient-ibp"] = (est3, 0.0, se3)
    return out


SUITES = {
    "identities": run_identities,
    "gmc": run_gmc,
    "loewner": run_loewner,
    "invariance": run_invariance,
    "dirichlet": run_dirichlet,
    "dynamics": run_dynamics,
    "appendix": run_appendix,
}


def list_suites() -> list[str]:
    return sorted(SUITES)


DESCRIPTIONS = {
    "identities": "spectral operators, kernel contractions, boundary localization",
    "gmc": "chaos measure moments, scaling, weighted field, inverse map",
    "loewner": "flows, conformal radius, nearly-circular maps, growth rates",
    "invariance": "pure-gravity couplings and the invariance equation",
    "dirichlet": "Dirichlet form split, exchange, divergence-form route",
    "dynamics": "squared-Bessel mass law, bracket, flat-noise baseline",
    "appendix": "Gaussian identities, shift lemmas, exploration drift, projections",
}


def describe(suite: str) -> dict:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    return {"suite": suite, "description": DESCRIPTIONS[suite],
            "checks": [name for name, *_ in CHECKS[suite]]}


def run_suite(cfg: ExperimentConfig) -> list[CheckResult]:
    """Run cfg.suite and gate each of its measurements as CHECKS declares."""
    if cfg.suite not in SUITES:
        raise KeyError(f"unknown suite {cfg.suite!r}; available: {list_suites()}")
    measured = SUITES[cfg.suite](cfg)
    rows = CHECKS[cfg.suite]
    declared = {name for name, *_ in rows}
    if set(measured) != declared:
        raise CheckTableError(
            f"{cfg.suite}: measured but undeclared {sorted(set(measured) - declared)}, "
            f"declared but unmeasured {sorted(declared - set(measured))}")
    values = {name: m if isinstance(m, tuple) else (m,) for name, m in measured.items()}
    return [CheckResult.gated(*row, *values[row[0]]) for row in rows]
