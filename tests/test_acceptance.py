"""Acceptance gates at desk scale (N=64, M=256, samples <= 1e5).

Each test implements one numbered criterion at its stated tolerance and
prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see the summary lines.
"""

import time

import numpy as np

from growthlab import dynamics as dyn
from growthlab import fields, generator, gmc, kernels, loewner
from growthlab.disk import DiskTestFunction, bump, realize_symbol
from growthlab.profiles import ProductProfile
from growthlab.rng import make_rng
from growthlab.spectral import BoundaryField, grid_angles
from growthlab.suites import _fixture_functional, _fixture_g

N, M = 64, 256
XI = 1.0 / np.sqrt(6.0)
PG = fields.CouplingParams.pure_gravity()


def report(k, passed, detail):
    print(f"\n[criterion {k:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_1_pure_gravity_algebra():
    residual = max(abs(r) for r in PG.invariance_residuals())
    ok = (abs(PG.gamma ** 2 - 8.0 / 3.0) < 1e-14
          and PG.d_gamma == 4.0
          and residual < 1e-14
          and abs(PG.Q - (2 * PG.xi + 1 / (2 * PG.xi))) < 1e-14
          and abs(PG.Q - 5 / np.sqrt(6)) < 1e-14)
    report(1, ok, f"gamma^2={PG.gamma**2:.15f}, d={PG.d_gamma}, "
                  f"max residual={residual:.2e}")


def test_criterion_2_spectral_identities():
    t0 = time.time()
    deg = 16
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(5):
        p = BoundaryField(rng.standard_normal(2 * deg + 1))
        q = BoundaryField(rng.standard_normal(2 * deg + 1))
        worst = max(
            worst,
            np.abs((p.conjugate().conjugate() + p).coeffs[1:]).max(),
            abs(p.conjugate().l2_inner(q) + p.l2_inner(q.conjugate())),
            np.abs(p.dirichlet_to_neumann().coeffs
                   + p.conjugate().tangential_derivative().coeffs).max(),
            np.abs(p.conjugate().dirichlet_to_neumann().coeffs
                   - p.tangential_derivative().coeffs).max(),
            np.abs(p.dirichlet_to_neumann().dirichlet_to_neumann().coeffs
                   + p.tangential_derivative().tangential_derivative().coeffs).max(),
        )
        for mdeg in range(1, deg + 1):
            c = BoundaryField.basis(2 * mdeg - 1, deg)
            worst = max(worst, np.abs(c.conjugate().coeffs
                                      - BoundaryField.basis(2 * mdeg, deg).coeffs).max())
    elapsed = time.time() - t0
    report(2, worst < 1e-10 and elapsed < 1.0,
           f"max spectral residual={worst:.2e}, runtime={elapsed:.2f}s")


def test_criterion_3_kernel_suites():
    t0 = time.time()
    rng = np.random.default_rng(1)
    p = BoundaryField(rng.standard_normal(13))
    q = BoundaryField(rng.standard_normal(17))
    suite = kernels.contraction_suite(p, q)
    worst_contr = max(suite.values())
    worst_contr = max(worst_contr, kernels.sign_formula_residual(2, 5),
                      kernels.sign_formula_residual(5, 2))
    h = BoundaryField(fields.sample_trace_batch(N, 1, make_rng(2))[0])
    mu = gmc.chaos_measure(h, -1, XI, M)
    f1 = DiskTestFunction.separable(bump(0.3, 0.6), BoundaryField(rng.standard_normal(7)))
    f2 = DiskTestFunction.separable(bump(0.4, 0.75), BoundaryField(rng.standard_normal(5)))
    loc = kernels.boundary_localization_suite(f1, f2, mu)
    worst_loc = max(rel for (_, _, rel) in loc.values())
    _, _, rel_u = kernels.kernel_u_check(
        f1, BoundaryField(fields.sample_trace_batch(8, 1, make_rng(3))[0]), mu)
    worst_loc = max(worst_loc, rel_u)
    elapsed = time.time() - t0
    report(3, worst_contr < 1e-8 and worst_loc < 1e-4 and elapsed < 30.0,
           f"contractions={worst_contr:.2e}, localization rel={worst_loc:.2e}, "
           f"runtime={elapsed:.1f}s")


def test_criterion_4_loewner():
    t0 = time.time()
    mu1 = gmc.CircleMeasure.uniform(1.0, M)
    res = loewner.flow(loewner.DrivingPath.constant(mu1, 0.5), 0.3 + 0.2j)
    flow_err = abs(res.at_end() - np.exp(0.5) * (0.3 + 0.2j))
    ode, mass = loewner.conformal_radius(loewner.DrivingPath.constant(mu1, 1.0), 1.0)
    radius_err = max(abs(ode - mass), abs(ode - np.e))
    had = loewner.hadamard_check(
        BoundaryField.constant(1.0, 2) + 0.4 * BoundaryField.basis(1, 2),
        0.3 + 0.2j, -0.4 + 0.1j, M=M)
    had_rel = had["sweep"][1][2]
    order_ok = abs(had["order"] - 1.0) < 0.35
    smd = loewner.smooth_metric_driving(0.1 * np.sqrt(np.pi) * BoundaryField.basis(1, 4),
                                        XI, 1e-3, M=M)
    elapsed = time.time() - t0
    ok = (flow_err < 1e-8 and radius_err < 1e-8 and had_rel < 1e-2
          and order_ok and smd["rel_error"] < 1e-2 and elapsed < 120.0)
    report(4, ok, f"flow={flow_err:.2e}, radius={radius_err:.2e}, "
                  f"hadamard rel={had_rel:.2e} (order {had['order']:.2f}), "
                  f"driving rel={smd['rel_error']:.2e}, runtime={elapsed:.1f}s")


def test_criterion_5_gmc():
    t0 = time.time()
    n = 10000
    coeffs = fields.sample_trace_batch(N, n, make_rng(4))
    dens = gmc.chaos_density_batch(fields.batch_values(coeffs, M), 1, XI, N)
    masses = dens.sum(axis=1) * 2 * np.pi / M
    se1 = masses.std(ddof=1) / np.sqrt(n)
    mean_ok = abs(masses.mean() - 2 * np.pi) < 3 * se1

    N2, M2 = 256, 1024
    c2 = fields.sample_trace_batch(N2, n, make_rng(5))
    d2 = gmc.chaos_density_batch(fields.batch_values(c2, M2), 1, XI, N2)
    m2 = (d2.sum(axis=1) * 2 * np.pi / M2) ** 2
    target = gmc.second_moment_limit(XI)
    se2 = m2.std(ddof=1) / np.sqrt(n)
    m2_ok = abs(m2.mean() - target) < 3 * se2

    n_ens = 400
    c3 = fields.sample_trace_batch(N, n_ens, make_rng(6))
    vals = fields.batch_values(c3, M)
    dens3 = gmc.chaos_density_batch(vals, 1, XI, N)
    pv = BoundaryField.basis(1, N).values(M)
    dtheta = 2 * np.pi / M
    exact = vals @ pv * dtheta
    errs = []
    for eps in (0.2, 0.1, 0.05):
        h_eps = np.log(gmc.ball_masses(dens3 * dtheta, eps)) / XI
        h_eps -= h_eps.mean(axis=0)[None, :]
        errs.append(float(np.sqrt(np.mean((h_eps @ pv * dtheta - exact) ** 2))))
    inv_ok = errs[0] > errs[1] > errs[2]
    elapsed = time.time() - t0
    ok = mean_ok and m2_ok and inv_ok and elapsed < 120.0
    report(5, ok, f"mean mass={masses.mean():.4f} (3se={3*se1:.4f}), "
                  f"2nd moment={m2.mean():.2f} vs {target:.2f} (3se={3*se2:.2f}), "
                  f"inverse-map errors={['%.4f' % e for e in errs]}, "
                  f"runtime={elapsed:.0f}s")


def test_criterion_6_invariance():
    t0 = time.time()
    F = _fixture_functional(N)
    res = generator.invariance_check(F, PG, 100000, make_rng(10), N=N, M=M)
    pure_ok = abs(res.lhs) < 3 * res.lhs_stderr
    details = [f"pure: lhs={res.lhs:.4f} (3se={3*res.lhs_stderr:.4f})"]
    all_ok = pure_ok
    perturbed = {"alpha": PG.replace(alpha=PG.alpha + 0.2),
                 "chi": PG.replace(chi=PG.chi + 0.15),
                 "beta": PG.replace(beta=0.1),
                 "c": PG.replace(c=PG.c * 1.3)}
    for name, params in perturbed.items():
        r = generator.invariance_check(F, params, 20000, make_rng(10), N=N, M=M)
        all_ok = all_ok and r.consistent(3.0)
        details.append(f"{name}: z={r.z:.2f}")
    elapsed = time.time() - t0
    all_ok = all_ok and elapsed < 600.0
    report(6, all_ok, "; ".join(details) + f"; runtime={elapsed:.0f}s")


def test_criterion_7_dirichlet_form():
    t0 = time.time()
    F = _fixture_functional(N)
    G = _fixture_g(N)
    res = generator.dirichlet_form(F, G, 30000, make_rng(11), N=N, M=M)
    self_res = generator.dirichlet_form(F, F, 4000, make_rng(12), N=N, M=M)
    elapsed = time.time() - t0
    ok = (res.forward.consistent(3.0) and res.swapped.consistent(3.0)
          and abs(self_res.antisym) < 1e-10 and elapsed < 600.0)
    report(7, ok, f"forward z={res.forward.z:.2f}, swapped z={res.swapped.z:.2f}, "
                  f"self antisym={self_res.antisym:.2e}, runtime={elapsed:.0f}s")


def test_criterion_8_appendix_suites():
    t0 = time.time()
    details = []
    ok = True
    for which, cov in [("IBP1", np.array([[1.0, 0.3], [0.3, 2.0]])),
                       ("IBP2", np.eye(3) + 0.2),
                       ("CM1", np.array([[1.0, 0.4], [0.4, 1.0]])),
                       ("CM2", 0.8 * np.eye(4) + 0.15),
                       ("CM3", 0.8 * np.eye(4) + 0.15)]:
        lhs, rhs, se = fields.gaussian_identity_check(which, cov, 50000,
                                                      make_rng(13))
        ok = ok and abs(lhs - rhs) < 3 * se
        details.append(f"{which} z={abs(lhs-rhs)/se:.2f}")

    h = BoundaryField(fields.sample_trace_batch(N, 1, make_rng(14))[0])
    shift_res = fields.tilde_shift_check(
        [BoundaryField.basis(1, 4),
         0.5 * BoundaryField.basis(3, 4) + 0.2 * BoundaryField.basis(2, 4)],
        ProductProfile.bumps([0.0, 0.0], [3.0, 3.0]), h, XI)
    dm_res = generator.derivative_martingale_identity(8, XI, make_rng(15))
    ok = ok and shift_res < 1e-10 and dm_res < 1e-10
    details.append(f"shift={shift_res:.1e}, dmart={dm_res:.1e}")

    rngq = make_rng(16)
    p = BoundaryField(np.random.default_rng(3).standard_normal(9)) * 0.4
    hq = BoundaryField(fields.sample_trace_batch(N, 1, rngq)[0])
    nu = gmc.CircleMeasure(np.exp(0.3 * np.cos(grid_angles(M))))
    nu = nu * (1.0 / nu.total_mass)
    cmp = generator.qle_drift_compare(p, realize_symbol(p), hq, nu)
    ok = ok and cmp["residual"] < 1e-4
    details.append(f"exploration rel={cmp['residual']:.1e}")

    P = [BoundaryField.basis(0, 2), BoundaryField.basis(1, 2), BoundaryField.basis(2, 2)]
    proj_id = generator.projection_covariance_identity(
        [BoundaryField.basis(1, 2), BoundaryField.basis(2, 2)], N=N, M=M)
    Fprof = ProductProfile.bumps([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
    proj = generator.projected_symmetric_ibp_check(P, Fprof, _fixture_g(N),
                                                   30000, make_rng(17), N=N, M=M)
    ok = ok and proj_id < 1e-10 and proj.consistent(3.0)
    details.append(f"projection id={proj_id:.1e}, ibp z={proj.z:.2f}")
    elapsed = time.time() - t0
    report(8, ok, "; ".join(details) + f"; runtime={elapsed:.0f}s")


def test_criterion_9_dynamics():
    t0 = time.time()
    # the path count is sized so that the 2% gate sits at least 4 se out
    n_mass = dyn.mass_law_paths(0.25, XI, 1e-3, 0.5, rel_tol=0.02)
    stats = dyn.mass_law_stats(0.25, XI, 1e-3, 0.5, n_mass, make_rng(21))
    slope_ok = (stats.slope_rel_err < 0.02
                and 4.0 * stats.slope_stderr <= 0.02 * stats.slope_target)

    spatial = dyn.simulate_mass_ensemble(40 * np.pi, XI, 1e-3, 0.5, 3000,
                                         make_rng(19), M=16, N=4)
    dX = np.diff(spatial, axis=1)
    qv = ((dX - 2 * np.pi ** 2 * XI ** 2 * 1e-3) ** 2).mean(axis=0).sum()
    pred = ((2 * np.pi * XI) ** 2 * spatial[:, :-1].mean(axis=0) * 1e-3).sum()
    bracket_ok = abs(qv / pred - 1.0) < 0.05

    ou = dyn.ou_baseline(BoundaryField.zeros(8), 0.02, 5.0 / np.pi,
                         make_rng(20), n_paths=10000)
    ou_ok = True
    for k in (1, 2, 3, 4, 6, 8):
        lam = np.ceil(k / 2)
        v = ou[:, -1, k].var(ddof=1)
        target = 2 * np.pi / lam
        ou_ok = ou_ok and abs(v - target) < 3 * target * np.sqrt(2.0 / ou.shape[0])
    elapsed = time.time() - t0
    ok = slope_ok and bracket_ok and ou_ok and elapsed < 600.0
    report(9, ok, f"slope={stats.slope:.4f} vs {stats.slope_target:.4f} "
                  f"(rel={stats.slope_rel_err:.4f}, stderr={stats.slope_stderr:.4f}, "
                  f"paths={n_mass}), bracket ratio={qv/pred:.4f}, "
                  f"flat-noise variances ok={ou_ok}, runtime={elapsed:.0f}s")


def test_criterion_10_reproducibility(tmp_path):
    from growthlab.cli import main
    args = ["--param", "N=16", "--param", "M=64", "--param", "n_samples=200",
            "--param", "n_samples_main=200"]
    rc1 = main(["run", "--suite", "identities", "--seed", "3",
                "--out", str(tmp_path / "a")] + args)
    rc2 = main(["run", "--suite", "identities", "--seed", "3",
                "--out", str(tmp_path / "b")] + args)
    rep1 = (tmp_path / "a" / "identities" / "report.json").read_bytes()
    rep2 = (tmp_path / "b" / "identities" / "report.json").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and rep1 == rep2
    report(10, ok, f"report.json byte-identical={rep1 == rep2}")
