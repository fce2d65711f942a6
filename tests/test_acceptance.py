"""Acceptance gates at desk scale (N=64, M=256, samples <= 1e5).

Criteria 1-9 read their numbers from `run_suite`, at the configs in
CONFIGS and seed 1 (the CLI default).  Each suite runs once per session;
a criterion asserts the gates of the rows it covers, any condition of its
own that is tighter than a gate, and a bound on the wall time of its
suite's run.  Each test prints one pass/fail line; run with
`pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import functools
import time

from growthlab.suites import ExperimentConfig, run_suite

# each suite at its criteria's sample counts; N, M and the seed are the defaults
CONFIGS = {
    "invariance": {"n_samples": 20000, "n_samples_main": 100000},   # C1, C6
    "identities": {},                                               # C2, C3
    "loewner": {},                                                  # C4
    "gmc": {"n_samples": 10000},                                    # C5
    "dirichlet": {"n_samples_main": 30000},                         # C7
    "appendix": {"n_samples": 30000},                               # C8
    "dynamics": {"n_samples": 10000, "n_samples_main": 3000},       # C9
}
PURE_GRAVITY = "pure-gravity-couplings"
SPECTRAL = {"harmonic-conjugation", "dirichlet-to-neumann", "fourier-basis"}


@functools.cache
def suite_run(suite):
    """({check name: CheckResult}, wall seconds) of the suite's one run."""
    cfg = ExperimentConfig(suite, **CONFIGS[suite])
    assert (cfg.N, cfg.M, cfg.seed) == (64, 256, 1)
    t0 = time.perf_counter()
    rows = run_suite(cfg)
    return {r.name: r for r in rows}, time.perf_counter() - t0


def report(k, passed, detail):
    print(f"\n[criterion {k:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def reading(r):
    if r.gate == "3se":
        return f"{r.name} z={(r.lhs - r.rhs) / r.stderr:.2f}"
    return f"{r.name}={r.lhs:.6g}" + (f" vs {r.rhs:.6g}" if r.gate in ("abs", "rel") else "")


def criterion(k, suite, covers=lambda r: True, bound=None, extra=None):
    """Assert the gates of the suite's rows that `covers` selects, each
    named condition in `extra`, and the run's wall time below `bound`."""
    rows, elapsed = suite_run(suite)
    covered = [r for r in rows.values() if covers(r)]
    assert covered, f"criterion {k} covers no row of {suite}"
    failed = [r.name for r in covered if not r.passed]
    failed += [name for name, ok in (extra or {}).items() if not ok]
    if bound is not None and elapsed >= bound:
        failed.append(f"runtime {elapsed:.1f}s >= {bound:.0f}s")
    detail = "; ".join(map(reading, covered)) + f"; {suite} runtime={elapsed:.1f}s"
    report(k, not failed, f"failed {failed}: {detail}" if failed else detail)


def test_criterion_1_pure_gravity_algebra():
    criterion(1, "invariance", lambda r: r.anchor == PURE_GRAVITY)


def test_criterion_2_spectral_identities():
    criterion(2, "identities", lambda r: r.anchor in SPECTRAL, bound=1.0)


def test_criterion_3_kernel_suites():
    criterion(3, "identities", lambda r: r.anchor not in SPECTRAL, bound=30.0)


def test_criterion_4_loewner():
    criterion(4, "loewner", bound=120.0)


def test_criterion_5_gmc():
    criterion(5, "gmc", bound=120.0)


def test_criterion_6_invariance():
    criterion(6, "invariance", lambda r: r.anchor != PURE_GRAVITY, bound=600.0)


def test_criterion_7_dirichlet_form():
    criterion(7, "dirichlet", bound=600.0)


def test_criterion_8_appendix_suites():
    # exact per sample, so held tighter than the gate's 1e-8
    shift = suite_run("appendix")[0]["conjugate-shift-identity"].lhs
    criterion(8, "appendix", extra={"conjugate shift < 1e-10": shift < 1e-10})


def test_criterion_9_dynamics():
    slope = suite_run("dynamics")[0]["mass-drift-slope"]
    criterion(9, "dynamics", bound=600.0,
              extra={"2% slope gate >= 4 se": 4.0 * slope.stderr <= 0.02 * slope.rhs})


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
