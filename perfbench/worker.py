"""One benchmark round in a fresh process: import, run one suite, report.

    python3 perfbench/worker.py --workload dirichlet --seed 1 --out DIR [--trace]

The process prints `ready` once growthlab is imported and a suite can
run (the parent times process start to this line as set-up), then runs
the suite as `growthlab run` does, `run_suite` followed by
`write_report` into DIR/<suite>, and prints one JSON line: `run_s`,
`samples`, `peak_rss_mb` and, with --trace, the per-layer figures.  The
spans of a traced round go to DIR/trace.json.  `--setup-only` stops after
`ready`; `--all-modules` also traces every public function of loewner,
kernels and spectral, for the layer-share table only.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import sys
import time
from functools import wraps
from pathlib import Path

import numpy as np

from tracer import Tracer

# The configurations of tests/test_suites.py LIGHT, the scale Tier-1 runs.
WORKLOADS = {
    "invariance": dict(N=32, M=128, n_samples=2000, n_samples_main=4000),
    "dirichlet": dict(N=32, M=128, n_samples=2000, n_samples_main=3000),
    "dynamics": dict(N=32, M=128, n_samples=1000, n_samples_main=2000),
}

# generator.integrand: the estimators' zero-mode integrands, called by the
# quadrature; their arithmetic outside the profile calls is generator time
GENERATOR_SPANS = ("generator.invariance_check", "generator.dirichlet_form",
                   "generator.divergence_form_check", "generator.integrand")
DYNAMICS_SPANS = ("dynamics.mass_law", "dynamics.ensemble", "dynamics.ou",
                  "dynamics.symmetric")
# spans whose inclusive time is a per-layer metric, named <span>_s
TIMED = ("fields.sample", "fields.bulk_cov", "gmc.chaos", "gmc.ball_masses",
         "profiles.product", "profiles.spline", "profiles.table_build",
         "quadrature.gauss", "generator.invariance_check",
         "generator.dirichlet_form", "generator.divergence_form_check",
         "dynamics.cir", "dynamics.mass_law", "dynamics.ensemble", "dynamics.ou",
         "dynamics.symmetric")


def _points(fn, key):
    """Count callback: one pass of fn and the argument points of its x."""
    sig = inspect.signature(fn)

    def add(counts, args, kwargs):
        x = np.asarray(sig.bind(*args, **kwargs).arguments["x"])
        counts[key + "_calls"] += 1
        counts[key + "_points"] += x.size // x.shape[-1]

    return add


def _gauss_wrapping(tracer):
    """Wrapper of batched_gauss_panels: integrand spans and nodes per row."""

    def build(orig):
        sig = inspect.signature(orig)

        @wraps(orig)
        def wrapper(*args, **kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            fn, rows = ba.arguments["fn"], np.asarray(ba.arguments["a"]).size
            widths = []

            def counted(nodes):
                widths.append(nodes.shape[1])
                with tracer.span("generator.integrand"):
                    return fn(nodes)

            ba.arguments["fn"] = counted
            out = tracer.call("quadrature.gauss", orig, ba.args, ba.kwargs)
            k = ba.arguments["start_panels"]
            while 2 * k <= ba.arguments["max_panels"]:
                k *= 2
            c = tracer.counts
            c["quadrature.gauss_calls"] += 1
            c["quadrature.rows"] += rows
            c["quadrature.node_rows"] += rows * sum(widths)
            c["quadrature.capped_calls"] += int(max(widths) >= ba.arguments["order"] * k)
            return out

        return wrapper

    return build


def instrument(tracer, all_modules: bool = False):
    """Install the sample counters and, on a timed tracer, the layer spans."""
    from growthlab import (dynamics, fields, generator, gmc, kernels, loewner,
                           quadrature, spectral)
    from growthlab.profiles import MollifiedProfile, ProductProfile

    if all_modules:
        for mod in (loewner, kernels, spectral):
            tracer.patch_module(mod, mod.__name__.split(".")[-1])
    if tracer.timed:
        for attr in ("sample_trace_batch", "batch_values"):
            tracer.patch_function(fields, attr, "fields.sample")
        tracer.patch_function(fields, "bulk_covariance_matrix", "fields.bulk_cov")
        tracer.patch_function(gmc, "chaos_density_batch", "gmc.chaos")
        tracer.patch_function(gmc, "ball_masses", "gmc.ball_masses")
        for attr in ("value", "grad", "hess"):
            tracer.patch_method(ProductProfile, attr, "profiles.product",
                                _points(ProductProfile.__dict__[attr], "profiles.product"))
        for attr in ("eval_many", "value", "grad_entry", "hess_entry"):
            tracer.patch_method(MollifiedProfile, attr, "profiles.spline",
                                _points(MollifiedProfile.__dict__[attr], "profiles.spline"))
        tracer.patch_method(MollifiedProfile, "__init__", "profiles.table_build")
        tracer.patch_function(quadrature, "batched_gauss_panels", None,
                              build=_gauss_wrapping(tracer))
        for attr in ("invariance_check", "dirichlet_form", "divergence_form_check"):
            tracer.patch_function(generator, attr, f"generator.{attr}")
        for attr, name in (("mass_law_stats", "dynamics.mass_law"),
                           ("simulate_mass_ensemble", "dynamics.ensemble"),
                           ("ou_baseline", "dynamics.ou"),
                           ("simulate_symmetric", "dynamics.symmetric")):
            tracer.patch_function(dynamics, attr, name)

    # Samples: trace fields whose zero mode an estimator integrates (the
    # estimators draw them through generator's own binding), and path steps
    # of the square-root diffusion.
    def fields_drawn(c, args, kwargs):
        c["samples"] += int(args[1] if len(args) > 1 else kwargs["n"])

    def path_steps(c, args, kwargs):
        x = np.asarray(args[0] if args else kwargs["x"])
        c["samples"] += x.size // x.shape[-1] if x.ndim > 1 else 1
        c["dynamics.cell_steps"] += x.size

    tracer.patch_function(generator, "sample_trace_batch", None, fields_drawn,
                          holders=[(generator, "sample_trace_batch")])
    tracer.patch_function(dynamics, "cir_exact_step", "dynamics.cir", path_steps)


def layer_metrics(tracer) -> dict:
    c = tracer.counts
    selfs = tracer.self_by_name()
    out = {f"{span}_s": tracer.inclusive(span) for span in TIMED}
    out.update({
        "profiles.product_calls": c["profiles.product_calls"],
        "profiles.product_points": c["profiles.product_points"],
        "profiles.spline_points": c["profiles.spline_points"],
        "quadrature.gauss_calls": c["quadrature.gauss_calls"],
        "quadrature.nodes_per_sample": (c["quadrature.node_rows"] / c["quadrature.rows"]
                                        if c["quadrature.rows"] else 0.0),
        "quadrature.capped_calls": c["quadrature.capped_calls"],
        "quadrature.self_s": selfs.get("quadrature.gauss", 0.0),
        "generator.self_s": sum(selfs.get(n, 0.0) for n in GENERATOR_SPANS),
        "dynamics.self_s": sum(selfs.get(n, 0.0) for n in DYNAMICS_SPANS),
        "dynamics.cell_steps": c["dynamics.cell_steps"],
        "dynamics.cell_steps_per_s": (c["dynamics.cell_steps"] / out["dynamics.cir_s"]
                                      if out["dynamics.cir_s"] > 0 else 0.0),
        "suite.self_s": selfs.get("suite", 0.0),
        "trace.run_s": tracer.inclusive("suite"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--all-modules", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import growthlab
    from growthlab.cli import write_report
    from growthlab.suites import ExperimentConfig, run_suite
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(growthlab.__file__).resolve().parents[1] != src:
        sys.exit(f"growthlab was imported from {growthlab.__file__}, not {src}")
    cfg = ExperimentConfig(suite=args.workload, seed=args.seed,
                           **WORKLOADS[args.workload])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(timed=args.trace)
    instrument(tracer, all_modules=args.all_modules)
    out = Path(args.out)
    t0 = time.perf_counter()
    with tracer.span("suite"):
        results = run_suite(cfg)
        write_report(cfg, results, out / cfg.suite)
    run_s = time.perf_counter() - t0

    line = {"run_s": run_s, "samples": tracer.counts["samples"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": None}
    if args.trace:
        line["layers"] = layer_metrics(tracer)
        if args.all_modules:
            line["self_by_name"] = tracer.self_by_name()
        tracer.write(out / "trace.json")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
