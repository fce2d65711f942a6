"""No function, class or method in src/ that nothing in the program calls,
no option that no caller sets, and no import that nothing uses.

A name counts as used when code in src/ or scripts/ (the lab's own
experiment programs) loads it, as a bare name or as an attribute; a
mention in a docstring or a comment does not count.  The only exceptions
are the reference routes below: second computations that the tests hold
the suites' routes against.  An option, a parameter with a default,
counts as set when a call in src/, scripts/ or perfbench/ passes it; the
exceptions are the options of the reference routes and the list below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "growthlab"

# brute-force or closed-form routes that only the tests call, each the
# independent side of a test of a faster route in src/
REFERENCE_ROUTES = {
    "harmonic_extend_quadrature",    # spectral: harmonic extension by quadrature
    "integrate_polar",               # quadrature: plain polar product rule
    "green_dirichlet",               # fields: the Dirichlet Green kernel itself
    "eval_z",                        # disk: test function at complex points
    "second_moment_truncated",       # gmc: chaos second moment by quadrature
    "drift_bulk",                    # generator: the drift in bulk form
    "rotate",                        # gmc: CircleMeasure.rotate
    "hess",                          # profiles: ProductProfile.hess, pointwise side of along
}


# (function, parameter) of options that no call in src/, scripts/ or
# perfbench/ sets, each with the reason it stays an option; an __init__
# goes by its class's name
_BATCH = ("samples per batch of a Monte Carlo estimator: the remainder goldens "
          "set it to 150, and the program uses two values, 4,096 and 2,048")
UNSET_OPTIONS = {
    ("main", "argv"): "cli.main: the console script calls it bare, and "
                      "scripts/run_all.py passes argv under the name cli_main",
    ("batched_gauss_panels", "rel_tol"): "the tolerance of the doubling loop, which "
                                         "stays while perfbench wraps the ladder by "
                                         "name (ROADMAP items 16 and 17)",
    ("batched_gauss_panels", "order"): "perfbench reads it by name to count capped "
                                       "calls (ROADMAP items 16 and 17)",
    ("nearly_circular_map", "maxit"): "the only route tests have to MapperError",
    ("ibp_potential_check", "c"): "the mutation handle of "
                                  "test_potential_gradient_gate_sees_c",
    **{(name, "batch"): _BATCH for name in (
        "invariance_check", "dirichlet_form", "rotational_invariance_check",
        "ibp_hdmuf_check", "ibp_potential_check", "projected_symmetric_ibp_check",
        "divergence_form_check", "weighted_field_check")},
}

PROGRAM = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _parsed(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _defined_and_used():
    defined = {}
    used = set()
    for path, tree in _parsed(PROGRAM):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.parent == SRC and not (node.name.startswith("__")
                                               and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_definition_in_src_is_used():
    defined, used = _defined_and_used()
    dead = sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in used and name not in REFERENCE_ROUTES)
    assert not dead, f"defined in src/ but never called: {dead}"


def test_reference_routes_are_defined_and_unused():
    defined, used = _defined_and_used()
    stale = sorted(name for name in REFERENCE_ROUTES
                   if name not in defined or name in used)
    assert not stale, f"stale reference-route entries: {stale}"


def _options():
    """(function, parameter) -> (positional index or None, "file:line") of
    every parameter with a default of a function or method in src/.  The
    index counts from the first argument a caller passes, so it skips the
    self or cls of a method; an __init__ goes by its class's name."""
    options = {}
    for path, tree in _parsed(sorted(SRC.glob("*.py"))):
        owner = {item: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(node)
            name = cls if node.name == "__init__" else node.name
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            args = node.args
            positional = (args.posonlyargs + args.args)[int(bound):]
            where = f"{path.name}:{node.lineno}"
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                options[(name, arg.arg)] = (i, where)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    options[(name, arg.arg)] = (None, where)
    return options


def _passed():
    """(callee name, parameter name or positional index) of every argument
    that a call in src/, scripts/ or perfbench/ passes; a call that unpacks
    *args or **kwargs passes "*", every argument."""
    passed = set()
    for _, tree in _parsed(PROGRAM + sorted((ROOT / "perfbench").glob("*.py"))):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            passed.update((name, i) for i in range(len(node.args)))
            passed.update((name, kw.arg or "*") for kw in node.keywords)
            if any(isinstance(a, ast.Starred) for a in node.args):
                passed.add((name, "*"))
    return passed


def _unset_options():
    passed = _passed()
    return {(fn, param): where for (fn, param), (i, where) in _options().items()
            if not {(fn, param), (fn, i), (fn, "*")} & passed}


def test_every_option_in_src_is_set():
    dead = sorted(f"{fn}({param}) ({where})" for (fn, param), where in _unset_options().items()
                  if (fn, param) not in UNSET_OPTIONS and fn not in REFERENCE_ROUTES)
    assert not dead, f"options in src/ that no caller sets: {dead}"


def test_unset_option_entries_are_unset():
    stale = sorted(set(UNSET_OPTIONS) - set(_unset_options()))
    assert not stale, f"stale unset-option entries: {stale}"


def test_every_import_is_used():
    """An imported name in src/, scripts/ or tests/ is loaded in its module,
    listed in its `__all__`, or imported from it by another module (a
    re-export, such as `fields.batch_values`)."""
    imported, loaded, reexported = {}, {}, set()
    for path in (sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
                 + sorted((ROOT / "tests").glob("*.py"))):
        module = (f"growthlab.{path.stem}" if path.parent == SRC
                  else str(path.relative_to(ROOT)))
        names = imported[module] = {}
        used = loaded[module] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                source = (".".join(filter(None, ("growthlab", node.module)))
                          if node.level else node.module)
                for alias in node.names:
                    names[alias.asname or alias.name] = node.lineno
                    reexported.add((source, alias.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
    unused = sorted(f"{module}:{line} {name}" for module, names in imported.items()
                    for name, line in names.items()
                    if name not in loaded[module] and (module, name) not in reexported)
    assert not unused, f"imported but never used: {unused}"


def test_acceptance_reads_only_the_suites():
    """The acceptance criteria take their numbers from `run_suite`: the
    module imports from growthlab only `suites` and `cli`, so no criterion
    can wire an estimator by hand."""
    allowed = {"growthlab.suites", "growthlab.cli"}
    path = ROOT / "tests" / "test_acceptance.py"
    modules = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "growthlab":
            modules += [f"growthlab.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    stray = sorted(m for m in modules if m.split(".")[0] == "growthlab" and m not in allowed)
    assert not stray, f"tests/test_acceptance.py imports {stray}"
