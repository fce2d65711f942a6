"""No function, class or method in src/ that nothing in the program calls,
and no import that nothing uses.

A name counts as used when code in src/ or scripts/ (the lab's own
experiment programs) loads it, as a bare name or as an attribute; a
mention in a docstring or a comment does not count.  The only exceptions
are the reference routes below: second computations that the tests hold
the suites' routes against.
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


def _defined_and_used():
    defined = {}
    used = set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
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
