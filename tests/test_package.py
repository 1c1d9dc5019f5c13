"""The package loads lazily: `import orbitseries.cli` pulls in neither the
verifier nor the export code nor the dataclass machinery, a registry command
loads `partitions` and `rootsystems` only when it uses them and `exactpoly`
only when it computes with an expression, a partial verify loads only the
suites it runs, the names the package has always offered resolve to the
objects of their modules, and every annotation names what its module binds."""

import ast
import builtins
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitseries

# the names the package re-exports from each module
PUBLIC = {
    "_expr": ("Cyclo", "LinExp", "ProductExpr", "QPhi", "ZeroExponentError"),
    "exactpoly": ("Cyclo", "LinExp", "NotDivisibleError", "ProductExpr", "QLaurent",
                  "QPhi", "ZeroExponentError", "exact_div", "reduce_pair"),
    "partitions": ("Family", "Partition", "PartitionPair", "centralizer_oracle",
                   "magic_dim_formula", "orbit_dim_classical", "propagate"),
    "rootsystems": ("AlgebraType", "RootSystem", "WeightedDiagram", "algebra",
                    "build_root_system", "grading_dims", "minimal_orbit_diagram",
                    "orbit_dim_from_diagram", "root_system", "series_weight_to_diagram"),
    "seriesdb": ("SeriesRecord", "all_series", "group_order", "lookup", "reductive",
                 "rows"),
    "verify": ("VerifyConfig", "run_all"),
}

# modules added to sys.modules, before and after one `verify --suite dims`
SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
import orbitseries.cli
loaded = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()):
    code = orbitseries.cli.main(["verify", "--suite", "dims"])
print(json.dumps({"loaded": loaded, "code": code,
                  "verify_after": "orbitseries.verify" in sys.modules}))
"""


def _fresh_process(script: str, *args: str) -> dict:
    """The JSON object that ``script`` prints, run in a new interpreter."""
    src = str(Path(orbitseries.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def test_cli_import_loads_only_what_a_lookup_needs():
    got = _fresh_process(SCRIPT)
    assert "orbitseries.cli" in got["loaded"]
    for name in ("dataclasses", "inspect", "orbitseries.verify", "orbitseries.serialize"):
        assert name not in got["loaded"]
    assert got["code"] == 0 and got["verify_after"]


# the orbitseries modules loaded after one call; no argv: all_series() alone
BOUNDARY = """
import contextlib, io, json, sys
argv = sys.argv[1:]
code = None
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if argv:
        from orbitseries import cli
        code = cli.main(argv)
    else:
        import orbitseries
        orbitseries.all_series()
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules
                                                 if m.startswith("orbitseries"))}))
"""

NEITHER, ROOTS, BOTH = (), ("rootsystems",), ("partitions", "rootsystems")


# the last columns: whether the call loads exactpoly, the Laurent arithmetic,
# and _suites, the point-count, character and universal checks
@pytest.mark.parametrize("argv, code, combinatorics, arithmetic, suites", [
    ((), None, NEITHER, False, False),
    (("list",), 0, NEITHER, False, False),
    (("show", "f4", "g^2"), 0, NEITHER, False, False),
    (("points", "f4", "g2", "--a", "2"), 0, NEITHER, True, False),
    (("export", "--format", "json"), 0, NEITHER, True, False),
    (("show", "f4", "no-such-label"), 2, NEITHER, False, False),
    (("diagram", "f4", "g.g3.gQ^2", "--algebra", "e8"), 0, ROOTS, False, False),
    (("grading", "f4", "gQ", "--algebra", "e7"), 0, ROOTS, False, False),
    (("verify", "--suite", "dims"), 0, BOTH, False, False),
    (("verify", "--suite", "gradings"), 0, ROOTS, False, False),
    (("verify",), 0, BOTH, True, True),
], ids=["all_series", "list", "show", "points", "export", "unknown-label", "diagram",
        "grading", "verify-dims", "verify-gradings", "verify"])
def test_registry_commands_load_the_combinatorics_only_when_they_use_it(
        argv, code, combinatorics, arithmetic, suites):
    got = _fresh_process(BOUNDARY, *argv)
    assert got["code"] == code
    assert "orbitseries.seriesdb" in got["loaded"]
    for module in ("partitions", "rootsystems"):
        assert (f"orbitseries.{module}" in got["loaded"]) == (module in combinatorics)
    assert ("orbitseries.exactpoly" in got["loaded"]) == arithmetic
    assert ("orbitseries._suites" in got["loaded"]) == suites


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_the_module_objects(module):
    mod = importlib.import_module(f"orbitseries.{module}")
    for name in PUBLIC[module]:
        assert getattr(orbitseries, name) is getattr(mod, name)
    assert getattr(orbitseries, module) is mod


@pytest.mark.parametrize("module, names", [
    ("exactpoly", ("Cyclo", "FractionalPowerError", "L", "LinExp", "ProductExpr", "QPhi",
                   "ZeroExponentError", "pexpr")),
    ("seriesdb", ("L", "LinExp", "ProductExpr", "pexpr")),
])
def test_the_expression_model_is_imported_not_copied(module, names):
    # exactpoly and seriesdb bind the model's own objects, as before the move
    mod, model = (importlib.import_module(f"orbitseries.{m}") for m in (module, "_expr"))
    for name in names:
        assert getattr(mod, name) is getattr(model, name)


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from orbitseries import *", namespace)
    for module, names in PUBLIC.items():
        for name in names:
            assert namespace[name] is getattr(importlib.import_module(
                f"orbitseries.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        orbitseries.no_such_name
    assert not hasattr(orbitseries, "dataclass")
    assert orbitseries.__version__ == "0.1.0"


def _module_bindings(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level, in ``if`` (so under
    ``TYPE_CHECKING``) and ``try`` blocks included: imports, defs, classes
    and assignment targets."""
    names: set[str] = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse + getattr(node, "finalbody", [])
            todo += [s for h in getattr(node, "handlers", []) for s in h.body]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _annotation_names(annotation: ast.expr):
    """The root names an annotation reads, through string annotations too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval").body)


def test_every_annotation_names_what_its_module_binds():
    # under `from __future__ import annotations` an unbound name fails only
    # when something evaluates the annotation, so this check reads the source
    unbound = []
    for path in sorted(Path(orbitseries.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        known = _module_bindings(tree) | set(dir(builtins))
        for node in ast.walk(tree):
            annotations = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                annotations = [a.annotation for a in args.posonlyargs + args.args +
                               args.kwonlyargs + [args.vararg, args.kwarg] if a] + [node.returns]
            elif isinstance(node, ast.AnnAssign):
                annotations = [node.annotation]
            unbound += [(path.name, node.lineno, name) for ann in annotations if ann
                        for name in _annotation_names(ann) if name not in known]
    assert unbound == []
