"""The traced benchmark run wraps package callables by name (bench/tracing.py,
`LAYERS`); a renamed function must fail here rather than in a traced run."""

import importlib
import pkgutil
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_resolves():
    tracing = runpy.run_path(str(TRACING))   # compiles the file, writes nothing
    for name in tracing["MODULES"]:
        importlib.import_module(f"orbitseries.{name}")
    unresolved = []
    for layer, (module, path) in tracing["LAYERS"].items():
        owner = importlib.import_module(f"orbitseries.{module}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        # install() replaces owner.__dict__[attr], so it must be bound right there
        if not callable(vars(owner).get(attr) if owner is not None else None):
            unresolved.append(layer)
    assert unresolved == []


def test_a_traced_verify_counts_every_arithmetic_call():
    # a name bound before install() would escape its wrapper and count 0
    tracing = runpy.run_path(str(TRACING))
    verify = importlib.import_module("orbitseries.verify")
    tracer = tracing["Tracer"]()
    replaced = tracing["install"](tracer)
    try:
        verify.run_all()
    finally:
        tracing["uninstall"](replaced)
    calls = {name: layer["calls"] for name, layer in tracing["summarize"](tracer.spans).items()
             if name.startswith("exactpoly.")}
    assert calls == {"exactpoly.expand": 1, "exactpoly.reduce_pair": 1,
                     "exactpoly.poly_gcd": 1, "exactpoly.exact_div": 3}


def test_no_module_outside_the_traced_ones_binds_a_layer_by_name():
    # install() rebinds a wrapped function only in the package and in MODULES,
    # so a module outside them that binds one by name would call the original
    tracing = runpy.run_path(str(TRACING))
    originals = []
    for module, path in tracing["LAYERS"].values():
        owner = importlib.import_module(f"orbitseries.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        originals.append(owner)
    pkg = importlib.import_module("orbitseries")
    others = [info.name for info in pkgutil.walk_packages(pkg.__path__, "orbitseries.")
              if info.name.removeprefix("orbitseries.") not in tracing["MODULES"]]
    assert {"orbitseries._expr", "orbitseries._records"} <= set(others)
    bound = [(name, key) for name in others
             for key, value in vars(importlib.import_module(name)).items()
             if any(value is f for f in originals)]
    assert bound == []
