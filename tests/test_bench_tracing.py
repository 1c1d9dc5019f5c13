"""The traced benchmark run wraps package callables by name (bench/tracing.py,
`LAYERS`); a renamed function must fail here rather than in a traced run."""

import importlib
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
                     "exactpoly.poly_gcd": 1, "exactpoly.exact_div": 3,
                     "exactpoly.degree_in_q": 75}
