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
