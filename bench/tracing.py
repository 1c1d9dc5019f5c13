"""Span tracing of the orbitseries layers, installed from outside the package.

`install` replaces the public functions and methods named in `LAYERS` with
wrappers that record one span per call: (name, start, end, parent index).
Spans stay in memory; `summarize` turns them into per-layer call counts,
inclusive seconds and self seconds (duration minus the time covered by
direct child spans).

A function is replaced wherever a module of the package binds it, because
several modules import names directly (`verify` binds `reduce_pair`,
`seriesdb` binds `build_root_system`, the package `__init__` re-exports).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# layer name -> (module, attribute path) of the public callable it times
LAYERS = {
    "exactpoly.reduced": ("exactpoly", "ProductExpr.reduced"),
    "exactpoly.expand": ("exactpoly", "ProductExpr.expand"),
    "exactpoly.reduce_pair": ("exactpoly", "reduce_pair"),
    "exactpoly.poly_gcd": ("exactpoly", "poly_gcd"),
    "exactpoly.exact_div": ("exactpoly", "exact_div"),
    "exactpoly.degree_in_q": ("exactpoly", "ProductExpr.degree_in_q"),
    "exactpoly.qlaurent_eval": ("exactpoly", "QLaurent.eval_at"),
    "rootsystems.build": ("rootsystems", "RootSystem.__init__"),
    "rootsystems.build_root_system": ("rootsystems", "build_root_system"),
    "rootsystems.grading_dims": ("rootsystems", "grading_dims"),
    "rootsystems.series_weight_to_diagram": ("rootsystems", "series_weight_to_diagram"),
    "partitions.centralizer_oracle": ("partitions", "centralizer_oracle"),
    "partitions.orbit_dim_classical": ("partitions", "orbit_dim_classical"),
    "partitions.propagate": ("partitions", "propagate"),
    "partitions.magic_dim_formula": ("partitions", "magic_dim_formula"),
    "seriesdb.all_series": ("seriesdb", "all_series"),
    "seriesdb.group_order": ("seriesdb", "group_order"),
    "verify.check_dims": ("verify", "check_dims"),
    "verify.check_gradings": ("verify", "check_gradings"),
    "verify.check_pointcounts": ("verify", "check_pointcounts"),
    "verify.check_characters": ("verify", "check_characters"),
    "verify.check_universal": ("verify", "check_universal"),
    "verify.check_errata": ("verify", "check_errata"),
    "verify.report_json": ("verify", "VerificationReport.as_json"),
    "serialize.registry_to_json": ("serialize", "registry_to_json"),
}

MODULES = ("exactpoly", "rootsystems", "partitions", "seriesdb", "verify",
           "serialize", "cli")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent]; end None while open
        self._stack: list[int] = []
        self.reduced_keys: set = set()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def wrap_reduced(self, fn):
        """`ProductExpr.reduced` also records its (expression, a) argument."""
        keys = self.reduced_keys
        traced = self.wrap("exactpoly.reduced", fn)

        @functools.wraps(fn)
        def reduced(expr, a):
            keys.add((expr, a))
            return traced(expr, a)
        return reduced

    @contextlib.contextmanager
    def root(self, name: str):
        """A span enclosing a whole operation."""
        span = [name, time.perf_counter(), None, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def _resolve(obj, path: str):
    owner = obj
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def install(tracer: Tracer) -> list:
    """Wrap every callable in LAYERS, wherever a package module binds it.
    Returns what `uninstall` needs to put the originals back."""
    pkg = importlib.import_module("orbitseries")
    mods = [pkg] + [importlib.import_module(f"orbitseries.{m}") for m in MODULES]
    replaced = []   # (owner, attribute, original)
    for name, (modname, path) in LAYERS.items():
        owner, attr = _resolve(sys.modules[f"orbitseries.{modname}"], path)
        original = owner.__dict__[attr]
        if name == "exactpoly.reduced":
            wrapped = tracer.wrap_reduced(original)
        else:
            wrapped = tracer.wrap(name, original)
        setattr(owner, attr, wrapped)
        replaced.append((owner, attr, original))
        if isinstance(owner, type):
            continue
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    replaced.append((mod, key, original))
    return replaced


def uninstall(replaced: list) -> None:
    """Undo `install`."""
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)


def summarize(spans) -> dict:
    """Per-layer {calls, s, self_s} from closed spans, plus the root spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        d = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        d["calls"] += 1
        d["s"] += end - start
        d["self_s"] += end - start - child_time[i]
    return out
