"""Exact computation and verification of series of nilpotent orbits.

The public names below load their module on first use (PEP 562), so a
command that needs only the registry does not import the verifier.  Nothing
looked up is cached here: each access reads the module's current attribute.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    # the record types that partitions and rootsystems import back
    "_records": ("AlgebraType", "Family", "Partition", "PartitionPair", "algebra"),
    # the expression model that exactpoly imports back
    "_expr": ("Cyclo", "LinExp", "ProductExpr", "QPhi", "ZeroExponentError"),
    "exactpoly": ("NotDivisibleError", "QLaurent", "exact_div", "reduce_pair"),
    "partitions": ("centralizer_oracle", "magic_dim_formula", "orbit_dim_classical",
                   "propagate"),
    "rootsystems": ("RootSystem", "WeightedDiagram", "build_root_system", "grading_dims",
                    "minimal_orbit_diagram", "orbit_dim_from_diagram", "root_system",
                    "series_weight_to_diagram"),
    "seriesdb": ("SeriesRecord", "all_series", "group_order", "lookup",
                 "reductive", "rows"),
    "verify": ("VerifyConfig", "run_all"),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _HOME:   # the submodules this package used to import eagerly
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(list(globals()) + __all__)
