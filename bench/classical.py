"""The classical sweeps, run in a process of their own.

    python3 bench/classical.py

Run from the root of a checkout (the package is imported from ./src). Reads
one line per operation from stdin, `0` (untraced) or `1` (traced), runs one
sweep and answers with one JSON line: {"wall", "ticks", "stats", "rss_mb",
"summary"}. `stats` is null when the sweep raised (the traceback goes to
stderr); `summary` holds the per-layer spans of a traced sweep. An untraced
sweep runs with the speed probe of probe.py: `ticks` are its tick times and
`wall` is the sweep's wall time less them. Exits at the end of stdin.

The sweeps run here and not in bench/run.py so that the peak RSS this
process reports (VmHWM) is that of orbitseries and the sweep alone, without
the benchmark's references and bookkeeping.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from child import vm_hwm_kb
from probe import Probe


def classical_sweep(pt) -> dict:
    """Acceptance criterion 8 (tests/test_acceptance.py) plus the magic-square
    sweep to n = 28.

    The magic-square sweep is sized so that one sweep takes several seconds:
    the run's median then averages over changes in machine speed instead of
    jumping between fast and slow stretches of short operations. Every call
    goes through the module attribute so that installed tracing wrappers see
    it. A mismatch between the two routes is counted.
    """
    families = ([pt.Family("sl", n) for n in range(1, 9)]
                + [pt.Family("so", n) for n in range(2, 9)]
                + [pt.Family("sp", n) for n in (2, 4, 6, 8)])
    oracle_checks = oracle_sum = mismatches = 0
    for fam in families:
        for p in pt.valid_partitions(fam):
            got = pt.centralizer_oracle(p, fam)
            mismatches += got != pt.orbit_dim_classical(p, fam)
            oracle_checks += 1
            oracle_sum += got
    magic_checks = magic_sum = 0
    for n in range(4, 29):
        for p in pt.valid_partitions(pt.Family("so", n)):
            for a in pt.MAGIC_VALUES:
                for b in pt.MAGIC_VALUES:
                    want = pt.magic_dim_formula(p, a, b)
                    got = pt.orbit_dim_classical(pt.propagate_from_so(p, (a, b), n),
                                                 pt.magic_family(a, b, n))
                    mismatches += got != want
                    magic_checks += 1
                    magic_sum += got
    return {"oracle_checks": oracle_checks, "oracle_dim_sum": oracle_sum,
            "magic_checks": magic_checks, "magic_dim_sum": magic_sum,
            "mismatches": mismatches}


def one_sweep(pt, traced: bool) -> dict:
    summary, ticks = None, []
    if traced:
        import tracing
        tracer = tracing.Tracer()
        replaced = tracing.install(tracer)
    else:
        probe = Probe().start()
    t0 = time.perf_counter()
    try:
        if traced:
            with tracer.root("op"):
                stats = classical_sweep(pt)
        else:
            stats = classical_sweep(pt)
    except Exception:   # a crash is one failed operation
        traceback.print_exc()
        stats = None
    if not traced:
        ticks = probe.stop()
    wall = time.perf_counter() - t0 - sum(ticks)
    if traced:
        tracing.uninstall(replaced)
        summary = {"layers": tracing.summarize(tracer.spans),
                   "reduced_distinct": len(tracer.reduced_keys), "import_s": None}
    return {"wall": wall, "ticks": ticks, "stats": stats, "rss_mb": vm_hwm_kb() / 1024,
            "summary": summary}


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import orbitseries.partitions as pt

    for line in sys.stdin:
        print(json.dumps(one_sweep(pt, line.strip() == "1")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
