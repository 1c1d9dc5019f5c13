"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.
"""

import json
import time
from fractions import Fraction as F

from orbitseries import verify
from orbitseries.partitions import (Family, Partition, centralizer_oracle,
                                    example2_formula, magic_dim_formula,
                                    magic_family, orbit_dim_classical,
                                    valid_partitions, propagate_from_so)
from orbitseries.rootsystems import (WeightedDiagram, algebra,
                                     build_root_system, root_system,
                                     orbit_dim_from_diagram,
                                     series_weight_to_diagram)
from orbitseries.seriesdb import all_series, series_by_row
from orbitseries.verify import FAIL, PASS, RECORDED, VerifyConfig, run_all


def report(n, name, ok, extra=""):
    print(f"criterion {n:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
          + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_01_root_system_counts():
    t0 = time.monotonic()
    exceptional = {"f4": 24, "e6": 36, "e7": 63, "e8": 120}
    subexceptional = {"sp6": 9, "sl6": 15, "so12": 30, "e7": 63}
    ok = all(root_system(k).N == v for k, v in exceptional.items())
    ok = ok and all(root_system(k).N == v for k, v in subexceptional.items())
    elapsed = time.monotonic() - t0
    report(1, "root-system counts", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_diagram_example_strings():
    expect = {"f4": "1,0,1,2", "e6": "2,1,0,1,2/1",
              "e7": "1,0,1,0,2,0/0", "e8": "2,0,0,0,1,0,1/0"}
    got = {name: series_weight_to_diagram(1, 0, 1, 2, name).as_string()
           for name in expect}
    report(2, "example diagram quadruple", got == expect, str(got))


def test_criterion_03_dimension_suite():
    t0 = time.monotonic()
    failures = []
    for rec in series_by_row("f4"):
        for a in (1, 2, 4, 8):
            wd = series_weight_to_diagram(*rec.exponents,
                                          {1: "f4", 2: "e6", 4: "e7", 8: "e8"}[a])
            if orbit_dim_from_diagram(wd) != rec.dim(a):
                failures.append((rec.label, a))
        if rec.so8_partition is not None:
            d0 = orbit_dim_classical(rec.so8_partition, Family("so", 8))
            if d0 != rec.dim.c0:
                failures.append((rec.label, "so8"))
    # folding values at a = -2/3 land on orbit dimensions of the folded algebra
    g2alg = algebra("g2")
    g2_dims = {orbit_dim_from_diagram(WeightedDiagram(g2alg, d))
               for d in [(0, 0), (0, 1), (1, 0), (2, 0), (2, 2)]}
    hd = build_root_system(g2alg).dual_coxeter()
    for rec in series_by_row("f4"):
        if not rec.folding:
            continue
        v = rec.dim(F(-2, 3))
        if rec.label == "g" and v != 2 * hd - 2:
            failures.append((rec.label, "folding"))
        if v not in g2_dims:
            failures.append((rec.label, "folding"))
    elapsed = time.monotonic() - t0
    report(3, "dimension suite", not failures and elapsed < 5.0,
           f"{elapsed:.2f}s, failures={failures}")


def test_criterion_04_radical_identity():
    failures = []
    for rec in all_series():
        for m in rec.members:
            if m.ambient.dim - rec.dim(m.a) - m.h.dim != rec.rad(m.a):
                failures.append((rec.row, rec.label, m.a))
        if rec.so8_partition is not None and rec.so8_h is not None:
            d0 = orbit_dim_classical(rec.so8_partition, Family("so", 8))
            if 28 - d0 - rec.so8_h.dim != rec.rad.c0:
                failures.append((rec.row, rec.label, 0))
    report(4, "radical identity", not failures, f"failures={failures}")


def test_criterion_05_grading_linearity_and_claims():
    results = verify.check_gradings()
    bad = [r.subject for r in results if r.status == FAIL]
    linear = [r for r in results if "linear in a" in r.subject]
    claims = [r for r in results if "claim" in r.subject]
    report(5, "grading linearity and claims",
           not bad and linear and claims,
           f"{len(linear)} linearity checks, {len(claims)} quoted claims")


def test_criterion_06_point_counts():
    t0 = time.monotonic()
    results = verify.check_pointcounts((1, 2, 4, 8))
    bad = [r.subject for r in results if r.status == FAIL]
    degrees = [r for r in results if "degree" in r.subject]
    # degree test covers every f4-row series at a=1 as well
    f4_a1 = [r for r in degrees if r.subject.startswith("f4:") and "a=1" in r.subject]
    elapsed = time.monotonic() - t0
    report(6, "point counts", not bad and len(f4_a1) == 15 and elapsed < 30.0,
           f"{elapsed:.2f}s, {len(results)} checks")


def test_criterion_07_characters():
    results = verify.check_characters()
    bad = [r.subject for r in results if r.status == FAIL]
    explicit = [r for r in results if "explicit degree" in r.subject]
    pair = [r for r in results if "pair equality at first member" in r.subject]
    a1 = [r for r in results if "a=1" in r.subject]
    ok = (not bad and len(explicit) == 5 and
          all(r.status == PASS for r in explicit) and
          len(pair) == 5 and all(r.status == PASS for r in pair) and
          a1 and all(r.status == RECORDED for r in a1))
    report(7, "unipotent characters", ok,
           f"{len(results)} checks, {len(a1)} recorded a=1 entries")


def test_criterion_08_classical_oracle_exhaustive():
    t0 = time.monotonic()
    mismatches = []
    families = [Family("sl", n) for n in range(1, 9)] + \
        [Family("so", n) for n in range(2, 9)] + \
        [Family("sp", n) for n in (2, 4, 6, 8)]
    total = 0
    for fam in families:
        for p in valid_partitions(fam):
            total += 1
            if centralizer_oracle(p, fam) != orbit_dim_classical(p, fam):
                mismatches.append((fam.tag, p.parts))
    elapsed = time.monotonic() - t0
    report(8, "classical centralizer oracle",
           not mismatches and elapsed < 60.0,
           f"{total} partitions, {elapsed:.2f}s")


def test_criterion_09_magic_square():
    failures = []
    for n in range(4, 11):
        for p in valid_partitions(Family("so", n)):
            for a in (1, 2, 4):
                for b in (1, 2, 4):
                    want = magic_dim_formula(p, a, b)
                    got = orbit_dim_classical(propagate_from_so(p, (a, b), n),
                                              magic_family(a, b, n))
                    if got != want:
                        failures.append((n, p.parts, a, b))
    for n in range(4, 13):
        p = Partition((3,) + (1,) * (n - 3))
        for a in (1, 2, 4):
            for b in (1, 2, 4):
                if magic_dim_formula(p, a, b) != example2_formula(n, a, b):
                    failures.append(("ex2", n, a, b))
    results = verify.check_universal()
    ex1 = [r for r in results if "printed closed form" in r.subject]
    ext = [r for r in results if "printed slope" in r.subject]
    sl_exact = [r for r in ext if "extend sl" in r.subject]
    so_sp_recorded = [r for r in ext if "extend so" in r.subject or
                      "extend sp" in r.subject]
    ok = (not failures and ex1 and
          all(r.status == RECORDED for r in ex1) and
          sl_exact and all(r.status == PASS for r in sl_exact) and
          so_sp_recorded and all(r.status == RECORDED for r in so_sp_recorded))
    report(9, "magic square and extensions", ok, f"failures={failures[:3]}")


def test_criterion_10_universal_orbits():
    results = verify.check_universal()
    minimal = [r for r in results if r.subject.startswith("minimal orbit")]
    bad = [r for r in minimal if r.status != PASS]
    sigma = [r for r in results if "corollary vs series" in r.subject]
    # 32 distinct simple types of rank at most 8 (D3 = A3, B1 = C1 = A1)
    ok = (len(minimal) == 32 and not bad and len(sigma) == 3 and
          all(r.status == RECORDED and "offset" in r.note for r in sigma))
    report(10, "universal orbits", ok,
           f"{len(minimal)} minimal-orbit checks, offsets "
           + "; ".join(r.note.split(";")[0] for r in sigma))


def test_criterion_11_determinism():
    cfg = VerifyConfig()
    a = run_all(cfg).as_json().encode()
    b = run_all(cfg).as_json().encode()
    report(11, "byte-identical reports", a == b, f"{len(a)} bytes")
