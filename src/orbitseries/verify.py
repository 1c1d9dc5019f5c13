"""Verification suites: every table claim becomes an assertion or a recorded
discrepancy.

Policy: identities stated for a in {2, 4, 8} are hard assertions.  The a = 1
point-count and character identities, the universal-orbit corollary formulas,
the partition-extension slope formulas for the orthogonal and symplectic
cases, and the regular-orbit closed form are compared and *recorded*, because
the printed claims either restrict the range or fail against the independent
oracles.  A recorded entry is not a failure; a failed assertion is.  The JSON
report is written directly in the indented, key-sorted layout of ``json.dumps``.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

from . import rootsystems as rsys
from . import seriesdb as db

PASS = "pass"
FAIL = "fail"
RECORDED = "discrepancy-recorded"

# The series parameter values; a = 1 entries are recorded, never asserted.
A_VALUES = tuple(db.EXCEPTIONAL_AMBIENTS)

# The suites in the order run_all runs them.
SUITES = ("dims", "gradings", "pointcounts", "characters", "universal", "errata")


class CheckResult(NamedTuple):
    suite: str
    subject: str
    status: str
    lhs: str
    rhs: str
    note: str = ""


def _res(suite, subject, ok, lhs, rhs, note="") -> CheckResult:
    return CheckResult(suite, subject, PASS if ok else FAIL, str(lhs), str(rhs), note)


def _rec(suite, subject, lhs, rhs, note="") -> CheckResult:
    return CheckResult(suite, subject, RECORDED, str(lhs), str(rhs), note)


def _diagram_for(rec: db.SeriesRecord, a: int) -> rsys.WeightedDiagram:
    return rec.diagram(db.EXCEPTIONAL_AMBIENTS[a])


# -- dimensions ---------------------------------------------------------------


def check_dims() -> list[CheckResult]:
    from . import partitions as pt   # only the classical members need partitions
    out: list[CheckResult] = []
    for rec in db.all_series():
        tag = f"{rec.row}:{rec.label}"
        for m in rec.members:
            want = rec.dim(m.a)
            if rec.exponents is not None and m.family is None:
                got = rsys.orbit_dim_from_diagram(_diagram_for(rec, m.a))
                out.append(_res("dims", f"{tag} a={m.a} diagram", got == want,
                                got, want))
            if m.family is not None:
                got = pt.orbit_dim_classical(m.orbit_datum(), m.family)
                out.append(_res("dims", f"{tag} a={m.a} {m.family.tag}",
                                got == want, got, want))
        if rec.so8_partition is not None:
            got = pt.orbit_dim_classical(rec.so8_partition, pt.Family("so", 8))
            out.append(_res("dims", f"{tag} so8 intercept",
                            got == rec.dim.c0, got, rec.dim.c0))
        for m in rec.members:
            lhs = m.ambient.dim - rec.dim(m.a) - m.h.dim
            out.append(_res("dims", f"{tag} a={m.a} radical identity",
                            lhs == rec.rad(m.a), lhs, rec.rad(m.a),
                            f"h(a) = {m.h}"))
        if rec.so8_partition is not None and rec.so8_h is not None:
            d0 = pt.orbit_dim_classical(rec.so8_partition, pt.Family("so", 8))
            lhs = 28 - d0 - rec.so8_h.dim
            out.append(_res("dims", f"{tag} so8 radical identity",
                            lhs == rec.rad.c0, lhs, rec.rad.c0))
    out.extend(_folding_checks())
    out.extend(_hasse_checks())
    out.extend(_stabilizer_series_checks())
    return out


def _spec_type(spec: db.ReductiveSpec) -> tuple:
    return (tuple(sorted(f.name for f in spec.factors)), spec.torus_rank)


def _stabilizer_series_checks() -> list[CheckResult]:
    # the stabilizer series of these orbits are the ambient algebras of the
    # lower rows of the square, member by member
    out = []
    links = [("g", "subexceptional"), ("g^2", "severi"),
             ("g^2.g2^2", "subseveri")]
    for label, other_row in links:
        h_list = [_spec_type(m.h) for m in db.lookup("f4", label).members]
        ambients = [_spec_type(db.series_by_row(other_row)[0].member(a).ambient)
                    for a in A_VALUES]
        out.append(_res("dims", f"f4:{label} stabilizers = {other_row} ambients",
                        h_list == ambients, h_list, ambients))
    return out


def _g2_orbit_dims() -> set[int]:
    alg = rsys.algebra("g2")
    # alpha_1 is short, so the distinguished G2(a1) is (0, 2): dim g0 = dim g2
    diagrams = [(0, 0), (0, 1), (1, 0), (0, 2), (2, 2)]
    return {rsys.orbit_dim_from_diagram(rsys.WeightedDiagram(alg, d))
            for d in diagrams}


def _folding_checks() -> list[CheckResult]:
    out = []
    g2dims = _g2_orbit_dims()
    hd = rsys.build_root_system(rsys.algebra("g2")).dual_coxeter()
    for rec in db.series_by_row("f4"):
        if not rec.folding:
            continue
        v = rec.dim(Fraction(-2, 3))
        if rec.label == "g":
            out.append(_res("dims", "f4:g folding a=-2/3", v == 2 * hd - 2,
                            v, 2 * hd - 2, "minimal orbit of the folded algebra"))
        else:
            out.append(_res("dims", f"f4:{rec.label} folding a=-2/3",
                            v in g2dims, v, sorted(g2dims),
                            "value lands on an orbit dimension of the folded algebra"))
    # the minimal-orbit series extends to rank-one and rank-two special points
    g = db.lookup("f4", "g")
    for a, name in ((Fraction(-4, 3), "a1"), (Fraction(-1), "a2")):
        rs = rsys.root_system(name)
        want = 2 * rs.dual_coxeter() - 2
        out.append(_res("dims", f"f4:g extension a={a}", g.dim(a) == want,
                        g.dim(a), want, f"minimal orbit of {name}"))
    gsq = db.lookup("f4", "g^2")
    rs = rsys.root_system("a2")
    want = rs.dimension - rs.rank
    out.append(_res("dims", "f4:g^2 extension a=-1", gsq.dim(-1) == want,
                    gsq.dim(-1), want, "regular orbit of a2"))
    return out


def _hasse_checks() -> list[CheckResult]:
    out = []
    for up, dn in db.hasse_edges():
        u = db.lookup("f4", up)
        d = db.lookup("f4", dn)
        ok = all(u.dim(a) > d.dim(a) for a in A_VALUES)
        dims_u = [u.dim(a) for a in A_VALUES]
        dims_d = [d.dim(a) for a in A_VALUES]
        out.append(_res("dims", f"hasse {up} > {dn}", ok, dims_u, dims_d))
    return out


# -- gradings -----------------------------------------------------------------


def _collinear(points: list[tuple[int, int]]) -> bool:
    """True iff the points lie on one line, by integer cross-multiplication."""
    (a0, v0), (a1, v1) = points[0], points[1]
    return all((v - v0) * (a1 - a0) == (v1 - v0) * (a - a0) for a, v in points[2:])


def check_gradings() -> list[CheckResult]:
    out: list[CheckResult] = []
    for rec in db.all_series():
        if rec.exponents is None:
            continue
        tag = f"{rec.row}:{rec.label}"
        a_values = [m.a for m in rec.members if m.family is None]
        gradings = {a: rsys.grading_dims(_diagram_for(rec, a)) for a in a_values}
        levels = sorted({i for g in gradings.values() for i in g if i > 0})
        collinear = True
        for i in levels:
            points = [(a, gradings[a].get(i, 0)) for a in a_values]
            if not _collinear(points):
                collinear = False
                out.append(_res("gradings", f"{tag} level {i} linear in a",
                                False, points, "affine"))
        if collinear:
            out.append(_res("gradings", f"{tag} all levels linear in a", True,
                            f"levels 1..{levels[-1] if levels else 0}", "affine"))
        for i, claim in rec.grading_claims:
            got = [(a, gradings[a].get(i, 0)) for a in a_values]
            want = [(a, claim(a)) for a in a_values]
            out.append(_res("gradings", f"{tag} claim dim g(a,{i}) = {claim}",
                            got == want, got, want))
        if rec.grading_positive_count is not None:
            counts = {a: sum(1 for i, d in gradings[a].items() if i > 0 and d)
                      for a in a_values}
            ok = all(c == rec.grading_positive_count for c in counts.values())
            out.append(_res("gradings", f"{tag} positive levels count",
                            ok, counts, rec.grading_positive_count))
        # desingularization data: base/fiber consistency with the orbit dims
        for a in a_values:
            wd = _diagram_for(rec, a)
            base, fiber = rsys.desing_dims(wd)
            dim_o = int(rec.dim(a))
            ok = base + fiber == dim_o
            if wd.is_even():
                ok = ok and base == fiber
            out.append(_res("gradings", f"{tag} a={a} desingularization",
                            ok, (base, fiber), dim_o,
                            "even diagram: cotangent case" if wd.is_even() else ""))
    return out


# -- errata surface ------------------------------------------------------------


def check_errata() -> list[CheckResult]:
    out = []
    for rec in db.all_series():
        for note in rec.notes:
            out.append(_rec("errata", f"{rec.row}:{rec.label}", note,
                            "correction applied in the registry"))
    return out


# -- orchestration --------------------------------------------------------------


class VerifyConfig(NamedTuple):
    suites: tuple[str, ...] = SUITES
    a_values: tuple[int, ...] = A_VALUES


class VerificationReport(NamedTuple):
    results: tuple[CheckResult, ...]

    @property
    def counts(self) -> dict[str, int]:
        c = {PASS: 0, FAIL: 0, RECORDED: 0}
        for r in self.results:
            c[r.status] += 1
        return c

    @property
    def exit_code(self) -> int:
        return 1 if self.counts[FAIL] else 0

    def as_text(self) -> str:
        lines = []
        width = max(len(r.subject) for r in self.results) if self.results else 0
        for r in self.results:
            lines.append(f"[{r.status:>21s}] {r.subject:<{width}s}  "
                         f"lhs={r.lhs}  rhs={r.rhs}" +
                         (f"  ({r.note})" if r.note else ""))
        c = self.counts
        lines.append(f"-- {c[PASS]} passed, {c[FAIL]} failed, "
                     f"{c[RECORDED]} recorded")
        return "\n".join(lines)

    def as_json(self) -> str:
        """``json.dumps(payload, indent=2, sort_keys=True)`` of ``{"results":
        [r._asdict(), ...], "summary": self.counts}``, written in that layout;
        each string goes through ``encode_basestring_ascii``, the C string
        encoder that ``json.dumps`` calls for a str under ``ensure_ascii``."""
        item = ('    {\n      "lhs": %s,\n      "note": %s,\n      "rhs": %s,\n'
                '      "status": %s,\n      "subject": %s,\n      "suite": %s\n    }')
        results = ",\n".join(item % tuple(map(encode_basestring_ascii, (
            r.lhs, r.note, r.rhs, r.status, r.subject, r.suite))) for r in self.results)
        results = f"[\n{results}\n  ]" if results else "[]"
        summary = ",\n".join(f"    {encode_basestring_ascii(k)}: {v}"
                              for k, v in sorted(self.counts.items()))
        return f'{{\n  "results": {results},\n  "summary": {{\n{summary}\n  }}\n}}'


def check_pointcounts(a_values: Sequence[int] = A_VALUES) -> list[CheckResult]:
    from . import _suites
    return _suites.check_pointcounts(a_values)


def check_characters(a_values: Sequence[int] = A_VALUES) -> list[CheckResult]:
    from . import _suites
    return _suites.check_characters(a_values)


def check_universal() -> list[CheckResult]:
    from . import _suites
    return _suites.check_universal()


def run_all(config: VerifyConfig = VerifyConfig()) -> VerificationReport:
    """The configured suites' results, in the order of SUITES.  A suite or an a
    that would select nothing is refused, a bare string of suites included."""
    for kind, chosen, known in (("suite", config.suites, SUITES),
                                ("a", config.a_values, A_VALUES)):
        unknown = [x for x in chosen if x not in known]
        if unknown:
            raise ValueError(f"unknown {kind} {', '.join(map(repr, unknown))}, "
                             f"not one of {', '.join(map(repr, known))}")
    # looked up per call, where bench/tracing.py may have wrapped them
    checks = {"dims": check_dims, "gradings": check_gradings,
              "pointcounts": lambda: check_pointcounts(config.a_values),
              "characters": lambda: check_characters(config.a_values),
              "universal": check_universal, "errata": check_errata}
    return VerificationReport(tuple(r for suite in SUITES if suite in config.suites
                                    for r in checks[suite]()))
