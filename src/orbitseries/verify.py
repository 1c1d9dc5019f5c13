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

import operator
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

from . import partitions as pt
from . import rootsystems as rsys
from . import seriesdb as db
from .exactpoly import (LinExp, PhiForm, ProductExpr, ZeroExponentError, exact_div,
                        reduce_pair)

PASS = "pass"
FAIL = "fail"
RECORDED = "discrepancy-recorded"

# Constant point-count ratios compatible with the component groups that occur.
ALLOWED_RATIOS = {Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3),
                  Fraction(1, 3), Fraction(6), Fraction(1, 6)}

# The series parameter values; a = 1 entries are recorded, never asserted.
A_VALUES = tuple(db.EXCEPTIONAL_AMBIENTS)

# Sweep bounds of the magic-square checks: orthogonal partitions up to so_10,
# and the (3,1,...,1) closed form up to so_12.
MAGIC_MAX_N = 10
EXAMPLE2_MAX_N = 12


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


@lru_cache(maxsize=None)
def _order_int(spec: db.ReductiveSpec, q: int) -> int:
    val = db.group_order(spec).eval_at(0, q)
    if val.denominator != 1:
        raise ArithmeticError(f"|{spec}(F_{q})| = {val} is not an integer")
    return int(val)


def _diagram_for(rec: db.SeriesRecord, a: int) -> rsys.WeightedDiagram:
    return rec.diagram(db.EXCEPTIONAL_AMBIENTS[a])


# -- dimensions ---------------------------------------------------------------


def check_dims() -> list[CheckResult]:
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
    diagrams = [(0, 0), (0, 1), (1, 0), (2, 0), (2, 2)]
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


# -- point counts -------------------------------------------------------------


@lru_cache(maxsize=None)
def _order_form(spec: db.ReductiveSpec) -> PhiForm:
    return db.group_order(spec).phi_form(0)   # a group order does not depend on a


def _expected_quotient(rec: db.SeriesRecord, m: db.Member) -> PhiForm:
    """|G(F_q)| / (|H(F_q)| q^rad(a)) at m.a, as a quotient of normal forms."""
    return _order_form(m.ambient) / _order_form(m.h) / PhiForm(Fraction(1), rec.rad.t_power(m.a))


def _constant_ratio(f: PhiForm) -> Fraction | None:
    """The value of the form when it is a nonzero constant; None otherwise."""
    return f.constant if f.constant and not f.shift and not f.phis else None


def check_pointcounts(a_values: Sequence[int] = A_VALUES) -> list[CheckResult]:
    out: list[CheckResult] = []
    for rec in db.series_by_row("f4") + db.series_by_row("e6"):
        z = rec.point_count
        for m in rec.members:
            a = m.a
            if a not in a_values:
                continue
            tag = f"{rec.row}:{rec.label} a={a}"
            deg = z.degree_in_q(a)
            out.append(_res("pointcounts", f"{tag} degree", deg == rec.dim(a),
                            deg, rec.dim(a)))
            form = z.phi_form(a)
            poly = form.is_q_polynomial()
            if a == 1:
                out.append(_rec("pointcounts", f"{tag} reduction",
                                "polynomial in q" if poly else "fractional q-powers",
                                "not asserted at a=1",
                                "printed counts hold verbatim only for a >= 2"))
                continue
            out.append(_res("pointcounts", f"{tag} polynomial", poly, poly, True))
            ratio = _constant_ratio(form / _expected_quotient(rec, m))
            if rec.row == "e6":
                # the explicit counts: integral values, quotient exactly 1
                vals = [form.value_at(q) for q in (2, 3, 5)] if poly else []
                ok = poly and all(v.denominator == 1 and v > 0 for v in vals)
                out.append(_res("pointcounts", f"{tag} integral at q=2,3,5", ok,
                                [str(v) for v in vals], "positive integers"))
                out.append(_res("pointcounts", f"{tag} group-order quotient",
                                ratio == 1, f"ratio {ratio}", "1"))
                continue
            trivial = rec.fundamental_group == "trivial"
            out.append(_res("pointcounts", f"{tag} group-order quotient",
                            ratio == 1 if trivial else ratio in ALLOWED_RATIOS,
                            f"ratio {ratio}", "1" if trivial else "allowed constant",
                            f"fundamental group {rec.fundamental_group}"))
    return out


# -- characters ---------------------------------------------------------------


def _char_expr(rec: db.SeriesRecord, formula: db.CharacterFormula,
               a: int) -> ProductExpr:
    # characters live only in the f4 and e6 rows, whose ambient at a is the
    # exceptional one; a = 1 is evaluated formally against the folded algebra
    return formula.expr(rsys.algebra(db.EXCEPTIONAL_AMBIENTS[a]).num_positive_roots)


def _char_form(rec: db.SeriesRecord, formula: db.CharacterFormula, a: int) -> PhiForm:
    """The normal form of ``_char_expr`` at a: the body's times q^(N - shift(a))."""
    n = rsys.algebra(db.EXCEPTIONAL_AMBIENTS[a]).num_positive_roots
    return formula.body.phi_form(a) * PhiForm(Fraction(1), 4 * n - formula.shift.t_power(a))


def check_characters(a_values: Sequence[int] = A_VALUES) -> list[CheckResult]:
    out: list[CheckResult] = []
    for rec in db.all_series():
        if not rec.characters:
            continue
        summed: dict[int, list[PhiForm]] = {}
        for formula in rec.characters:
            for a in formula.a_values:
                if a not in a_values:
                    continue
                tag = f"{rec.row}:{rec.label} [{formula.name}] a={a}"
                form = _char_form(rec, formula, a)
                poly = form.is_q_polynomial()
                out.append(_res("characters", f"{tag} polynomial", poly, poly, True))
                if not poly:
                    continue
                if formula.doubled_at == a:
                    # each half is one of two equal contributions; the actual
                    # degree is their sum, checked once below
                    summed.setdefault(a, []).append(form)
                    continue
                out.extend(_degree_value_checks(tag, rec, a, (form,)))
        for a, halves in summed.items():
            tag = f"{rec.row}:{rec.label} [pair sum] a={a}"
            # a single formula stands for both halves
            out.extend(_degree_value_checks(tag, rec, a, (halves[0], halves[-1])))
        if rec.row == "f4" and 1 in a_values:
            out.extend(_a1_character_records(rec))
        out.extend(_named_degree_checks(rec, a_values))
        out.extend(_pair_equality_checks(rec, a_values))
    if 8 in a_values:
        out.extend(_epsilon_pair_record())
    return out


def _degree_value_checks(tag: str, rec: db.SeriesRecord, a: int,
                         forms: Sequence[PhiForm]) -> list[CheckResult]:
    """Checks on the degree that is the sum of the forms, a polynomial in q."""
    out = []
    order = {q: _order_int(rec.member(a).ambient, q) for q in (2, 3, 5)}
    vals = {q: sum(f.value_at(q) for f in forms) for q in (2, 3, 5)}
    ok_int = all(v.denominator == 1 and v > 0 for v in vals.values())
    out.append(_res("characters", f"{tag} integral at q=2,3,5", ok_int,
                    {q: str(v) for q, v in vals.items()}, "positive integers"))
    ok_div = ok_int and all(order[q] % int(v) == 0 for q, v in vals.items())
    out.append(_res("characters", f"{tag} divides |G(F_q)|", ok_div, ok_div, True))
    return out


def _a1_character_records(rec: db.SeriesRecord) -> list[CheckResult]:
    out = []
    for formula in rec.characters:
        if formula.a_values != (2, 4, 8):
            continue
        tag = f"f4:{rec.label} [{formula.name}] a=1"
        try:
            poly = _char_form(rec, formula, 1).is_q_polynomial()
            out.append(_rec("characters", tag,
                            "polynomial in q" if poly else "fractional q-powers",
                            "not asserted at a=1",
                            "degree expressions hold only for a >= 2"))
        except ZeroExponentError as e:
            out.append(_rec("characters", tag, f"degenerate: {e}",
                            "not asserted at a=1"))
    return out


def _named_degree_checks(rec: db.SeriesRecord, a_values) -> list[CheckResult]:
    out = []
    for nd in rec.named_degrees:
        if nd.a not in a_values:
            continue
        formula = next(f for f in rec.characters if f.name == nd.variant)
        form = _char_form(rec, formula, nd.a)
        if formula.doubled_at == nd.a:
            form = form * PhiForm(Fraction(2))
        tag = f"{rec.row}:{rec.label} {nd.label} a={nd.a}"
        dim = form.value_at(1)
        out.append(_res("characters", f"{tag} dimension", dim == nd.weyl_dim,
                        dim, nd.weyl_dim, "value of the degree at q=1"))
        low = form.low_degree_in_q()
        out.append(_rec("characters", f"{tag} valuation",
                        f"lowest power {low}", f"printed index {nd.b_index}",
                        "equal exactly when the character is special"))
        if nd.display is not None:
            num = form.polynomial()
            disp = nd.display.reduce_to_polynomial(0)
            out.append(_res("characters", f"{tag} explicit degree",
                            num == disp, str(num)[:60] + "...",
                            str(disp)[:60] + "...",
                            "generic specialization equals the printed degree"))
    return out


def _pair_equality_checks(rec: db.SeriesRecord, a_values) -> list[CheckResult]:
    if rec.row != "e6":
        return []
    out = []
    pairs = [f for f in rec.characters if f.doubled_at is not None]
    if not pairs:
        return out
    first, second = pairs[0], pairs[-1]
    a0 = pairs[0].doubled_at
    if a0 in a_values:
        e1 = _char_expr(rec, first, a0).reduce_to_polynomial(a0)
        if len(pairs) == 1:
            # a single formula covers both characters of the pair: check its
            # cyclotomic reduction against the division route
            e2 = exact_div(*_char_expr(rec, second, a0).expand(a0))
        else:
            e2 = _char_expr(rec, second, a0).reduce_to_polynomial(a0)
        out.append(_res("characters",
                        f"e6:{rec.label} pair equality at first member (a={a0})",
                        e1 == e2, str(e1)[:50] + "...", str(e2)[:50] + "...",
                        "the unique character is the sum of the two equal halves"))
    if 1 not in a_values:
        return out
    # formal a=1 comparison, recorded: the printed remark attaches the
    # coincidence to the first member, not to a literal a=1 evaluation
    try:
        # normal forms are equal exactly when the rational functions are
        equal = _char_form(rec, first, 1) == _char_form(rec, second, 1)
        out.append(_rec("characters", f"e6:{rec.label} pair comparison at a=1",
                        "equal" if equal else "not equal",
                        "recorded only",
                        "formal evaluation outside the series members"))
    except ZeroExponentError as e:
        out.append(_rec("characters", f"e6:{rec.label} pair comparison at a=1",
                        f"degenerate: {e}", "recorded only"))
    return out


def _epsilon_pair_record() -> list[CheckResult]:
    rec = db.lookup("f4", "gQ^2")
    plus = next(f for f in rec.characters if f.name == "eps=+1")
    minus = next(f for f in rec.characters if f.name == "eps=-1")
    base = next(f for f in rec.characters if f.name == "principal")
    p1, p2, b = (_char_form(rec, f, 8).polynomial() for f in (plus, minus, base))
    num, den = reduce_pair(p1 + p2, b)
    return [_rec("characters", "f4:gQ^2 eps pair sum vs base degree",
                 f"({num})/({den})", "rational, not polynomial",
                 "sum of the two split degrees over the unsplit expression")]


# -- universal orbits and the magic square ------------------------------------


_SIMPLE_TYPES = tuple(
    [rsys.AlgebraType("A", n) for n in range(1, 9)] +
    [rsys.AlgebraType("B", n) for n in range(2, 9)] +
    [rsys.AlgebraType("C", n) for n in range(2, 9)] +
    [rsys.AlgebraType("D", n) for n in range(4, 9)] +
    [rsys.AlgebraType("G", 2), rsys.AlgebraType("F", 4),
     rsys.AlgebraType("E", 6), rsys.AlgebraType("E", 7), rsys.AlgebraType("E", 8)])


def check_universal() -> list[CheckResult]:
    out: list[CheckResult] = []
    for alg in _SIMPLE_TYPES:
        rs = rsys.build_root_system(alg)
        got = rsys.orbit_dim_from_diagram(rsys.minimal_orbit_diagram(rs))
        want = 2 * rs.dual_coxeter() - 2
        out.append(_res("universal", f"minimal orbit {alg}", got == want,
                        got, want, "2*(dual Coxeter) - 2"))
    # corollary formulas against the series tables, symbolic in a
    hdual = LinExp(6, 3)   # dual Coxeter numbers 9, 12, 18, 30 along the row
    claims = [("g2", "sigma_(1)", 4 * hdual - 5),
              ("g^2", "sigma_(3)", 4 * hdual - 9),
              ("gQ", "sigma_Q", 4 * hdual - 5 - LinExp(4, 1))]
    for label, name, formula in claims:
        rec = db.lookup("f4", label)
        offset = formula - rec.dim
        out.append(_rec("universal", f"{name} corollary vs series {label}",
                        f"formula {formula}", f"series dim {rec.dim}",
                        f"offset {offset}; recorded, not asserted"))
    # sigma_(1) diagrams agree with the series diagrams where both exist
    for a, name in db.EXCEPTIONAL_AMBIENTS.items():
        rs = rsys.root_system(name)
        d1 = rsys.sigma1_diagram(rs)
        d2 = rsys.series_weight_to_diagram(0, 1, 0, 0, name)
        out.append(_res("universal", f"sigma_(1) diagram {name}",
                        d1 == d2, d1.labels, d2.labels))
        d3 = rsys.sigma3_diagram(rs)
        d4 = rsys.series_weight_to_diagram(2, 0, 0, 0, name)
        out.append(_res("universal", f"sigma_(3) diagram {name}",
                        d3 == d4, d3.labels, d4.labels))
    for name in ("b3", "d4", "d5", "g2"):
        rs = rsys.root_system(name)
        got = rsys.orbit_dim_from_diagram(rsys.sigma1_diagram(rs))
        formula = 4 * rs.dual_coxeter() - 5
        out.append(_rec("universal", f"sigma_(1) {name} vs corollary",
                        got, formula, f"offset {formula - got}"))
    for name in ("a3", "c3"):
        try:
            rsys.sigma1_diagram(rsys.root_system(name))
            out.append(_res("universal", f"sigma_(1) {name} rejected", False,
                            "no error", "AdjointNotFundamental"))
        except rsys.AdjointNotFundamentalError:
            out.append(_res("universal", f"sigma_(1) {name} rejected", True,
                            "AdjointNotFundamental", "AdjointNotFundamental"))
    out.extend(_extension_checks())
    out.extend(_magic_square_checks())
    return out


def _extension_checks() -> list[CheckResult]:
    out = []
    cases = [
        (pt.Family("sl", 3), pt.partition(2, 1)),
        (pt.Family("sl", 5), pt.partition(3, 2)),
        (pt.Family("so", 7), pt.partition(2, 2, 1, 1, 1)),
        (pt.Family("so", 8), pt.partition(3, 2, 2, 1)),
        (pt.Family("sp", 6), pt.partition(2, 2, 1, 1)),
        (pt.Family("sp", 4), pt.partition(2, 2)),
    ]
    ts = [0, 1, 2, 3]
    for fam, p in cases:
        dims = pt.extend_by_zeros_dims(p, fam, ts)
        points = list(zip(ts, dims))
        linear = _collinear(points)
        tag = f"extend {fam.tag} {p}"
        out.append(_res("universal", f"{tag} linear in t", linear, dims, "affine"))
        if not linear:
            continue
        slope = Fraction(dims[1] - dims[0], ts[1] - ts[0])
        printed = pt.printed_extension_slope(p, fam)
        if fam.kind == "sl":
            out.append(_res("universal", f"{tag} printed slope", slope == printed,
                            slope, printed))
        else:
            out.append(_rec("universal", f"{tag} printed slope",
                            f"oracle slope {slope}", f"printed {printed}",
                            "matches" if slope == printed else
                            "printed three-quarter term does not reproduce the oracle"))
    return out


# a partition's parts and the invariants it keeps, so that a partition built
# by one route is compared with one built by another field by field
_invariants = operator.attrgetter("parts", "_size", "_tsq", "_odd", "_odd_mult")


def _magic_square_checks() -> list[CheckResult]:
    out = []
    cells = [(a, b) for a in (1, 2, 4) for b in (1, 2, 4)]
    total = 0
    failures, mism, bad = [], [], []
    for n in range(4, MAGIC_MAX_N + 1):
        for p in pt.valid_partitions(pt.Family("so", n)):
            data, want = {}, {}
            for cell in cells:
                data[cell] = pt.propagate_from_so(p, cell, n)
                want[cell] = pt.magic_dim_formula(p, *cell)
                got = pt.orbit_dim_classical(data[cell], pt.magic_family(*cell, n))
                total += 1
                if got != want[cell]:
                    failures.append((n, p.parts, cell, got, want[cell]))
            # path independence: sp_2n reached through (2,1) and through
            # (1,2), and sl_2n through sp_2n, each against p's parts twice as
            # the sorting constructor builds and counts them; sl_2n through
            # 2sl_n against the pair's parts joined the same way
            left, right = data[2, 2]
            routes = [(data[4, 1], p.parts * 2), (data[1, 4], p.parts * 2),
                      (pt.propagate(data[4, 1], (4, 1), (4, 2), n), p.parts * 2),
                      (pt.propagate(data[2, 2], (2, 2), (2, 4), n), left.parts + right.parts)]
            if any(_invariants(q) != _invariants(pt.Partition(parts)) for q, parts in routes):
                mism.append((n, p.parts))
            # row restriction is affine in a for fixed b
            for b in (1, 2, 4):
                if not _collinear([(a, want[a, b]) for a in (1, 2, 4)]):
                    bad.append((n, p.parts, b))
    out.append(_res("universal", f"magic square bilinear formula (n<={MAGIC_MAX_N})",
                    not failures, f"{total} cases checked",
                    "propagated dims equal the closed form",
                    str(failures[:3]) if failures else ""))
    out.append(_res("universal", "magic square path independence", not mism,
                    "all chart paths agree", "agree", str(mism[:3])))
    out.append(_res("universal", "magic square rows linear in a", not bad,
                    "fixed-b restrictions affine", "affine", str(bad[:3])))
    # example 2 closed form
    bad = []
    for n in range(4, EXAMPLE2_MAX_N + 1):
        p = pt.Partition((3,) + (1,) * (n - 3))
        for a, b in cells:
            want = pt.example2_formula(n, a, b)
            got = pt.magic_dim_formula(p, a, b)
            prop = pt.orbit_dim_classical(pt.propagate_from_so(p, (a, b), n),
                                          pt.magic_family(a, b, n))
            if not (got == want == prop):
                bad.append((n, a, b, got, want, prop))
    out.append(_res("universal", f"magic square example (3,1,...,1) n<={EXAMPLE2_MAX_N}",
                    not bad, "2(ab(n-2)+a+b-2)", "propagated dims", str(bad[:3])))
    # example 1: printed regular-orbit form, recorded
    for n in (7, 8):
        p = pt.regular_so_partition(n)
        diffs = {}
        for a, b in cells:
            printed = pt.example1_formula(n, a, b)
            prop = pt.magic_dim_formula(p, a, b)
            diffs[(a, b)] = printed - prop
        out.append(_rec("universal", f"regular so{n} printed closed form",
                        f"printed minus propagated: {diffs[(1, 1)]} at (1,1), "
                        f"{diffs[(2, 2)]} at (2,2), {diffs[(4, 4)]} at (4,4)",
                        "printed form does not match the bilinear route",
                        "oracle values are authoritative"))
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
    suites: tuple[str, ...] = ("dims", "gradings", "pointcounts", "characters",
                               "universal", "errata")
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


def run_all(config: VerifyConfig = VerifyConfig()) -> VerificationReport:
    results: list[CheckResult] = []
    if "dims" in config.suites:
        results.extend(check_dims())
    if "gradings" in config.suites:
        results.extend(check_gradings())
    if "pointcounts" in config.suites:
        results.extend(check_pointcounts(config.a_values))
    if "characters" in config.suites:
        results.extend(check_characters(config.a_values))
    if "universal" in config.suites:
        results.extend(check_universal())
    if "errata" in config.suites:
        results.extend(check_errata())
    return VerificationReport(tuple(results))
