"""The point-count, character and universal suites; ``verify`` loads them."""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import partitions as pt
from . import rootsystems as rsys
from . import seriesdb as db
from ._expr import LinExp, ProductExpr, ZeroExponentError, arithmetic
from .verify import A_VALUES, CheckResult, _collinear, _rec, _res

# Constant point-count ratios compatible with the component groups that occur.
ALLOWED_RATIOS = {Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3),
                  Fraction(1, 3), Fraction(6), Fraction(1, 6)}

# Sweep bounds of the magic-square checks: orthogonal partitions up to so_10,
# and the (3,1,...,1) closed form up to so_12.
MAGIC_MAX_N = 10
EXAMPLE2_MAX_N = 12


# -- point counts -------------------------------------------------------------


@lru_cache(maxsize=None)
def _order_form(spec: db.ReductiveSpec) -> PhiForm:
    return db.group_order(spec).phi_form(0)   # a group order does not depend on a


@lru_cache(maxsize=None)
def _order_int(spec: db.ReductiveSpec, q: int) -> int:
    val = _order_form(spec).value_at(q)
    if val.denominator != 1:
        raise ArithmeticError(f"|{spec}(F_{q})| = {val} is not an integer")
    return int(val)


def _expected_quotient(rec: db.SeriesRecord, m: db.Member) -> PhiForm:
    """|G(F_q)| / (|H(F_q)| q^rad(a)) at m.a, as a quotient of normal forms."""
    radical = arithmetic().PhiForm(Fraction(1), rec.rad.t_power(m.a))
    return _order_form(m.ambient) / _order_form(m.h) / radical


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
    power = arithmetic().PhiForm(Fraction(1), 4 * n - formula.shift.t_power(a))
    return formula.body.phi_form(a) * power


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
            form = form * arithmetic().PhiForm(Fraction(2))
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
            disp = nd.display.phi_form(0).polynomial()
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
        e1 = _char_form(rec, first, a0).polynomial()
        if len(pairs) == 1:
            # a single formula covers both characters of the pair: check its
            # cyclotomic reduction against the division route
            e2 = arithmetic().exact_div(*_char_expr(rec, second, a0).expand(a0))
        else:
            e2 = _char_form(rec, second, a0).polynomial()
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
    num, den = arithmetic().reduce_pair(p1 + p2, b)
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
