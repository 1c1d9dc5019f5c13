"""Differential tests: the cyclotomic normal-form route against the division
route (expand, then gcd and exact division) and against sympy.cancel, on
every (expression, a) the registry yields."""

from fractions import Fraction

import pytest

from orbitseries import seriesdb as db
from orbitseries.exactpoly import (Cyclo, QLaurent, ZeroExponentError,
                                   reduce_pair)
from orbitseries.verify import _char_expr


def _registry_cases():
    cases = []
    for rec in db.series_by_row("f4"):
        cases += [(db.MASTER_POINTCOUNT / rec.pointcount_Y, a) for a in (1, 2, 4, 8)]
    for rec in db.series_by_row("e6"):
        cases += [(rec.pointcount, a) for a in (1, 2, 4, 8)]
    for rec in db.all_series():
        for formula in rec.characters:
            # a = 1 is kept here and skipped below where it degenerates
            cases += [(_char_expr(rec, formula, a), a) for a in formula.a_values + (1,)]
        cases += [(nd.display, 0) for nd in rec.named_degrees if nd.display is not None]
        for m in rec.members:
            cases += [(db.group_order(m.ambient), 0), (db.group_order(m.h), 0)]
    return list(dict.fromkeys(cases))   # distinct, in first-seen order


CASES = _registry_cases()


def _reducible(cases):
    out = []
    for expr, a in cases:
        try:
            expr.phi_form(a)
        except ZeroExponentError:
            continue
        out.append((expr, a))
    return out


def test_registry_coverage():
    assert len(CASES) == 233
    reducible = set(_reducible(CASES))
    degenerate = [(e, a) for e, a in CASES if (e, a) not in reducible]
    # only formal a = 1 evaluations of character formulas degenerate
    assert degenerate and all(a == 1 for _, a in degenerate)


def test_cyclotomic_route_equals_division_route():
    for expr, a in CASES:
        try:
            want = reduce_pair(*expr.expand(a))
        except ZeroExponentError as err:
            with pytest.raises(ZeroExponentError) as got:
                expr.reduced(a)
            assert str(got.value) == str(err)
            continue
        got = expr.reduced(a)
        assert got == want, (str(expr), a)
        assert str(got[0]) == str(want[0]) and str(got[1]) == str(want[1])


def test_cyclotomic_route_equals_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    def laurent(p):
        return sum(rational(c) * t ** k for k, c in p.coeffs.items())

    def to_sympy(expr, a):
        out = rational(expr.constant) * t ** int(4 * expr.prefactor_exponent(a))
        for factor, mult in expr.factors:
            if isinstance(factor, Cyclo):
                base = t ** int(4 * factor.exponent(a)) - factor.sign
            else:
                base = laurent(factor.value)
            out *= base ** mult
        return out

    def to_qlaurent(poly, shift, scale):
        return QLaurent({k - shift: Fraction(int(c.p), int(c.q)) / scale
                         for (k,), c in poly.terms()})

    for expr, a in _reducible(CASES):
        n, d = sympy.fraction(sympy.cancel(to_sympy(expr, a)))
        n, d = sympy.Poly(n, t), sympy.Poly(d, t)
        # move the t-power of d into a Laurent numerator and make d monic
        low = min(k for (k,), _ in d.terms())
        lead = d.LC()
        scale = Fraction(int(lead.p), int(lead.q))
        want = to_qlaurent(n, low, scale), to_qlaurent(d, low, scale)
        assert expr.reduced(a) == want, (str(expr), a)


def test_eval_at_equals_division_route_values():
    for expr, a in _reducible(CASES):
        num, den = expr.expand(a)
        if not (num.is_laurent_in_q() and den.is_laurent_in_q()):
            continue
        for q in (2, 3):
            assert expr.eval_at(a, q) == num.eval_at(q) / den.eval_at(q), (str(expr), a, q)
