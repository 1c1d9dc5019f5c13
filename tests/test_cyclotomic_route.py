"""Differential tests: the cyclotomic normal-form route against the division
route (expand, then gcd and exact division) and against sympy.cancel, on
every (expression, a) the registry yields."""

from fractions import Fraction

import pytest

from orbitseries import seriesdb as db
from orbitseries.exactpoly import (Cyclo, QLaurent, ZeroExponentError,
                                   _phi_product, _t_power, pexpr, reduce_pair)
from orbitseries.verify import (_char_expr, _constant_ratio, _expected_quotient,
                                _order_int)


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


def test_integer_t_powers_equal_the_fraction_route():
    exponents = {e for expr, _ in CASES for e in [expr.prefactor_exponent] +
                 [f.exponent for f, _ in expr.factors if isinstance(f, Cyclo)]}
    assert len(exponents) > 100
    for e in exponents:
        for a in (1, 2, 4, 8, Fraction(1, 2), Fraction(-7, 3)):
            try:
                want = _t_power(e(a))
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    e.t_power(a)
                assert str(got.value) == str(err)
                continue
            assert e.t_power(a) == want and type(e.t_power(a)) is int, (str(e), a)


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


# -- the cached leaves against their uncached forms ----------------------------


def test_cached_phi_forms_equal_uncached():
    for expr, a in _reducible(CASES):
        for factor, _ in expr.factors:
            if isinstance(factor, Cyclo):
                # each factor's normal form multiplies back out to q^e -+ 1
                num, den = factor.phi_form(a).pair()
                assert den == QLaurent.one() and num == factor.value_at(a)
        phis = expr.phi_form(a).phis
        for key in (tuple((d, m) for d, m in phis if m > 0),
                    tuple((d, -m) for d, m in phis if m < 0)):
            assert _phi_product(key) == _phi_product.__wrapped__(key)


def test_cached_group_orders_equal_uncached():
    specs = {m.ambient for rec in db.all_series() for m in rec.members}
    for spec in specs:
        for q in (2, 3, 5):
            want = db.group_order(spec).eval_at(0, q)
            assert want.denominator == 1 and _order_int(spec, q) == want


def test_constant_ratio_equals_the_reduced_pair():
    quotients = [(rec.point_count / _expected_quotient(rec, m), m.a)
                 for rec in db.series_by_row("f4") + db.series_by_row("e6")
                 for m in rec.members if m.a != 1]
    assert len(quotients) == 60
    # and a zero, two constants, and values with a power of q or not constant
    others = [(pexpr(0, 1), 2), (pexpr(3, 1), 2), (pexpr(1, 0, num=[2]), 2),
              (pexpr(Fraction(1, 2), 0, num=[2], den=[1], num_plus=[1]), 2),
              (pexpr(Fraction(1, 2), 0, num=[2], den=[1], den_plus=[1]), 2),
              (pexpr(-3, 0, num=[Fraction(1, 2)], den=[Fraction(1, 2)]), 2),
              (pexpr(-1, "a/4", num=["a/4"], den=[1]), 4)]
    for expr, a in quotients + others:
        num, den = expr.reduced(a)
        constant = den == QLaurent.one() and list(num.coeffs) == [0]
        assert _constant_ratio(expr, a) == (num.coeffs[0] if constant else None)
