"""Differential tests: the cyclotomic normal-form route against the division
route (expand, then gcd and exact division) and against sympy's polynomial
gcd over the integers, on every (expression, a) the registry yields."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitseries import _suites
from orbitseries import seriesdb as db
from orbitseries import verify
from orbitseries.exactpoly import (Cyclo, FractionalPowerError, PhiForm, ProductExpr,
                                   QLaurent, ZeroExponentError, _binomial_exponents,
                                   _phi_product, _t_power, pexpr, reduce_pair)
from orbitseries._suites import (_char_expr, _char_form, _constant_ratio, _expected_quotient,
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


def _by_fractions(e, a):
    return e.c0 + e.c1 * Fraction(a)


def test_degree_in_q_equals_the_fraction_route():
    for expr in dict.fromkeys(expr for expr, _ in CASES):
        for a in (0, 1, 2, 4, 8):
            want = _by_fractions(expr.prefactor_exponent, a)
            vanishing = None
            for factor, mult in expr.factors:
                if not isinstance(factor, Cyclo):
                    want += factor.value.degree_in_q() * mult
                    continue
                e = _by_fractions(factor.exponent, a)
                if factor.sign == 1 and e == 0:
                    vanishing = f"factor q^({factor.exponent}) - 1 vanishes at a={a}"
                    break
                want += max(e, Fraction(0)) * mult
            if vanishing:
                with pytest.raises(ZeroExponentError) as got:
                    expr.degree_in_q(a)
                assert str(got.value) == vanishing
                continue
            got = expr.degree_in_q(a)
            assert got == want and type(got) is Fraction, (str(expr), a)


def test_linexp_values_equal_the_fraction_route():
    exponents = {e for expr, _ in CASES for e in [expr.prefactor_exponent] +
                 [f.exponent for f, _ in expr.factors if isinstance(f, Cyclo)]}
    for rec in db.all_series():
        exponents |= {rec.dim, rec.rad} | {c for _, c in rec.grading_claims}
        exponents |= {c.shift for c in rec.characters}
    assert len(exponents) > 150
    for e in exponents:
        for a in (0, 1, 2, 4, 8, Fraction(-2, 3)):
            got = e(a)
            assert got == _by_fractions(e, a) and type(got) is Fraction, (str(e), a)


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
    # the cancellation sympy.cancel would do, as integer Polys: multiply out
    # both sides, divide each by their gcd, make the denominator monic
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def t_power(e):
        big_e = 4 * e
        assert big_e.denominator == 1, f"exponent {e} is off the quarter lattice"
        return int(big_e)

    def poly(coeffs):   # lowest power first, integers only
        return sympy.Poly(coeffs[::-1], t, domain=sympy.ZZ)

    def shifted_poly(factor, a):
        """(s, p) with factor = t^s * p(t), p an integer polynomial with
        nonzero constant term."""
        if isinstance(factor, Cyclo):
            big_e = t_power(factor.exponent(a))
            if big_e == 0:
                return 0, poly([1 - factor.sign])
            if big_e > 0:   # t^E - sign
                return 0, poly([-factor.sign] + [0] * (big_e - 1) + [1])
            # t^E - sign = t^E * (1 - sign * t^-E)
            return big_e, poly([1] + [0] * (-big_e - 1) + [-factor.sign])
        coeffs = factor.value.coeffs
        for c in coeffs.values():
            assert c.denominator == 1, f"literal coefficient {c} is not an integer"
        low, high = min(coeffs), max(coeffs)
        return low, poly([int(coeffs.get(k, 0)) for k in range(low, high + 1)])

    def to_qlaurent(p, shift, scale):
        deg = p.degree()
        return QLaurent({shift + deg - i: scale * int(c)
                         for i, c in enumerate(p.all_coeffs()) if c})

    for expr, a in _reducible(CASES):
        shift = t_power(expr.prefactor_exponent(a))
        num, den = poly([1]), poly([1])
        for factor, mult in expr.factors:
            s, p = shifted_poly(factor, a)
            shift += s * mult
            if mult > 0:
                num *= p ** mult
            else:
                den *= p ** -mult
        g = num.gcd(den)
        num, den = num.exquo(g), den.exquo(g)
        # both have nonzero constant terms, so the t-power stays in the
        # numerator; scale to the monic denominator
        lead = int(den.LC())
        want = (to_qlaurent(num, shift, expr.constant / lead),
                to_qlaurent(den, 0, Fraction(1, lead)))
        assert expr.reduced(a) == want, (str(expr), a)


def test_eval_at_equals_division_route_values():
    # every reducible case at the fourth powers 16 and 81, where the division
    # route reads quarter powers of q, and at 2 and 3 where it has none
    seen = Counter()
    for expr, a in _reducible(CASES):
        num, den = expr.expand(a)
        form = expr.phi_form(a)
        if not all(p.is_laurent_in_q() for p in form.pair()):
            seen["fractional"] += 1
            for q in (2, 3, 16, 81):
                with pytest.raises(FractionalPowerError):
                    form.value_at(q)
            continue
        whole = num.is_laurent_in_q() and den.is_laurent_in_q()
        seen["whole" if whole else "cancelled"] += 1
        for q in (16, 81) + ((2, 3) if whole else ()):
            assert form.value_at(q) == num.eval_at(q) / den.eval_at(q), (str(expr), a, q)
    assert seen == {"whole": 171, "cancelled": 14, "fractional": 43}


# -- the cached leaves against their uncached forms ----------------------------


def test_cached_phi_forms_equal_uncached():
    for expr, a in _reducible(CASES):
        for factor, _ in expr.factors:
            if isinstance(factor, Cyclo):
                # each factor's normal form multiplies back out to q^e -+ 1
                num, den = ProductExpr(factors=((factor, 1),)).phi_form(a).pair()
                assert den == QLaurent.one() and num == factor.value_at(a)
        phis = expr.phi_form(a).phis
        for key in (tuple((d, m) for d, m in phis if m > 0),
                    tuple((d, -m) for d, m in phis if m < 0)):
            assert _phi_product(key) == _phi_product.__wrapped__(key)


def test_cached_group_orders_equal_uncached():
    specs = {m.ambient for rec in db.all_series() for m in rec.members}
    for spec in specs:
        for q in (2, 3, 5):
            num, den = db.group_order(spec).expand(0)   # the division route
            want = num.eval_at(q) / den.eval_at(q)
            assert want.denominator == 1 and _order_int(spec, q) == want


def test_memoized_group_orders_equal_unmemoized():
    specs = {spec for rec in db.all_series() for m in rec.members
             for spec in (m.ambient, m.h)}
    assert len(specs) > 30
    for spec in specs:
        want = db._group_order.__wrapped__(spec.factors, spec.torus_rank)
        got = db.group_order(spec)
        assert got == want and hash(got) == hash(want), spec.name
        assert db.group_order(spec) is got


def test_group_order_of_a_list_built_spec():
    g2 = db.algebra("g2")
    got = db.group_order(db.ReductiveSpec([g2, g2], 1))
    assert got is db.group_order(db.ReductiveSpec((g2, g2), 1, "2g2+T1"))
    assert got == db.group_order(db.reductive("2g2+T1"))


def test_constant_ratio_equals_the_reduced_pair():
    members = [(rec, m) for rec in db.series_by_row("f4") + db.series_by_row("e6")
               for m in rec.members if m.a != 1]
    quotients = []
    for rec, m in members:
        expected = db.group_order(m.ambient) / (db.group_order(m.h) * pexpr(1, rec.rad(m.a)))
        expr = rec.point_count / expected
        # the verifier divides normal forms; here the product expressions
        assert rec.point_count.phi_form(m.a) / _expected_quotient(rec, m) == expr.phi_form(m.a)
        quotients.append((expr, m.a))
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
        assert _constant_ratio(expr.phi_form(a)) == (num.coeffs[0] if constant else None)


# -- the normal-form readings against the multiplied-out pair -----------------


def _checked_forms():
    """Every form whose readings the point-count, character and named-degree
    checks take, built as the verifier builds it."""
    forms = []
    for rec in db.series_by_row("f4") + db.series_by_row("e6"):
        for m in rec.members:
            z = rec.point_count.phi_form(m.a)
            forms.append(z)
            if m.a != 1:
                forms.append(z / _expected_quotient(rec, m))
    for rec in db.all_series():
        for formula in rec.characters:
            for a in formula.a_values + ((1,) if rec.row == "f4" else ()):
                try:
                    forms.append(_char_form(rec, formula, a))
                except ZeroExponentError:
                    assert a == 1
        for nd in rec.named_degrees:
            formula = next(f for f in rec.characters if f.name == nd.variant)
            form = _char_form(rec, formula, nd.a)
            forms.append(form * PhiForm(Fraction(2)) if formula.doubled_at == nd.a else form)
    return forms


def test_char_form_is_the_normal_form_of_the_character_expression():
    cases = 0
    for rec in db.all_series():
        for formula in rec.characters:
            for a in formula.a_values + (1,):
                try:
                    want = _char_expr(rec, formula, a).phi_form(a)
                except ZeroExponentError as err:
                    with pytest.raises(ZeroExponentError) as got:
                        _char_form(rec, formula, a)
                    assert str(got.value) == str(err)
                    continue
                assert _char_form(rec, formula, a) == want, (rec.label, formula.name, a)
                cases += 1
    assert cases > 100


def _assert_readings_equal_the_pair(form):
    num, den = form.pair()
    assert form.is_q_polynomial() == (den == QLaurent.one() and num.is_q_polynomial()), form
    for q in (2, 3, 5):
        try:
            want = num.eval_at(q) / den.eval_at(q)
        except FractionalPowerError:
            with pytest.raises(FractionalPowerError):
                form.value_at(q)
            continue
        got = form.value_at(q)
        assert got == want and type(got) is Fraction, (form, q)
    at_one = den.content * sum(den.c)
    if at_one:
        assert form.value_at(1) == num.content * sum(num.c) / at_one, form
    else:
        with pytest.raises(ZeroDivisionError):
            form.value_at(1)
    if form.constant:
        assert form.low_degree_in_q() == Fraction(num.t_low_degree(), 4), form


def test_readings_of_every_checked_form_equal_the_multiplied_out_pair():
    forms = _checked_forms()
    assert len(forms) > 250
    # both answers of the polynomial test occur, and forms off the q-lattice
    assert {f.is_q_polynomial() for f in forms} == {True, False}
    assert any(n % 4 for f in forms for n, _ in _binomial_exponents(f.phis))
    for form in forms:
        _assert_readings_equal_the_pair(form)


_FORMS = st.builds(
    lambda constant, shift, mults: PhiForm(constant, shift, tuple(sorted(mults.items())))
    if constant else PhiForm(constant),
    st.fractions(-20, 20, max_denominator=12),
    st.integers(-13, 13),    # t-powers on and off the q-lattice
    st.dictionaries(st.integers(1, 40), st.integers(-3, 3).filter(bool), max_size=4))


@settings(max_examples=300, deadline=None)
@given(_FORMS)
def test_readings_of_random_forms_equal_the_multiplied_out_pair(form):
    _assert_readings_equal_the_pair(form)


@settings(max_examples=150, deadline=None)
@given(_FORMS, _FORMS)
def test_products_and_quotients_of_forms(f, g):
    product = f * g
    assert product == g * f
    for q in (1, 2, 3):
        try:
            want = f.value_at(q) * g.value_at(q)
        except (ZeroDivisionError, FractionalPowerError):   # a pole at q = 1, or q^(1/4)
            continue
        assert product.value_at(q) == want, (f, g, q)
    if g.constant:
        assert (f / g) * g == f
        assert f / g == f * (PhiForm(Fraction(1)) / g)
    else:
        with pytest.raises(ZeroDivisionError):
            f / g


def test_a_quotient_by_an_int_constant_stays_exact():
    got = PhiForm(Fraction(3), 4, ((1, 1),)) / PhiForm(2, 0, ((1, 1),))
    assert got == PhiForm(Fraction(3, 2), 4) and type(got.constant) is Fraction


def test_a_full_verify_multiplies_out_only_the_printed_polynomials(monkeypatch):
    calls = Counter()

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for cls, name in ((PhiForm, "pair"), (ProductExpr, "reduced"), (QLaurent, "eval_at")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    for cache in (_phi_product, _binomial_exponents, _suites._order_form, _suites._order_int):
        cache.cache_clear()
    report = verify.run_all()
    assert report.counts == {verify.PASS: 937, verify.FAIL: 0, verify.RECORDED: 95}
    # every other reading comes off the normal form; a polynomial is multiplied
    # out only where a check prints it: the 5 named degrees with a printed
    # explicit degree, each with its display (10), the e6 pair equalities (4
    # pairs of two formulas and one single formula, whose second route is the
    # division route: 9), and the three degrees of the eps record (3)
    assert calls == {"pair": 22}

