import math
import pickle
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitseries import serialize
from orbitseries.exactpoly import (Cyclo, FractionalPowerError, LinExp,
                                   NotDivisibleError, PhiForm, ProductExpr,
                                   QLaurent, QPhi, ZeroExponentError,
                                   _mul, _phi_product, cyclotomic, exact_div, L,
                                   pexpr, poly_gcd, reduce_pair)


def qpoly(terms):
    return QLaurent.from_q_terms({F(k): F(v) for k, v in terms.items()})


def random_qlaurent(rng, max_terms: int = 6, power_range: int = 12,
                    coeff_range: int = 9) -> QLaurent:
    """Random sample for ring-law property tests."""
    n = rng.randint(0, max_terms)
    terms = {}
    for _ in range(n):
        p = rng.randint(-power_range, power_range)
        c = F(rng.randint(-coeff_range, coeff_range),
              rng.randint(1, coeff_range))
        terms[p] = c
    return QLaurent(terms)


coeffs = st.dictionaries(st.integers(-10, 10),
                         st.fractions(min_value=-5, max_value=5), max_size=5)


class TestLinExp:
    def test_eval_is_exact(self):
        e = LinExp(F(2), F(3, 2))
        assert e(2) == 5
        assert e(F(1, 3)) == F(5, 2)

    def test_arithmetic(self):
        e = LinExp(1, F(1, 2)) + LinExp(2, F(1, 2))
        assert e == LinExp(3, 1)
        assert (8 - e) == LinExp(5, -1)
        assert -e == LinExp(-3, -1)
        assert e * 2 == LinExp(6, 2)
        # a LinExp is a tuple, but 2 * e and 1 + e are still affine arithmetic
        assert 2 * e == LinExp(6, 2) and 1 + e == LinExp(4, 1)

    def test_quarter_lattice(self):
        # every exponent evaluated at a in {2,4,8} lands on quarter-integers
        for e in (LinExp(2, F(5, 4)), LinExp(-2, F(5, 4)), LinExp(0, F(1, 4))):
            for a in (1, 2, 4, 8):
                assert (4 * e(a)).denominator == 1

    def test_t_power_off_the_quarter_lattice_raises(self):
        assert LinExp(F(-3, 4), F(3, 2)).t_power(F(1, 2)) == 0
        assert LinExp(F(1, 3), F(2, 3)).t_power(F(-1, 2)) == 0
        with pytest.raises(ValueError, match="exponent 1/8 not on the quarter-integer lattice"):
            LinExp(0, F(1, 4)).t_power(F(1, 2))
        with pytest.raises(TypeError):
            LinExp(0, 1).t_power(0.5)

    def test_parsed_strings_are_shared(self):
        assert L("3a/2+2") is L("3a/2+2") == LinExp(2, F(3, 2))
        assert L(" a/4 - 1") == LinExp(-1, F(1, 4))


# rationals with denominators up to 12, the coefficients of the integer LinExp tests
rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
points = st.one_of(st.integers(-9, 9), rationals)


def _outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, TypeError) as err:
        return type(err), str(err)


def _quarter_power(c0, c1, a):
    """4 (c0 + c1 a) by Fraction arithmetic, refused off the quarter lattice."""
    v = c0 + c1 * a
    if (4 * v).denominator != 1:
        raise ValueError(f"exponent {v} not on the quarter-integer lattice")
    return int(4 * v)


class TestIntegerLinExp:
    """LinExp holds (n0 + n1 a)/d in integers; every operation equals the
    same operation done on its Fraction coefficients."""

    @given(rationals, rationals, rationals, rationals, points)
    @example(F(1, 2), F(1, 3), F(-1, 2), F(2, 3), F(3, 4))
    @example(F(1, 4), F(0), F(-1, 4), F(0), 0)
    @settings(max_examples=300, deadline=None)
    def test_operations_equal_the_fraction_route(self, c0, c1, k0, k1, a):
        x, y = LinExp(c0, c1), LinExp(k0, k1)
        def coeffs(e):
            return e.c0, e.c1
        assert coeffs(x) == (c0, c1) and all(type(v) is F for v in coeffs(x))
        assert coeffs(x + y) == (c0 + k0, c1 + k1) == coeffs(y + x)
        assert coeffs(x - y) == (c0 - k0, c1 - k1)
        assert coeffs(-x) == (-c0, -c1)
        for k in (a, k0, 3, 0):
            assert coeffs(x + k) == (c0 + k, c1) == coeffs(k + x)
            assert coeffs(x - k) == (c0 - k, c1) and coeffs(k - x) == (k - c0, -c1)
            assert coeffs(x * k) == (c0 * k, c1 * k) == coeffs(k * x)
        got = x(a)
        assert got == c0 + c1 * a and type(got) is F
        assert _outcome(x.t_power, a) == _outcome(_quarter_power, c0, c1, a)
        # the fields are canonical: d > 0 and gcd(n0, n1, d) = 1
        for e in (x, y, x + y, x - y, -x, x * a):
            assert e._d > 0 and math.gcd(e._n0, e._n1, e._d) == 1

    @pytest.mark.parametrize("bad", [0.5, "1", LinExp(1)])
    def test_errors_are_those_of_the_fraction_route(self, bad):
        x = LinExp(F(1, 2), F(1, 3))
        ops = [lambda: x * bad, lambda: bad * x, lambda: x(bad), lambda: x.t_power(bad)]
        if not isinstance(bad, LinExp):
            ops += [lambda: x + bad, lambda: bad + x, lambda: x - bad, lambda: bad - x]
        message = f"exact arithmetic takes an int or a Fraction, not {type(bad).__name__}"
        for op in ops:
            assert _outcome(op) == (TypeError, message)
        assert _outcome(x.t_power, 1) == (ValueError,
                                          "exponent 5/6 not on the quarter-integer lattice")

    def test_equal_functions_have_equal_fields_and_hash(self):
        want = LinExp(F(1, 2), F(1, 3))
        routes = [
            LinExp(F(3, 6), F(2, 6)),
            L("a/3+1/2"),
            LinExp(3, 2) * F(1, 6),
            LinExp(F(1, 2)) + LinExp(0, F(1, 3)),
            LinExp(1, 1) - LinExp(F(1, 2), F(2, 3)),
            -LinExp(F(-1, 2), F(-1, 3)),
            1 - LinExp(F(1, 2), F(-1, 3)),
        ]
        for e in routes:
            assert (e._n0, e._n1, e._d) == (want._n0, want._n1, want._d) == (3, 2, 6)
            assert e == want and hash(e) == hash(want) == hash((F(1, 2), F(1, 3)))
        assert (LinExp(5) * 0)._d == 1 and LinExp(5) * 0 == LinExp(0)
        assert LinExp(F(2, 4), F(6, 4)) == LinExp(F(1, 2), F(3, 2))

    @given(st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from(["a", ""]),
                              st.integers(0, 30), st.integers(1, 12),
                              st.sampled_from(["{p}{a}/{q}", "{p}/{q}{a}", "{p}{a}"])),
                    min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_parsed_exponents_equal_the_fraction_sum(self, terms):
        text, c = "", {"": F(0), "a": F(0)}
        for sign, a, p, q, form in terms:
            text += f" {sign} " + form.format(p=p, q=q, a=a)
            value = F(p) if form == "{p}{a}" else F(p, q)
            c[a] += value if sign == "+" else -value
        e, want = L(text), LinExp(c[""], c["a"])
        assert (e.c0, e.c1) == (c[""], c["a"]), text
        assert (e._n0, e._n1, e._d) == (want._n0, want._n1, want._d)

    def test_parse_refusals(self):
        # a text is read completely or refused: no empty sum, dangling or
        # doubled sign, second divisor, exponent notation or non-ASCII digit
        for text, error in [("3a/0", ZeroDivisionError), ("2ab", ValueError),
                            ("a/", ValueError), ("x", ValueError), ("", ValueError),
                            (" ", ValueError), ("+", ValueError), ("a+", ValueError),
                            ("--a", ValueError), ("a/2/2", ValueError),
                            ("3/2/2", ValueError), ("3/2a/4", ValueError),
                            ("1e3", ValueError), ("\u0663", ValueError),
                            ("1 2", ValueError), ("3/0", ZeroDivisionError)]:
            with pytest.raises(error):
                L(text)

    def test_repr_and_pickle(self):
        e = LinExp(F(1, 2), F(1, 3))
        assert repr(e) == "LinExp(c0=Fraction(1, 2), c1=Fraction(1, 3))"
        back = pickle.loads(pickle.dumps(e))
        assert back == e and hash(back) == hash(e) and repr(back) == repr(e)
        assert (back._n0, back._n1, back._d) == (3, 2, 6)


class TestQLaurentRing:
    @given(coeffs, coeffs)
    @settings(max_examples=60, deadline=None)
    def test_addition_commutes(self, c1, c2):
        p, r = QLaurent(c1), QLaurent(c2)
        assert p + r == r + p

    @given(coeffs, coeffs)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_commutes(self, c1, c2):
        p, r = QLaurent(c1), QLaurent(c2)
        assert p * r == r * p

    @given(coeffs, coeffs, coeffs)
    @settings(max_examples=40, deadline=None)
    def test_associative_distributive(self, c1, c2, c3):
        p, r, s = QLaurent(c1), QLaurent(c2), QLaurent(c3)
        assert (p * r) * s == p * (r * s)
        assert p * (r + s) == p * r + p * s

    def test_no_zero_coefficients_stored(self):
        p = QLaurent({3: F(1), 4: F(0)}) + QLaurent({3: F(-1)})
        assert p.is_zero()
        assert p.coeffs == {}

    def test_power(self):
        p = qpoly({1: 1, 0: -1})
        assert p ** 3 == qpoly({3: 1, 2: -3, 1: 3, 0: -1})


class TestExactDiv:
    def test_quartic_by_quadratic(self):
        assert exact_div(qpoly({4: 1, 0: -1}), qpoly({2: 1, 0: -1})) == \
            qpoly({2: 1, 0: 1})

    def test_long_division_oracle_value(self):
        # frozen from independent polynomial long division over Q
        num = qpoly({8: 1, 0: -1}) * qpoly({12: 1, 0: -1})
        got = exact_div(num, qpoly({4: 1, 0: -1}))
        assert got == qpoly({16: 1, 12: 1, 4: -1, 0: -1})

    def test_not_divisible_carries_remainder(self):
        with pytest.raises(NotDivisibleError) as err:
            exact_div(qpoly({3: 1, 0: -1}), qpoly({2: 1, 0: -1}))
        assert not err.value.remainder.is_zero()

    @given(coeffs, coeffs)
    @settings(max_examples=40, deadline=None)
    def test_product_division_roundtrip(self, c1, c2):
        p, r = QLaurent(c1), QLaurent(c2)
        if p.is_zero() or r.is_zero():
            return
        assert exact_div(p * r, r) == p

    def test_laurent_units_divide(self):
        p = QLaurent({-3: F(1), 1: F(2)})
        u = QLaurent({-2: F(1, 2)})
        assert exact_div(p * u, u) == p

    def test_gcd_reduction_coprime(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_qlaurent(rng)
            b = random_qlaurent(rng)
            g = random_qlaurent(rng)
            if b.is_zero() or g.is_zero():
                continue
            num, den = reduce_pair(a * g, b * g)
            common = poly_gcd(num, den)
            assert common == QLaurent.one()
            if not a.is_zero():
                # the reduced pair represents the same rational function
                assert num * b == den * a or num * b == -(den * a) or \
                    exact_div(num * b, den * a) is not None


class TestEval:
    def test_polynomial_value(self):
        assert qpoly({2: 1, 0: 1}).eval_at(2) == 5

    def test_fourth_power_point(self):
        # t^2 - 1 at q = 16 means t = 2
        p = QLaurent({2: F(1), 0: F(-1)})
        assert p.eval_at(16) == 3

    def test_fractional_power_error(self):
        p = QLaurent({2: F(1), 0: F(-1)})
        from orbitseries.exactpoly import FractionalPowerError
        with pytest.raises(FractionalPowerError):
            p.eval_at(2)

    def test_fourth_root_of_a_huge_fourth_power(self):
        # 3^240 = (3^60)^4 lies far beyond the float range
        t = QLaurent({1: F(1)})
        assert t.eval_at(3 ** 240) == 3 ** 60
        assert t.eval_at(F(3 ** 240, 2 ** 400)) == F(3 ** 60, 2 ** 100)
        with pytest.raises(FractionalPowerError):
            t.eval_at(10 ** 401)

    @given(st.integers(1, 10 ** 60))
    @settings(max_examples=80, deadline=None)
    def test_fourth_root_is_exact(self, n):
        t = QLaurent({1: F(1)})
        assert t.eval_at(n ** 4) == n
        with pytest.raises(FractionalPowerError):
            t.eval_at(n ** 4 + 1)

    def test_triples_round_trip(self):
        p = QLaurent({-2: F(3, 4), 5: F(-1)})
        assert QLaurent.from_triples(p.to_triples()) == p
        assert p.to_triples() == [(-2, 3, 4), (5, -1, 1)]


class TestProductExpr:
    def test_single_factor(self):
        e = pexpr(1, 0, num=[LinExp(0, 1)])
        num, den = e.expand(2)
        assert num == qpoly({2: 1, 0: -1})
        assert den == QLaurent.one()

    def test_constant_and_inverse_factor(self):
        e = pexpr(F(1, 2), 0, num=[2], den=[1])
        num, den = e.expand(3)
        assert num == qpoly({2: F(1, 2), 0: F(-1, 2)})
        assert den == qpoly({1: 1, 0: -1})

    def test_zero_exponent_error(self):
        e = pexpr(1, 0, num=[LinExp(-2, 1)])
        with pytest.raises(ZeroExponentError):
            e.expand(2)
        # q^0 + 1 = 2 does not degenerate
        e = pexpr(1, 0, num_plus=[LinExp(-2, 1)])
        num, den = e.expand(2)
        assert num == QLaurent.constant(2)

    def test_is_polynomial_examples(self):
        assert qpoly({2: 1, 0: 1}).is_q_polynomial()
        assert not QLaurent({2: F(1), 0: F(-1)}).is_q_polynomial()  # q^(1/2)-1

    def test_expand_multiplicative(self):
        e1 = pexpr(2, LinExp(1, 1), num=[LinExp(0, 1)], den=[2])
        e2 = pexpr(F(1, 3), 1, num=[3], num_plus=[1])
        n1, d1 = e1.expand(4)
        n2, d2 = e2.expand(4)
        n, d = (e1 * e2).expand(4)
        assert n == n1 * n2 and d == d1 * d2

    def test_degree_matches_exponent_sum(self):
        rng = random.Random(3)
        for _ in range(20):
            plus = [LinExp(rng.randint(1, 5), F(rng.randint(1, 4), 2))
                    for _ in range(rng.randint(1, 4))]
            minus = [LinExp(rng.randint(1, 3), F(rng.randint(0, 2), 2))
                     for _ in range(rng.randint(0, 2))]
            pref = LinExp(rng.randint(0, 5), rng.randint(0, 3))
            e = pexpr(1, pref, num=plus, den=minus)
            for a in (1, 2, 4, 8):
                num, den = e.reduced(a)
                want = pref(a) + sum(x(a) for x in plus) - sum(x(a) for x in minus)
                assert num.degree_in_q() - den.degree_in_q() == want

    def test_literal_factor(self):
        phi6 = QLaurent.from_q_terms({2: 1, 1: -1, 0: 1})
        e = ProductExpr(F(1), LinExp(0), ((QPhi(6), 1),))
        num, den = e.expand(1)
        assert num == phi6

    def test_a_multiplicity_must_be_an_integer(self):
        # a float multiplicity would make eval_at return a float
        for m in (1.5, 1.0, F(2)):
            with pytest.raises(TypeError):
                ProductExpr(1, LinExp(0), ((Cyclo(LinExp(1)), m),))

    def test_a_cyclo_exponent_must_be_a_linexp(self):
        # an exponent that is not a LinExp would print, then fail in eval_at,
        # phi_form and degree_in_q
        for exponent in (2, F(1, 2), "a", None):
            with pytest.raises(TypeError, match="a Cyclo exponent is a LinExp"):
                ProductExpr(1, LinExp(0), ((Cyclo(exponent), 1),))

    def test_a_cyclo_sign_must_be_plus_or_minus_1(self):
        # Cyclo(e, 2) would read q^e - 1 on the Phi route and q^e - 2 in eval_at
        for sign in (2, 0, -2):
            with pytest.raises(ValueError, match=r"a Cyclo sign is \+1 or -1"):
                ProductExpr(1, LinExp(0), ((Cyclo(LinExp(1), sign), 1),))
        with pytest.raises(TypeError):
            ProductExpr(1, LinExp(0), ((Cyclo(LinExp(1), 1.0), 1),))

    def test_a_qphi_index_must_be_at_least_1(self):
        for d in (0, -1, -6):
            with pytest.raises(ValueError, match="a QPhi d at least 1"):
                ProductExpr(1, LinExp(0), ((QPhi(d), 1),))

    def test_other_factor_objects_are_refused(self):
        for factor in (QLaurent.one(), LinExp(1), (LinExp(1), 1)):
            with pytest.raises(TypeError, match="a product factor is a Cyclo or a QPhi"):
                ProductExpr(1, LinExp(0), ((factor, 1),))


class TestCyclo:
    def test_signs(self):
        assert Cyclo(LinExp(3), 1).value_at(0) == qpoly({3: 1, 0: -1})
        assert Cyclo(LinExp(3), -1).value_at(0) == qpoly({3: 1, 0: 1})
        with pytest.raises(ValueError, match="sign must be"):
            Cyclo(LinExp(3), 0).value_at(0)

    def test_cyclo_str(self):
        assert "+" in str(Cyclo(LinExp(3), -1))


def t_poly(coeffs):
    """QLaurent in t from integer coefficients, constant term first."""
    return QLaurent({p: c for p, c in enumerate(coeffs)})


quarter_exponents = st.fractions(min_value=-4, max_value=6).map(
    lambda x: F(round(4 * x), 4))
cyclo_factors = st.tuples(quarter_exponents, st.sampled_from((1, -1)),
                          st.sampled_from((1, 2, -1, -2)))


class TestPhiForm:
    def test_known_cyclotomic_polynomials(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)
        # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
        assert -2 in cyclotomic(105) and len(cyclotomic(105)) == 49

    def test_binomials_are_products_of_cyclotomics(self):
        t = QLaurent({1: F(1)})
        for n in range(1, 61):
            prod = QLaurent.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * t_poly(cyclotomic(d))
            assert prod == t ** n - 1

    def test_factor_rules(self):
        def alone(exponent, sign=1, a=0):
            return ProductExpr(factors=((Cyclo(exponent, sign), 1),)).phi_form(a)

        # q - 1 = t^4 - 1 = Phi_1 Phi_2 Phi_4; q^(1/2) + 1 = t^2 + 1 = Phi_4
        assert alone(LinExp(1)) == PhiForm(F(1), 0, ((1, 1), (2, 1), (4, 1)))
        assert alone(LinExp(F(1, 2)), -1) == PhiForm(F(1), 0, ((4, 1),))
        # q^-1 - 1 = -t^-4 (t^4 - 1) and q^-1 + 1 = t^-4 (t^4 + 1)
        assert alone(LinExp(-1)) == PhiForm(F(-1), -4, ((1, 1), (2, 1), (4, 1)))
        assert alone(LinExp(-1), -1) == PhiForm(F(1), -4, ((8, 1),))
        assert alone(LinExp(-2, 1), -1, 2) == PhiForm(F(2))
        with pytest.raises(ZeroExponentError, match=r"q\^\(a-2\) - 1 vanishes at a=2"):
            alone(LinExp(-2, 1), 1, 2)

    def test_literal_q2_minus_q_plus_1_is_phi24(self):
        phi6 = QLaurent.from_q_terms({2: 1, 1: -1, 0: 1})
        assert QPhi(6).value == phi6 and str(QPhi(6)) == "(q^2 - q + 1)"
        assert ProductExpr(factors=((QPhi(6), 1),)).phi_form(0) == \
            PhiForm(F(1), 0, ((24, 1),))
        # -5/2 * t^3 * Phi_6(q)^2
        scaled = ProductExpr(F(-5, 2), LinExp(F(3, 4)), ((QPhi(6), 2),))
        assert scaled.phi_form(0) == PhiForm(F(-5, 2), 3, ((24, 2),))

    def test_non_cyclotomic_literal_raises(self):
        # a factor is Phi_d(q) by construction, so another polynomial can only
        # arrive from outside, through the JSON reader, which refuses it
        for value in (QLaurent.from_q_terms({1: 1, 0: -2}),
                      QLaurent.from_q_terms({2: 1, 1: 1, 0: -1}) * (QLaurent.q_power(1) - 1)):
            with pytest.raises(ValueError, match="not a cyclotomic polynomial"):
                serialize.qphi_from_json(serialize.qlaurent_to_json(value))

    def test_qphi_equals_sympy_at_t_to_the_4(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for d in range(1, 61):
            want = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
            at_t4 = QLaurent({4 * i: int(c) for i, c in enumerate(reversed(want))})
            expr = ProductExpr(factors=((QPhi(d), 1),))
            assert expr.phi_form(0).pair() == (at_t4, QLaurent.one()), d
            assert expr.degree_in_q(0) == int(sympy.totient(d)), d

    def test_json_reader_returns_the_qphi_of_its_value(self):
        for d in range(1, 61):
            triples = serialize.qlaurent_to_json(QPhi(d).value)
            assert serialize.qphi_from_json(triples) == QPhi(d), d

    def test_cyclotomic_refuses_an_index_below_1(self):
        for d in (0, -1, -6):
            with pytest.raises(ValueError, match=f"Phi_{d} needs d >= 1"):
                cyclotomic(d)

    def test_reduction_is_multiset_subtraction(self):
        x = pexpr(3, 2, num=[6, 4], den=[2])
        y = pexpr(1, 1, num=[3], den=[1])
        fx, fy, fxy = x.phi_form(1), y.phi_form(1), (x / y).phi_form(1)
        mults = dict(fx.phis)
        for d, m in fy.phis:
            mults[d] = mults.get(d, 0) - m
        assert fxy.phis == tuple(sorted((d, m) for d, m in mults.items() if m))
        assert fxy.shift == fx.shift - fy.shift and fxy.constant == 3

    @given(st.lists(cyclo_factors, max_size=6), quarter_exponents,
           st.fractions(min_value=-3, max_value=3, max_denominator=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_division_route(self, factors, prefactor, constant):
        e = ProductExpr(constant, LinExp(prefactor),
                        tuple((Cyclo(LinExp(x), s), m) for x, s, m in factors))
        try:
            want = reduce_pair(*e.expand(0))
        except ZeroExponentError as err:
            with pytest.raises(ZeroExponentError) as got:
                e.reduced(0)
            assert str(got.value) == str(err)
            return
        got = e.reduced(0)
        assert got == want and str(got) == str(want)
        num, den = e.expand(0)
        if all(x.denominator == 1 for x, _, _ in factors) and prefactor.denominator == 1:
            for q in (16, 3):
                assert e.phi_form(0).value_at(q) == num.eval_at(q) / den.eval_at(q)
        if all(m > 0 for _, _, m in factors):
            assert e.phi_form(0).polynomial() == exact_div(num, den)

    def test_reduce_to_polynomial_reports_remainder(self):
        e = pexpr(1, 0, num=[3], den=[2])
        with pytest.raises(NotDivisibleError) as err:
            e.phi_form(0).polynomial()
        assert not err.value.remainder.is_zero()
        assert pexpr(1, 0, num=[6], den=[2]).phi_form(0).polynomial() == \
            qpoly({4: 1, 2: 1, 0: 1})

    def test_reduce_to_polynomial_never_expands(self, monkeypatch):
        def expand(self, a):
            raise AssertionError("the division route was called")
        monkeypatch.setattr(ProductExpr, "expand", expand)
        with pytest.raises(NotDivisibleError) as err:
            pexpr(1, 0, num=[3], den=[2]).phi_form(0).polynomial()
        # (q^3 - 1)/(q^2 - 1) = (q^2 + q + 1)/(q + 1), and q^2 + q + 1 = q(q + 1) + 1
        assert err.value.remainder == QLaurent.one()

    def test_eval_at_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError):
            pexpr(1, 0, den=[1]).phi_form(0).value_at(1)


def schoolbook(*polys):
    """The product of integer coefficient lists by plain convolution."""
    out = [1]
    for f in polys:
        prod = [0] * (len(out) + len(f) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(f):
                prod[i + j] += u * v
        out = prod
    return tuple(out)


# small entries give cancellation, large ones give products far beyond a machine word
int_lists = st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80)),
                     min_size=1, max_size=8)


class TestPolynomialProducts:
    @given(st.lists(int_lists, min_size=1, max_size=5))
    @example([[-1], [2 ** 64 + 1, 0, -(2 ** 70)], [1, -1], [0, 5]])
    @example([[-(2 ** 65)], [3]])
    @example([[0], [2 ** 90, -1]])
    @settings(max_examples=150, deadline=None)
    def test_equals_schoolbook_convolution(self, polys):
        assert _mul(*polys) == schoolbook(*polys)

    def test_coefficients_at_the_l1_bound(self):
        # a coefficient of a product is at most prod ||f_i||_1 in size, and
        # monomials attain that bound with either sign; the last product
        # cancels all its middle terms
        assert _mul((255,), (257,)) == (65535,)
        assert _mul((-255,), (0, 257)) == (0, -65535)
        f = (-128, 127)
        assert _mul(f, f) == schoolbook(f, f) == (16384, -32512, 16129)
        assert _mul((1,) * 300, (1, -1)) == (1,) + (0,) * 299 + (-1,)

    def test_products_of_cyclotomics(self):
        assert _phi_product(()) == (1,) == _mul()
        powers = ((1, 2), (3, 1), (105, 2))
        assert _phi_product(powers) == schoolbook(
            *(cyclotomic(d) for d, m in powers for _ in range(m)))

    @given(st.lists(st.tuples(st.integers(1, 120), st.integers(1, 3)),
                    max_size=6, unique_by=lambda p: p[0]).map(sorted))
    @example([])
    @example([(1, 3), (2, 3), (4, 1)])
    @example([(105, 2), (120, 1)])
    @settings(max_examples=120, deadline=None)
    def test_binomial_kernel_equals_sparse_product(self, powers):
        powers = tuple(powers)
        want = _mul(*(cyclotomic(d) for d, m in powers for _ in range(m)))
        assert _phi_product.__wrapped__(powers) == want

    def test_kernel_refuses_a_quotient_that_is_not_a_polynomial(self):
        # 1 / Phi_1 and Phi_2 / Phi_1: some t^n - 1 leaves a remainder
        for powers in (((1, -1),), ((1, -1), (2, 1))):
            with pytest.raises(ArithmeticError, match="does not divide"):
                _phi_product.__wrapped__(powers)

    def test_cyclotomic_polynomials_equal_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for d in range(1, 301):
            want = sympy.Poly(sympy.cyclotomic_poly(d, t), t).all_coeffs()
            assert cyclotomic(d) == tuple(int(c) for c in reversed(want)), d


def long_division(p, m):
    """Exact quotient of integer lists (constant term first) by a monic m."""
    p, quo = list(p), [0] * (len(p) - len(m) + 1)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = p[i + len(m) - 1]
        for j, v in enumerate(m):
            p[i + j] -= quo[i] * v
    assert not any(p), "not divisible"
    return tuple(quo)


@lru_cache(maxsize=None)
def reference_cyclotomic(d):
    """Phi_d as (t^d - 1) divided by every Phi_e with e | d, e < d: a route
    that shares nothing with the binomial kernel."""
    quo = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            quo = long_division(quo, reference_cyclotomic(e))
    return quo


def binomial_gcd(powers):
    """The gcd of the n with a nonzero exponent E_n of t^n - 1 in the product."""
    exps = {}
    for d, m in powers:
        for n in range(1, d + 1):
            if d % n == 0:
                k, mu = d // n, 1   # the Moebius function of d/n by trial division
                for r in range(2, k + 1):
                    if k % r == 0:
                        k //= r
                        mu = 0 if k % r == 0 else -mu
                exps[n] = exps.get(n, 0) + mu * m
    return math.gcd(*(n for n, e in exps.items() if e))


def _e8_order_phis():
    from orbitseries import seriesdb as db
    return db.group_order(db.reductive("e8")).phi_form(0).phis


class TestKernelInPowersOfTg:
    """The kernel runs in s = t^g for g the gcd of the binomial exponents."""

    @pytest.mark.parametrize("powers, g", [
        (((4, 1),), 2),                      # Phi_4 = 1 + t^2
        (((8, 1),), 4),                      # Phi_8 = 1 + t^4
        (((16, 1),), 8),                     # Phi_16 = 1 + t^8
        (((8, 1), (24, 1)), 12),
        (((16, 1), (48, 1)), 24),
        (((4, 2), (8, 1), (12, 3), (24, 1)), 2),
        (tuple(_e8_order_phis()), 8),        # |E8(q)| as verify multiplies it out
    ])
    def test_equals_the_product_of_reference_cyclotomics(self, powers, g):
        assert binomial_gcd(powers) == g
        want = schoolbook(*(reference_cyclotomic(d) for d, m in powers for _ in range(m)))
        assert _phi_product.__wrapped__(powers) == want
        assert _mul(*(cyclotomic(d) for d, m in powers for _ in range(m))) == want
        # a polynomial in t^g: every other coefficient vanishes
        assert not any(v for i, v in enumerate(want) if i % g)

    def test_small_cyclotomics_by_hand(self):
        assert cyclotomic(4) == (1, 0, 1) and cyclotomic(8) == (1, 0, 0, 0, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)
        assert cyclotomic(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)

    def test_a_refusal_in_powers_of_t_g_names_the_t_power(self):
        # 1 / Phi_4 = (t^2 - 1) / (t^4 - 1), run with s = t^2
        with pytest.raises(ArithmeticError) as got:
            _phi_product.__wrapped__(((4, -1),))
        assert str(got.value) == "t^4 - 1 does not divide the product"
        with pytest.raises(ArithmeticError) as got:
            _phi_product.__wrapped__(((8, 1), (24, -1)))
        assert str(got.value) == "t^24 - 1 does not divide the product"


def fields(p):
    return p.content, p.low, p.c


# positive rationals t, so that q = t^4 is a rational fourth power
fourth_roots = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6).filter(
    lambda t: t > 0)


class TestIntegerForm:
    @given(coeffs)
    @settings(max_examples=80, deadline=None)
    def test_fields_are_canonical(self, c):
        p = QLaurent(c)
        assert all(isinstance(v, F) for v in p.coeffs.values())
        if p.is_zero():
            assert fields(p) == (0, 0, ())
            return
        assert p.content != 0 and p.c[0] != 0 and p.c[-1] > 0
        assert math.gcd(*p.c) == 1
        assert p.coeffs == {k: v for k, v in c.items() if v}

    @given(coeffs, fourth_roots)
    @example({-7: F(1, 2), 3: F(-2)}, F(3, 2))
    @settings(max_examples=80, deadline=None)
    def test_eval_at_a_fourth_power_is_the_sum_of_terms(self, c, t):
        # q = 16 and 81/16 among others; t-powers of every residue mod 4
        p = QLaurent(c)
        want = sum((v * t ** k for k, v in p.coeffs.items()), F(0))
        assert p.eval_at(t ** 4) == want

    @given(coeffs, st.integers(1, 10 ** 6))
    @example({-3: F(5, 2), 0: F(-1), 2: F(1, 3)}, 2)
    @settings(max_examples=80, deadline=None)
    def test_eval_at_an_integer_q_is_the_sum_of_terms(self, c, q):
        # whole powers of q only, negative ones included
        p = QLaurent({4 * k: v for k, v in c.items()})
        want = sum((v * F(q) ** (k // 4) for k, v in p.coeffs.items()), F(0))
        assert p.eval_at(q) == want

    def test_one_form_from_every_route(self):
        # 3/2 t^-2 (t^4 - 1) = 3/2 t^2 - 3/2 t^-2
        routes = [
            QLaurent({2: F(3, 2), -2: F(-3, 2), 0: 0}),
            QLaurent({-2: F(3, 2)}) * t_poly([-1, 0, 1]) * t_poly([1, 0, 1]),
            QLaurent({2: F(1, 2), 0: 5}) + QLaurent({2: 1, -2: F(-3, 2)}) +
            QLaurent.constant(-5),
            QLaurent({6: F(-3, 7), 2: F(3, 7)}).shift_t(-4) * F(-7, 2),
        ]
        for p in routes:
            assert fields(p) == (F(3, 2), -2, (-1, 0, 0, 0, 1))
            assert hash(p) == hash(routes[0])

    @pytest.mark.parametrize("e,a", [
        (pexpr(F(3, 2), F(-1, 2), num=[1, 3], den=[F(1, 2)], num_plus=[F(1, 4)]), 0),
        (pexpr(F(-5, 6), "a/4", num=["a", 2], den=[1, 1], den_plus=[F(1, 2)]), 2),
        (pexpr(2, -3, num=[F(-1, 2)], den=[-2, 3]), 0),
    ])
    def test_phi_form_pair_is_the_division_route_field_by_field(self, e, a):
        got, want = e.reduced(a), reduce_pair(*e.expand(a))
        for p, w in zip(got, want):
            assert fields(p) == fields(w) and hash(p) == hash(w)

    @pytest.mark.parametrize("bad", [0.1, "1/2"])
    def test_floats_and_strings_are_refused(self, bad):
        with pytest.raises(TypeError):
            QLaurent({0: bad})
        with pytest.raises(TypeError):
            LinExp(bad, 1)
        with pytest.raises(TypeError):
            LinExp(1, bad)
        with pytest.raises(TypeError):
            QLaurent.one().eval_at(bad)
        with pytest.raises(TypeError):
            ProductExpr(bad)
        with pytest.raises(TypeError):
            pexpr(bad)
        with pytest.raises(TypeError):
            pexpr(1, 0, num=[1]).phi_form(0).value_at(bad)

    @pytest.mark.parametrize("q", [1.0, True, 2.0])
    def test_value_at_takes_only_an_int(self, q):
        # 1.0 and True equal 1, where the value of q - 1 would read 0
        with pytest.raises(TypeError, match="takes an int q, not (float|bool)"):
            pexpr(1, 0, num=[1]).phi_form(0).value_at(q)

    def test_float_exponents_are_refused(self):
        with pytest.raises(TypeError):
            QLaurent({F(1, 2): 1})   # int() would truncate it to t^0
        with pytest.raises(TypeError):
            pexpr(1, 0.5)
        with pytest.raises(TypeError):
            QLaurent.q_power(0.25)
