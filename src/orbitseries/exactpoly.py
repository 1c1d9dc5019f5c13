"""Exact Laurent-polynomial arithmetic in t = q^(1/4).

All coefficients are rational (``fractions.Fraction``); there is no floating
point anywhere in this package.  The quarter-power lattice is the coarsest one
on which every exponent we ever evaluate (half- and quarter-integer powers of
q, for parameter values a in {1, 2, 4, 8}) stays integral in t.

Product expressions reduce through their cyclotomic normal form: at fixed a
every factor q^e -+ 1 is a signed monomial times a product of cyclotomic
polynomials Phi_d(t), so an expression is c * t^k * prod Phi_d(t)^(m_d), the
notation of Carter, *Finite Groups of Lie Type* (1985), section 13.9, and of
CHEVIE's ``CycPol`` (Geck-Hiss-Luebeck-Malle-Pfeiffer 1996).  Cancelling
common factors is then subtraction of the multiplicities m_d, and only the
reduced result is multiplied out, over the integers.  The division route
(``expand``, ``poly_gcd``, ``exact_div``, ``reduce_pair``) stays as the
independent oracle the tests compare against, and reduces sums, which have
no such form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Union

Rat = Union[int, Fraction]


class ZeroExponentError(ValueError):
    """A product factor q^e - 1 degenerated to zero at the requested parameter."""


class NotDivisibleError(ArithmeticError):
    """Exact division failed; carries the nonzero remainder."""

    def __init__(self, remainder: "QLaurent"):
        super().__init__(f"not divisible, remainder {remainder}")
        self.remainder = remainder


class FractionalPowerError(ValueError):
    """Evaluation point is not a perfect fourth power but fractional t-powers occur."""


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _t_power(e: Rat) -> int:
    """The t-power 4e of q^e; e must lie on the quarter lattice."""
    t = 4 * _frac(e)
    if t.denominator != 1:
        raise ValueError(f"exponent {e} not on the quarter-integer lattice")
    return int(t)


@dataclass(frozen=True)
class LinExp:
    """Affine function c0 + c1*a of the series parameter a.

    Denominators of c0 and c1 divide 4 for every exponent used in this
    package, so evaluations at integer a land on the quarter lattice.
    """

    c0: Fraction
    c1: Fraction = Fraction(0)

    def __init__(self, c0: Rat, c1: Rat = 0):
        object.__setattr__(self, "c0", _frac(c0))
        object.__setattr__(self, "c1", _frac(c1))

    def __call__(self, a: Rat) -> Fraction:
        return self.c0 + self.c1 * _frac(a)

    def __add__(self, other: "LinExp | Rat") -> "LinExp":
        if isinstance(other, LinExp):
            return LinExp(self.c0 + other.c0, self.c1 + other.c1)
        return LinExp(self.c0 + _frac(other), self.c1)

    __radd__ = __add__

    def __sub__(self, other: "LinExp | Rat") -> "LinExp":
        return self + (-other if isinstance(other, LinExp) else -_frac(other))

    def __neg__(self) -> "LinExp":
        return LinExp(-self.c0, -self.c1)

    def __rsub__(self, other: Rat) -> "LinExp":
        return LinExp(_frac(other) - self.c0, -self.c1)

    def __mul__(self, k: Rat) -> "LinExp":
        return LinExp(self.c0 * _frac(k), self.c1 * _frac(k))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.c1 == 0:
            return str(self.c0)
        s = "a" if self.c1 == 1 else f"{self.c1}a"
        if self.c0 == 0:
            return s
        return f"{s}{'+' if self.c0 > 0 else '-'}{abs(self.c0)}"


class QLaurent:
    """Laurent polynomial in t = q^(1/4) with rational coefficients.

    Stored as a map from integer t-power to nonzero Fraction.  A power of q
    with exponent e corresponds to t-power 4e.  Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Rat] | Iterable[tuple[int, Rat]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        d: dict[int, Fraction] = {}
        for p, c in items:
            c = _frac(c)
            if c:
                d[int(p)] = d.get(int(p), Fraction(0)) + c
                if not d[int(p)]:
                    del d[int(p)]
        self._coeffs = d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QLaurent":
        return QLaurent()

    @staticmethod
    def one() -> "QLaurent":
        return QLaurent({0: 1})

    @staticmethod
    def constant(c: Rat) -> "QLaurent":
        return QLaurent({0: c})

    @staticmethod
    def q_power(e: Rat) -> "QLaurent":
        """The monomial q^e; e must lie on the quarter lattice."""
        return QLaurent({_t_power(e): 1})

    @staticmethod
    def from_q_terms(terms: Mapping[Rat, Rat]) -> "QLaurent":
        return QLaurent({_t_power(e): c for e, c in terms.items()})

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_q_polynomial(self) -> bool:
        """True iff every monomial is a nonnegative integer power of q."""
        return all(p >= 0 and p % 4 == 0 for p in self._coeffs)

    def is_laurent_in_q(self) -> bool:
        return all(p % 4 == 0 for p in self._coeffs)

    def t_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("degree of the zero polynomial")
        return max(self._coeffs)

    def t_low_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("degree of the zero polynomial")
        return min(self._coeffs)

    def degree_in_q(self) -> Fraction:
        return Fraction(self.t_degree(), 4)

    def low_degree_in_q(self) -> Fraction:
        return Fraction(self.t_low_degree(), 4)

    def leading_coeff(self) -> Fraction:
        return self._coeffs[self.t_degree()]

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QLaurent):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == QLaurent.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "QLaurent | Rat") -> "QLaurent":
        if not isinstance(other, QLaurent):
            other = QLaurent.constant(other)
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c
        return QLaurent(out)

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return QLaurent({p: -c for p, c in self._coeffs.items()})

    def __sub__(self, other: "QLaurent | Rat") -> "QLaurent":
        return self + (-other if isinstance(other, QLaurent) else QLaurent.constant(-_frac(other)))

    def __rsub__(self, other: Rat) -> "QLaurent":
        return QLaurent.constant(other) - self

    def __mul__(self, other: "QLaurent | Rat") -> "QLaurent":
        if not isinstance(other, QLaurent):
            c = _frac(other)
            return QLaurent({p: v * c for p, v in self._coeffs.items()})
        out: dict[int, Fraction] = {}
        for p1, c1 in self._coeffs.items():
            for p2, c2 in other._coeffs.items():
                p = p1 + p2
                out[p] = out.get(p, Fraction(0)) + c1 * c2
        return QLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            raise ValueError("negative powers are not closed in the Laurent ring")
        result = QLaurent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_t(self, k: int) -> "QLaurent":
        return QLaurent({p + k: c for p, c in self._coeffs.items()})

    # -- evaluation and printing -------------------------------------------

    def eval_at(self, q: Rat) -> Fraction:
        """Exact value at a positive rational q.

        Works directly when all powers are integral in q; otherwise requires
        q to be a perfect fourth power of a rational so that t is rational.
        """
        q = _frac(q)
        if q <= 0:
            raise ValueError("evaluation point must be positive")
        if self.is_laurent_in_q():
            return sum((c * q ** (p // 4) for p, c in self._coeffs.items()), Fraction(0))
        t = _exact_fourth_root(q)
        if t is None:
            raise FractionalPowerError(
                f"fractional q-powers present and {q} is not a rational fourth power")
        return sum((c * t ** p for p, c in self._coeffs.items()), Fraction(0))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for p in sorted(self._coeffs, reverse=True):
            c = self._coeffs[p]
            e = Fraction(p, 4)
            if e == 0:
                term = str(c)
            else:
                mon = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    term = mon
                elif c == -1:
                    term = f"-{mon}"
                else:
                    term = f"{c}*{mon}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" + {term}" if not term.startswith("-") else f" - {term[1:]}"
        return out

    def __repr__(self) -> str:
        return f"QLaurent({self})"

    def to_triples(self) -> list[tuple[int, int, int]]:
        """Sorted (t-power, numerator, denominator) triples for JSON export."""
        return [(p, self._coeffs[p].numerator, self._coeffs[p].denominator)
                for p in sorted(self._coeffs)]

    @staticmethod
    def from_triples(triples: Iterable[tuple[int, int, int]]) -> "QLaurent":
        return QLaurent({p: Fraction(n, d) for p, n, d in triples})


def _exact_fourth_root(q: Fraction) -> Fraction | None:
    num = _integer_fourth_root(q.numerator)
    den = _integer_fourth_root(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _integer_fourth_root(m: int) -> int | None:
    if m < 0:
        return None
    r = math.isqrt(math.isqrt(m))   # floor of the real fourth root
    return r if r ** 4 == m else None


def cyclo_factor(e: Rat, sign: int = 1) -> QLaurent:
    """The factor q^e - 1 (sign +1) or q^e + 1 (sign -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return QLaurent.q_power(e) - (1 if sign == 1 else -1)


# -- exact division and gcd --------------------------------------------------


def exact_div(n: QLaurent, d: QLaurent) -> QLaurent:
    """Quotient n/d when d divides n exactly in the Laurent ring.

    Raises NotDivisibleError (carrying the remainder) otherwise.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if n.is_zero():
        return QLaurent.zero()
    # Shift both to honest polynomials in t; Laurent units are monomials.
    shift = n.t_low_degree() - d.t_low_degree()
    num = n.shift_t(-n.t_low_degree())
    den = d.shift_t(-d.t_low_degree())
    quo, rem = _poly_divmod(num, den)
    if not rem.is_zero():
        raise NotDivisibleError(rem)
    return quo.shift_t(shift)


def _poly_divmod(num: QLaurent, den: QLaurent) -> tuple[QLaurent, QLaurent]:
    # Ordinary long division in Q[t]; num and den have nonnegative t-powers.
    q: dict[int, Fraction] = {}
    rem = num
    dd = den.t_degree()
    dlead = den.leading_coeff()
    while not rem.is_zero() and rem.t_degree() >= dd:
        p = rem.t_degree() - dd
        c = rem.leading_coeff() / dlead
        q[p] = c
        rem = rem - den.shift_t(p) * c
    return QLaurent(q), rem


def poly_gcd(x: QLaurent, y: QLaurent) -> QLaurent:
    """Monic gcd in Q[t], with Laurent inputs normalized by unit monomials."""
    a = x.shift_t(-x.t_low_degree()) if not x.is_zero() else x
    b = y.shift_t(-y.t_low_degree()) if not y.is_zero() else y
    while not b.is_zero():
        _, r = _poly_divmod(a, b)
        a, b = b, r
        if not a.is_zero():
            a = a * (1 / a.leading_coeff())
    if a.is_zero():
        return a
    return a * (1 / a.leading_coeff())


def reduce_pair(num: QLaurent, den: QLaurent) -> tuple[QLaurent, QLaurent]:
    """Remove the polynomial gcd; the returned pair is coprime in Q[t].

    Monomial (unit) content is moved into the numerator so the denominator is
    a genuine polynomial in t with constant term.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return num, QLaurent.one()
    g = poly_gcd(num, den)
    num = exact_div(num, g)
    den = exact_div(den, g)
    # normalize: denominator monic with t_low_degree 0
    unit = den.t_low_degree()
    num = num.shift_t(-unit)
    den = den.shift_t(-unit)
    lead = den.leading_coeff()
    return num * (1 / lead), den * (1 / lead)


# -- cyclotomic normal form --------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d(t), constant term first.

    Derived on first use from t^d - 1 = prod over e | d of Phi_e(t).
    """
    poly = [-1] + [0] * (d - 1) + [1]
    for e in _binomial_phis(d, False)[:-1]:
        poly, _ = _divmod_monic(poly, cyclotomic(e))
    return tuple(poly)


@lru_cache(maxsize=None)
def _binomial_phis(n: int, plus: bool) -> tuple[int, ...]:
    """The d with Phi_d dividing t^n - 1 (plus False) or t^n + 1 (plus True), n > 0:
    the divisors of n, or the divisors of 2n that do not divide n."""
    if plus:
        return tuple(d for d in _binomial_phis(2 * n, False) if n % d)
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _divmod_monic(p: list, m: tuple[int, ...]) -> tuple[list, list]:
    """Long division of p by the monic m; coefficient lists, constant term first."""
    rem = list(p)
    n = len(m) - 1
    quo = [0] * max(len(rem) - n, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + n]
        if c:
            quo[i] = c
            for j in range(n + 1):
                rem[i + j] -= c * m[j]
    return quo, rem[:n]


def _phi_product(powers: Iterable[tuple[int, int]]) -> list[int]:
    """Integer coefficients of prod Phi_d(t)^m over (d, m) with m > 0."""
    out = [1]
    for d, m in powers:
        terms = [(j, c) for j, c in enumerate(cyclotomic(d)) if c]
        for _ in range(m):
            prod = [0] * (len(out) + terms[-1][0])
            for j, c in terms:
                for i, v in enumerate(out, j):
                    prod[i] += c * v
            out = prod
    return out


class PhiForm(NamedTuple):
    """constant * t^shift * prod of Phi_d(t)^m over the pairs (d, m) in phis.

    ``phis`` is sorted by d and holds no zero multiplicity, so two forms are
    equal exactly when the rational functions they stand for are.  A named
    tuple rather than a dataclass: it is built on every reduction, and its
    class costs less to create at import.
    """

    constant: Fraction
    shift: int = 0
    phis: tuple[tuple[int, int], ...] = ()

    def pair(self) -> tuple[QLaurent, QLaurent]:
        """Coprime (numerator, denominator) with a monic denominator of nonzero
        constant term: the unique pair ``reduce_pair`` also returns."""
        if self.constant == 0:
            return QLaurent.zero(), QLaurent.one()
        num = _phi_product((d, m) for d, m in self.phis if m > 0)
        den = _phi_product((d, -m) for d, m in self.phis if m < 0)
        c, k = self.constant, self.shift
        return (QLaurent({p + k: c * v for p, v in enumerate(num) if v}),
                QLaurent({p: v for p, v in enumerate(den) if v}))


@lru_cache(maxsize=None)
def _factor_cyclotomic(value: QLaurent) -> PhiForm:
    """Trial division by Phi_d for every d with phi(d) <= deg (such d satisfy
    d <= 2 deg^2); raises unless the nonzero value is c * t^k * prod Phi_d."""
    low = value.t_low_degree()
    rest = [Fraction(0)] * (value.t_degree() - low + 1)
    for p, c in value.coeffs.items():
        rest[p - low] = c
    constant = rest[-1]
    rest = [c / constant for c in rest]
    mults: dict[int, int] = {}
    d, bound = 1, 2 * (len(rest) - 1) ** 2
    while len(rest) > 1 and d <= bound:
        quo, rem = _divmod_monic(rest, cyclotomic(d))
        if quo and not any(rem):
            rest = quo
            mults[d] = mults.get(d, 0) + 1
        else:
            d += 1
    if len(rest) > 1:
        raise ValueError(f"{value} is not a product of cyclotomic polynomials in t")
    return PhiForm(constant, low, tuple(sorted(mults.items())))


# -- product expressions -----------------------------------------------------


@dataclass(frozen=True)
class Cyclo:
    """Factor q^e - 1 (sign +1) or q^e + 1 (sign -1), exponent affine in a."""

    exponent: LinExp
    sign: int = 1

    def exponent_at(self, a: Rat) -> Fraction:
        """The exponent e at a; raises when the factor is q^0 - 1 = 0."""
        e = self.exponent(a)
        if self.sign == 1 and e == 0:
            raise ZeroExponentError(f"factor q^({self.exponent}) - 1 vanishes at a={a}")
        return e

    def value_at(self, a: Rat) -> QLaurent:
        return cyclo_factor(self.exponent_at(a), self.sign)

    def degree_in_q(self, a: Rat) -> Fraction:
        """deg(q^e -+ 1) = e when e > 0, else 0 (the Laurent factor bottoms out)."""
        return max(self.exponent_at(a), Fraction(0))

    def phi_form(self, a: Rat) -> PhiForm:
        """t^E - 1 = prod over d | E of Phi_d and t^E + 1 = prod over d | 2E,
        d not dividing E, of Phi_d, for E = 4e > 0; a negative E contributes
        the monomial t^E and, for the minus sign, the sign -1."""
        big_e = _t_power(self.exponent_at(a))
        if big_e == 0:
            return PhiForm(Fraction(2))
        phis = tuple((d, 1) for d in _binomial_phis(abs(big_e), self.sign == -1))
        if big_e > 0:
            return PhiForm(Fraction(1), 0, phis)
        return PhiForm(Fraction(-self.sign), big_e, phis)

    def __str__(self) -> str:
        op = "-" if self.sign == 1 else "+"
        return f"(q^({self.exponent}){op}1)"


@dataclass(frozen=True)
class Literal:
    """An explicit polynomial factor, for shapes like q^2 - q + 1."""

    value: QLaurent

    def value_at(self, a: Rat) -> QLaurent:
        return self.value

    def degree_in_q(self, a: Rat) -> Fraction:
        return self.value.degree_in_q()

    def phi_form(self, a: Rat) -> PhiForm:
        """By trial division; a literal that is not cyclotomic raises ValueError."""
        if self.value.is_zero():
            raise ZeroExponentError(f"factor {self} vanishes at a={a}")
        return _factor_cyclotomic(self.value)

    def __str__(self) -> str:
        return f"({self.value})"


Factor = Union[Cyclo, Literal]


@dataclass(frozen=True)
class ProductExpr:
    """constant * q^prefactor * product of factors raised to integer powers.

    This is the shared wire format for point counts, group orders and
    character degrees: exponents are affine in the series parameter a and
    every evaluation is exact.
    """

    constant: Fraction = Fraction(1)
    prefactor_exponent: LinExp = LinExp(0)
    factors: tuple[tuple[Factor, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constant", _frac(self.constant))
        for _, m in self.factors:
            if m == 0:
                raise ValueError("factor multiplicity must be nonzero")

    def __mul__(self, other: "ProductExpr") -> "ProductExpr":
        return ProductExpr(self.constant * other.constant,
                           self.prefactor_exponent + other.prefactor_exponent,
                           self.factors + other.factors)

    def inverse(self) -> "ProductExpr":
        if self.constant == 0:
            raise ZeroDivisionError("inverting a zero expression")
        return ProductExpr(1 / self.constant, -self.prefactor_exponent,
                           tuple((f, -m) for f, m in self.factors))

    def __truediv__(self, other: "ProductExpr") -> "ProductExpr":
        return self * other.inverse()

    def expand(self, a: Rat) -> tuple[QLaurent, QLaurent]:
        """Multiply out at parameter a into an exact (numerator, denominator) pair.

        The constant and the q-prefactor are folded into the numerator (the
        prefactor into the denominator when its exponent is negative).
        """
        num = QLaurent.constant(self.constant)
        den = QLaurent.one()
        e = self.prefactor_exponent(a)
        if e >= 0:
            num = num * QLaurent.q_power(e)
        else:
            den = den * QLaurent.q_power(-e)
        for factor, mult in self.factors:
            base = factor.value_at(a)
            if base.is_zero():
                raise ZeroExponentError(f"factor {factor} vanishes at a={a}")
            if mult > 0:
                num = num * base ** mult
            else:
                den = den * base ** (-mult)
        return num, den

    def phi_form(self, a: Rat) -> PhiForm:
        """Cyclotomic normal form at parameter a; common factors cancel here."""
        constant = self.constant
        shift = _t_power(self.prefactor_exponent(a))
        mults: dict[int, int] = {}
        for factor, mult in self.factors:
            f = factor.phi_form(a)
            constant *= f.constant ** mult
            shift += f.shift * mult
            for d, m in f.phis:
                mults[d] = mults.get(d, 0) + m * mult
        if constant == 0:
            return PhiForm(constant)
        return PhiForm(constant, shift, tuple(sorted((d, m) for d, m in mults.items() if m)))

    def reduced(self, a: Rat) -> tuple[QLaurent, QLaurent]:
        """The coprime pair from the cyclotomic normal form; equal to
        ``reduce_pair(*self.expand(a))``, the division route."""
        return self.phi_form(a).pair()

    def reduce_to_polynomial(self, a: Rat) -> QLaurent:
        """The single reduced value; requires the denominator to divide exactly."""
        num, den = self.phi_form(a).pair()
        if den != QLaurent.one():
            # not a Laurent polynomial: the division route reports the remainder
            return exact_div(*self.expand(a))
        return num

    def degree_in_q(self, a: Rat) -> Fraction:
        """Exact q-degree of the reduced value at parameter a."""
        return self.prefactor_exponent(a) + sum(
            (f.degree_in_q(a) * mult for f, mult in self.factors), Fraction(0))

    def eval_at(self, a: Rat, q: Rat) -> Fraction:
        """Exact value at a positive rational q, factor by factor, unexpanded.

        A factor with a fractional power of q needs q to be a rational fourth
        power, even where such powers would cancel in the expanded product.
        """
        q = _frac(q)
        if q <= 0:
            raise ValueError("evaluation point must be positive")

        def power(e: Fraction) -> Fraction:
            if e.denominator == 1:
                return q ** int(e)
            return QLaurent.q_power(e).eval_at(q)   # the fourth-root rule

        num = self.constant * power(self.prefactor_exponent(a))
        den = Fraction(1)
        for factor, mult in self.factors:
            if isinstance(factor, Cyclo):
                v = power(factor.exponent_at(a)) - factor.sign
            else:
                v = factor.value.eval_at(q)
            if mult > 0:
                num *= v ** mult
            else:
                den *= v ** -mult
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}")
        return num / den

    def __str__(self) -> str:
        parts = []
        if self.constant != 1:
            parts.append(str(self.constant))
        if not (self.prefactor_exponent.c0 == 0 and self.prefactor_exponent.c1 == 0):
            parts.append(f"q^({self.prefactor_exponent})")
        for f, m in self.factors:
            parts.append(str(f) if m == 1 else f"{f}^{m}")
        return " * ".join(parts) if parts else "1"


def L(s: LinExp | Rat | str) -> LinExp:
    """Parse exponents written the way the tables print them: '3a/2+2', 'a/4', '11a+8'."""
    if isinstance(s, LinExp):
        return s
    if isinstance(s, (int, Fraction)):
        return LinExp(s)
    c0 = Fraction(0)
    c1 = Fraction(0)
    for term in re.findall(r"[+-]?[^+-]+", s.replace(" ", "")):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        if "a" in term:
            head, _, tail = term.partition("a")
            coeff = Fraction(head) if head else Fraction(1)
            if tail:
                if not tail.startswith("/"):
                    raise ValueError(f"cannot parse term {term!r}")
                coeff /= Fraction(tail[1:])
            c1 += sign * coeff
        else:
            c0 += sign * Fraction(term)
    return LinExp(c0, c1)


def _factors(entries, mult_sign: int, sign: int) -> tuple[tuple[Factor, int], ...]:
    out = []
    for entry in entries:
        mult = 1
        if isinstance(entry, tuple):
            entry, mult = entry
        out.append((Cyclo(L(entry), sign), mult_sign * mult))
    return tuple(out)


def pexpr(constant: Rat = 1, prefactor: LinExp | Rat | str = 0, num=(), den=(),
          num_plus=(), den_plus=(), literal_den: Iterable[QLaurent] = ()) -> ProductExpr:
    """Product expression from table-style exponents, the one builder.

    ``num``/``den`` hold (q^e - 1) factors, ``num_plus``/``den_plus`` hold
    (q^e + 1) factors, in that order; an entry is an exponent (a LinExp, a
    rational or a string for ``L``) or an (exponent, multiplicity) pair.
    """
    factors = _factors(num, 1, 1) + _factors(den, -1, 1) + \
        _factors(num_plus, 1, -1) + _factors(den_plus, -1, -1) + \
        tuple((Literal(v), -1) for v in literal_den)
    return ProductExpr(_frac(constant), L(prefactor), factors)


def random_qlaurent(rng, max_terms: int = 6, power_range: int = 12,
                    coeff_range: int = 9) -> QLaurent:
    """Random sample for ring-law property tests."""
    n = rng.randint(0, max_terms)
    terms = {}
    for _ in range(n):
        p = rng.randint(-power_range, power_range)
        c = Fraction(rng.randint(-coeff_range, coeff_range),
                     rng.randint(1, coeff_range))
        terms[p] = c
    return QLaurent(terms)
