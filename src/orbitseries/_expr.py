"""The registry's expression model: exponents affine in the parameter a
(``LinExp``, parsed by ``L``) and products of factors q^e -+ 1 and Phi_d(q)
(``ProductExpr``, built by ``pexpr``).  A lookup only stores and prints
them, so the methods that compute import ``exactpoly`` on first use
(``arithmetic()``), and ``exactpoly`` imports this module back.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Union

from ._records import Record

if TYPE_CHECKING:   # annotations only; exactpoly is imported on first use
    from .exactpoly import PhiForm, QLaurent


@lru_cache(maxsize=None)
def arithmetic():
    """The module ``exactpoly``, imported on the first call."""
    from . import exactpoly
    return exactpoly


Rat = Union[int, Fraction]


class ZeroExponentError(ValueError):
    """A product factor q^e - 1 degenerated to zero at the requested parameter."""


class FractionalPowerError(ValueError):
    """Evaluation point is not a perfect fourth power but fractional t-powers occur."""


def _frac(x: Rat) -> Fraction:
    """x as a Fraction; anything but an int or a Fraction is refused, so no
    float's binary expansion can enter an exact value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact arithmetic takes an int or a Fraction, not {type(x).__name__}")


def _nd(x: Rat) -> tuple[int, int]:
    """The numerator and denominator of an int or a Fraction, as ``_frac`` takes them."""
    return (int(x), 1) if isinstance(x, int) else _frac(x).as_integer_ratio()


def _t_power(e: Rat) -> int:
    """The t-power 4e of q^e; e must lie on the quarter lattice."""
    t = 4 * _frac(e)
    if t.denominator != 1:
        raise ValueError(f"exponent {e} not on the quarter-integer lattice")
    return int(t)


class LinExp(Record):
    """Affine function c0 + c1*a of the series parameter a.

    Held as integers, (n0 + n1*a)/d with d > 0 and gcd(n0, n1, d) = 1, which
    is canonical; ``c0`` and ``c1`` are Fraction-valued properties.
    Denominators divide 4 for every exponent used in this package, so
    evaluations at integer a land on the quarter lattice.
    """

    __slots__ = ("_n0", "_n1", "_d")
    _fields = ("c0", "c1")

    def __init__(self, c0: Rat, c1: Rat = 0):
        d = 1
        if type(c0) is not int or type(c1) is not int:
            c0, c1 = _frac(c0), _frac(c1)
            d = math.lcm(c0.denominator, c1.denominator)   # then the gcd is 1
            c0, c1 = c0.numerator * (d // c0.denominator), c1.numerator * (d // c1.denominator)
        object.__setattr__(self, "_n0", c0)
        object.__setattr__(self, "_n1", c1)
        object.__setattr__(self, "_d", d)

    @staticmethod
    def _of(n0: int, n1: int, d: int) -> "LinExp":
        """(n0 + n1*a)/d for any d > 0, brought to lowest terms."""
        g = math.gcd(n0, n1, d)
        x = LinExp(n0 // g, n1 // g)   # built with d = 1, then given its own
        object.__setattr__(x, "_d", d // g)
        return x

    c0 = property(lambda self: Fraction(self._n0, self._d))
    c1 = property(lambda self: Fraction(self._n1, self._d))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._n0, self._n1, self._d) == (other._n0, other._n1, other._d)
        return NotImplemented

    __hash__ = Record.__hash__

    def _ratio(self, a: Rat) -> tuple[int, int]:
        """self(a) as an integer numerator and a positive denominator, for
        any rational a."""
        if isinstance(a, int):
            return self._n0 + self._n1 * a, self._d
        n, d = _nd(a)
        return self._n0 * d + self._n1 * n, self._d * d

    def __call__(self, a: Rat) -> Fraction:
        return Fraction(*self._ratio(a))

    def t_power(self, a: Rat) -> int:
        """The t-power 4 * self(a), in integer arithmetic for any rational a;
        raises ValueError off the quarter lattice, as ``_t_power`` does."""
        num, den = self._ratio(a)
        big_e, rem = divmod(4 * num, den)
        if rem:
            raise ValueError(f"exponent {self(a)} not on the quarter-integer lattice")
        return big_e

    def __add__(self, other: "LinExp | Rat") -> "LinExp":
        if isinstance(other, LinExp):
            n0, n1, d = other._n0, other._n1, other._d
        else:
            (n0, d), n1 = _nd(other), 0
        return LinExp._of(self._n0 * d + n0 * self._d, self._n1 * d + n1 * self._d, self._d * d)

    __radd__ = __add__

    def __sub__(self, other: "LinExp | Rat") -> "LinExp":
        return self + -(other if isinstance(other, (LinExp, int)) else _frac(other))

    def __neg__(self) -> "LinExp":
        return LinExp._of(-self._n0, -self._n1, self._d)

    def __rsub__(self, other: Rat) -> "LinExp":
        return -self + other

    def __mul__(self, k: Rat) -> "LinExp":
        n, d = _nd(k)
        return LinExp._of(self._n0 * n, self._n1 * n, self._d * d)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.c1 == 0:
            return str(self.c0)
        s = "a" if self.c1 == 1 else f"{self.c1}a"
        if self.c0 == 0:
            return s
        return f"{s}{'+' if self.c0 > 0 else '-'}{abs(self.c0)}"



# -- product expressions -----------------------------------------------------


class Cyclo(NamedTuple):
    """Factor q^e - 1 (sign +1) or q^e + 1 (sign -1), exponent affine in a."""

    exponent: LinExp
    sign: int = 1

    def _vanishes(self, a: Rat) -> ZeroExponentError:
        return ZeroExponentError(f"factor q^({self.exponent}) - 1 vanishes at a={a}")

    def __str__(self) -> str:
        op = "-" if self.sign == 1 else "+"
        return f"(q^({self.exponent}){op}1)"


class QPhi(NamedTuple):
    """The factor Phi_d(q), for shapes like q^2 - q + 1 = Phi_6(q)."""

    d: int

    @property
    def value(self) -> QLaurent:
        """Phi_d(q), that is Phi_d(t) spread to the t-powers 4i."""
        ep = arithmetic()
        return ep.QLaurent({4 * i: v for i, v in enumerate(ep.cyclotomic(self.d))})

    def __str__(self) -> str:
        return f"({self.value})"


Factor = Union[Cyclo, QPhi]


class ProductExpr(Record):
    """constant * q^prefactor * product of factors raised to integer powers.

    This is the shared wire format for point counts, group orders and
    character degrees: exponents are affine in the series parameter a and
    every evaluation is exact.
    """

    __slots__ = _fields = ("constant", "prefactor_exponent", "factors")

    def __init__(self, constant: Rat = 1, prefactor_exponent: LinExp = LinExp(0),
                 factors: tuple[tuple[Factor, int], ...] = ()):
        object.__setattr__(self, "constant", _frac(constant))
        factors = tuple(factors)
        for f, m in factors:
            if operator.index(m) == 0:
                raise ValueError("factor multiplicity must be nonzero")
            if type(f) not in (Cyclo, QPhi):
                raise TypeError(f"a product factor is a Cyclo or a QPhi, not {type(f).__name__}")
            if type(f) is Cyclo and not isinstance(f.exponent, LinExp):
                raise TypeError(f"{f!r}: a Cyclo exponent is a LinExp")
            if type(f) is Cyclo and operator.index(f.sign) not in (1, -1) or \
                    type(f) is QPhi and operator.index(f.d) < 1:
                raise ValueError(f"{f!r}: a Cyclo sign is +1 or -1 and a QPhi d at least 1")
        if not isinstance(prefactor_exponent, LinExp):
            raise TypeError("a prefactor exponent is a LinExp, not "
                            f"{type(prefactor_exponent).__name__}")
        object.__setattr__(self, "prefactor_exponent", prefactor_exponent)
        object.__setattr__(self, "factors", factors)

    def __mul__(self, other: "ProductExpr") -> "ProductExpr":
        if not isinstance(other, ProductExpr):
            return NotImplemented
        return ProductExpr(self.constant * other.constant,
                           self.prefactor_exponent + other.prefactor_exponent,
                           self.factors + other.factors)

    def inverse(self) -> "ProductExpr":
        if self.constant == 0:
            raise ZeroDivisionError("inverting a zero expression")
        return ProductExpr(1 / self.constant, -self.prefactor_exponent,
                           tuple((f, -m) for f, m in self.factors))

    def __truediv__(self, other: "ProductExpr") -> "ProductExpr":
        return self * other.inverse() if isinstance(other, ProductExpr) else NotImplemented

    def expand(self, a: Rat) -> tuple[QLaurent, QLaurent]:
        """Multiply out at parameter a into an exact (numerator, denominator) pair.

        The constant and the q-prefactor are folded into the numerator (the
        prefactor into the denominator when its exponent is negative); a
        factor is q^e - sign, refused when that is q^0 - 1 = 0, or Phi_d(q).
        """
        QLaurent = arithmetic().QLaurent
        num = QLaurent.constant(self.constant)
        den = QLaurent.one()
        e = self.prefactor_exponent(a)
        if e >= 0:
            num = num * QLaurent.q_power(e)
        else:
            den = den * QLaurent.q_power(-e)
        for factor, mult in self.factors:
            if isinstance(factor, Cyclo):
                e = factor.exponent(a)
                if factor.sign == 1 and e == 0:
                    raise factor._vanishes(a)
                base = QLaurent.q_power(e) - factor.sign
            else:
                base = factor.value
            if mult > 0:
                num = num * base ** mult
            else:
                den = den * base ** (-mult)
        return num, den

    def phi_form(self, a: Rat) -> PhiForm:
        """Cyclotomic normal form at parameter a; common factors cancel here.

        For E = 4e > 0, t^E - 1 is the product of Phi_d over d | E and t^E + 1
        that over d | 2E not dividing E; a negative E adds the monomial t^E
        and, for the minus sign, the sign -1, and q^0 + 1 is the constant 2.
        Only those rare factors touch the rational constant."""
        ep = arithmetic()
        constant = self.constant
        shift = self.prefactor_exponent.t_power(a)
        mults: dict[int, int] = {}
        for factor, mult in self.factors:
            if not isinstance(factor, Cyclo):   # Phi_d(q) = prod (q^n - 1)^mu(d/n)
                for n, mu in ep._moebius_binomials(factor.d):
                    for d in ep._binomial_phis(4 * n, False):
                        mults[d] = mults.get(d, 0) + mu * mult
                continue
            big_e = factor.exponent.t_power(a)
            if big_e == 0:
                if factor.sign == 1:
                    raise factor._vanishes(a)
                constant *= Fraction(2) ** mult
                continue
            if big_e < 0:
                shift += big_e * mult
                if factor.sign == 1 and mult % 2:
                    constant = -constant
            for d in ep._binomial_phis(abs(big_e), factor.sign == -1):
                mults[d] = mults.get(d, 0) + mult
        # the product sorts the multiplicities by d and drops the zero ones
        return ep.PhiForm(constant, shift) * ep.PhiForm(Fraction(1), 0, tuple(mults.items()))

    def reduced(self, a: Rat) -> tuple[QLaurent, QLaurent]:
        """The coprime pair from the cyclotomic normal form; equal to
        ``reduce_pair(*self.expand(a))``, the division route."""
        return self.phi_form(a).pair()

    def degree_in_q(self, a: Rat) -> Fraction:
        """Exact q-degree of the reduced value at parameter a, read off the
        cyclotomic normal form."""
        return self.phi_form(a).degree_in_q()

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
    if not isinstance(s, str):
        return LinExp(s)
    return _parse_exponent(s)


# one signed term: an integer or a fraction ('3', '3/2'), or a with an
# optional coefficient before it or divisor after it ('a', '3a', '3/2a',
# '3a/2'); ASCII digits only, and spaces only around a sign
_TERM = re.compile(r" *([+-]?) *(?:([0-9]*)(a)(?:/([0-9]+))?|([0-9]+)(?:/([0-9]+))?(a?)) *")


@lru_cache(maxsize=None)
def _parse_exponent(s: str) -> LinExp:
    """``L`` on a string, summed as integers over one denominator; memoized,
    as the registry repeats its exponents and a LinExp is immutable.  The
    text must be one term or more, each after the first with its sign, and
    nothing else."""
    n, d, pos = [0, 0], 1, 0    # the numerators of c0 and c1 over d
    while not pos or pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or pos and not m[1]:
            raise ValueError(f"cannot parse exponent {s!r}")
        sign, p1, a1, r1, p2, r2, a2 = m.groups()
        p, r = int(p1 or p2 or 1), int(r1 or r2 or 1)   # the coefficient p/r
        if not r:
            raise ZeroDivisionError(f"division by zero in {s!r}")
        n = [x * r for x in n]
        n[bool(a1 or a2)] += (-p if sign == "-" else p) * d
        d *= r
        pos = m.end()
    return LinExp._of(*n, d)


def _factors(entries, mult_sign: int, sign: int) -> tuple[tuple[Factor, int], ...]:
    out = []
    for entry in entries:
        mult = 1
        if isinstance(entry, tuple):
            entry, mult = entry
        out.append((Cyclo(L(entry), sign), mult_sign * mult))
    return tuple(out)


def pexpr(constant: Rat = 1, prefactor: LinExp | Rat | str = 0, num=(), den=(),
          num_plus=(), den_plus=(), phi_den: Iterable[int] = ()) -> ProductExpr:
    """Product expression from table-style exponents, the one builder.

    ``num``/``den`` hold (q^e - 1) factors, ``num_plus``/``den_plus`` hold
    (q^e + 1) factors, in that order; an entry is an exponent (a LinExp, a
    rational or a string for ``L``) or an (exponent, multiplicity) pair.
    ``phi_den`` holds the d of (Phi_d(q)) factors, which come last.
    """
    factors = _factors(num, 1, 1) + _factors(den, -1, 1) + \
        _factors(num_plus, 1, -1) + _factors(den_plus, -1, -1) + \
        tuple((QPhi(d), -1) for d in phi_den)
    return ProductExpr(_frac(constant), L(prefactor), factors)
