"""Exact Laurent-polynomial arithmetic in t = q^(1/4).

A polynomial is one rational content times t^low times integer coefficients
with gcd 1 and a positive leading entry.  Products, sums, division and
evaluation (Horner's rule) run on those integers, and a ``Fraction`` is built
only for the content and for a returned value; there is no floating point
anywhere in this package.  The quarter-power lattice is the coarsest one on
which every exponent we ever evaluate (half- and quarter-integer powers of q,
for parameter values a in {1, 2, 4, 8}) stays integral in t.

The expressions it computes with, ``LinExp`` and ``ProductExpr``, live in
``_expr``, which imports this module only to compute.

Product expressions reduce through their cyclotomic normal form: at fixed a
every factor q^e -+ 1 is a signed monomial times a product of cyclotomic
polynomials Phi_d(t), as is the factor Phi_d(q) (``QPhi``), so an expression
is c * t^k * prod Phi_d(t)^(m_d), the notation of Carter, *Finite Groups of
Lie Type* (1985), section 13.9, and of CHEVIE's ``CycPol``
(Geck-Hiss-Luebeck-Malle-Pfeiffer 1996).  Cancelling common factors is then
subtraction of the multiplicities m_d.  By Moebius inversion prod Phi_d^(m_d)
= prod (t^n - 1)^(E_n) with E_n = sum over n | d of mu(d/n) m_d, which is
unique, so whether a form is a polynomial in q, its values and its lowest
power are read off the E_n (``PhiForm``), and a reduced result is multiplied
out only when asked, over the integers and without a general multiplication:
``_phi_product`` shifts and subtracts once per factor t^n - 1 with E_n > 0,
then divides by each one with E_n < 0 in n strided prefix sums.
``cyclotomic(d)`` is the same kernel at a single Phi_d.  General products
(``QLaurent.__mul__``) are schoolbook products over the nonzero entries of
each factor (``_mul``).  The division route (``ProductExpr.expand``,
``poly_gcd``, ``exact_div``, ``reduce_pair``) stays as the independent oracle
the tests compare against, and reduces sums, which have no such form;
``PhiForm.polynomial`` never takes it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

# the expression model, imported back: exactpoly.ProductExpr is _expr.ProductExpr
from ._expr import (Cyclo, FractionalPowerError, L, LinExp, ProductExpr, QPhi, Rat,
                    ZeroExponentError, _frac, _nd, _t_power, pexpr)


class NotDivisibleError(ArithmeticError):
    """Exact division failed; carries the nonzero remainder."""

    def __init__(self, remainder: "QLaurent"):
        super().__init__(f"not divisible, remainder {remainder}")
        self.remainder = remainder


class QLaurent:
    """Laurent polynomial in t = q^(1/4) with rational coefficients.

    Stored in one canonical integer form, ``content * t^low * sum c[i] t^i``:
    ``content`` is a nonzero Fraction and ``c`` a tuple of integers with gcd
    1, nonzero ends and a positive last entry; zero is content 0 with
    ``c = ()``.  Equal polynomials therefore have equal fields.  A power of q
    with exponent e corresponds to t-power 4e.  Instances are immutable.
    """

    __slots__ = ("content", "low", "c")

    def __init__(self, coeffs: Mapping[int, Rat]):
        terms = {operator.index(p): _frac(v) for p, v in coeffs.items()}
        den = math.lcm(*(v.denominator for v in terms.values()))
        low = min(terms, default=0)
        c = [0] * (max(terms, default=0) - low + 1)
        for p, v in terms.items():
            c[p - low] = v.numerator * (den // v.denominator)
        self.content, self.low, self.c = _normal(Fraction(1, den), low, c)

    @classmethod
    def _of(cls, content: Fraction, low: int, c: tuple[int, ...]) -> "QLaurent":
        """The polynomial with these fields, which must already be canonical."""
        p = object.__new__(cls)
        p.content, p.low, p.c = content, low, c
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QLaurent":
        return QLaurent._of(Fraction(0), 0, ())

    @staticmethod
    def one() -> "QLaurent":
        return QLaurent._of(Fraction(1), 0, (1,))

    @staticmethod
    def constant(c: Rat) -> "QLaurent":
        return _canonical(_frac(c), 0, (1,))

    @staticmethod
    def q_power(e: Rat) -> "QLaurent":
        """The monomial q^e; e must lie on the quarter lattice."""
        return QLaurent._of(Fraction(1), _t_power(e), (1,))

    @staticmethod
    def from_q_terms(terms: Mapping[Rat, Rat]) -> "QLaurent":
        return QLaurent({_t_power(e): c for e, c in terms.items()})

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return {self.low + i: self.content * v for i, v in enumerate(self.c) if v}

    def is_zero(self) -> bool:
        return not self.c

    def is_q_polynomial(self) -> bool:
        """True iff every monomial is a nonnegative integer power of q."""
        return self.low >= 0 and self.is_laurent_in_q()

    def is_laurent_in_q(self) -> bool:
        return self.low % 4 == 0 and not any(any(self.c[r::4]) for r in (1, 2, 3))

    def t_degree(self) -> int:
        if not self.c:
            raise ValueError("degree of the zero polynomial")
        return self.low + len(self.c) - 1

    def t_low_degree(self) -> int:
        if not self.c:
            raise ValueError("degree of the zero polynomial")
        return self.low

    def degree_in_q(self) -> Fraction:
        return Fraction(self.t_degree(), 4)

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QLaurent):
            return (self.content, self.low, self.c) == (other.content, other.low, other.c)
        if isinstance(other, (int, Fraction)):
            return self == QLaurent.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.content, self.low, self.c))

    def __add__(self, other: "QLaurent | Rat") -> "QLaurent":
        if not isinstance(other, QLaurent):
            other = QLaurent.constant(other)
        # over the common denominator of the two contents
        den = math.lcm(self.content.denominator, other.content.denominator)
        low = min(self.low, other.low)
        out = [0] * (max(self.low + len(self.c), other.low + len(other.c)) - low)
        for p in (self, other):
            k = p.content.numerator * (den // p.content.denominator)
            for i, v in enumerate(p.c, p.low - low):
                out[i] += k * v
        return _canonical(Fraction(1, den), low, out)

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return QLaurent._of(-self.content, self.low, self.c)

    def __sub__(self, other: "QLaurent | Rat") -> "QLaurent":
        return self + (-other if isinstance(other, QLaurent) else QLaurent.constant(-_frac(other)))

    def __rsub__(self, other: Rat) -> "QLaurent":
        return QLaurent.constant(other) - self

    def __mul__(self, other: "QLaurent | Rat") -> "QLaurent":
        if not isinstance(other, QLaurent):
            return _canonical(self.content * _frac(other), self.low, self.c)
        if not (self.c and other.c):
            return QLaurent.zero()
        # Gauss's lemma: the product of primitive polynomials is primitive
        return QLaurent._of(self.content * other.content, self.low + other.low,
                            _mul(self.c, other.c))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            raise ValueError("negative powers are not closed in the Laurent ring")
        out = QLaurent.one()
        for _ in range(n):
            out = out * self
        return out

    def shift_t(self, k: int) -> "QLaurent":
        return QLaurent._of(self.content, self.low + k, self.c) if self.c else self

    # -- evaluation and printing -------------------------------------------

    def eval_at(self, q: Rat) -> Fraction:
        """Exact value at a positive rational q.

        Works directly when all powers are integral in q; otherwise requires
        q to be a perfect fourth power of a rational so that t is rational.
        Horner's rule evaluates the integer part P at x = n/d as
        d^deg P(n/d) in integers, where x is q when every t-power is a
        multiple of 4 and t otherwise; one Fraction is built for the value.
        """
        n, d = _nd(q)
        if n <= 0:
            raise ValueError("evaluation point must be positive")
        step = 4
        if not self.is_laurent_in_q():
            r, s = (math.isqrt(math.isqrt(m)) for m in (n, d))
            if (r ** 4, s ** 4) != (n, d):
                raise FractionalPowerError(
                    f"fractional q-powers present and {q} is not a rational fourth power")
            n, d, step = r, s, 1
        skip = -self.low % step    # terms off the x-lattice are zero
        acc, scale = 0, 1
        for v in reversed(self.c[skip::step]):
            acc, scale = acc * n + v * scale, scale * d
        num, den = self.content.numerator * acc * d, self.content.denominator * scale
        k = (self.low + skip) // step
        n, d, k = (n, d, k) if k >= 0 else (d, n, -k)
        return Fraction(num * n ** k, den * d ** k)

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for p, c in sorted(self.coeffs.items(), reverse=True):
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
        return [(p, c.numerator, c.denominator) for p, c in sorted(self.coeffs.items())]

    @staticmethod
    def from_triples(triples: Iterable[tuple[int, int, int]]) -> "QLaurent":
        return QLaurent({p: Fraction(n, d) for p, n, d in triples})


def _normal(content: Fraction, low: int,
            c: Sequence[int]) -> tuple[Fraction, int, tuple[int, ...]]:
    """The canonical fields of content * t^low * sum c[i] t^i."""
    nonzero = [i for i, v in enumerate(c) if v]
    if not (nonzero and content):
        return Fraction(0), 0, ()
    c = c[nonzero[0]:nonzero[-1] + 1]
    g = math.gcd(*c) if c[-1] > 0 else -math.gcd(*c)
    return content * g, low + nonzero[0], tuple(v // g for v in c)


def _canonical(content: Fraction, low: int, c: Sequence[int]) -> QLaurent:
    return QLaurent._of(*_normal(content, low, c))


def _mul(*polys: Sequence[int]) -> tuple[int, ...]:
    """Product of nonempty integer coefficient lists, constant term first:
    each nonzero entry v = f[j] of a factor adds v times the product so far,
    shifted by j.  The factors met here are sparse (powers of q^e -+ 1), so
    the loop runs over few entries."""
    out = [1]
    for f in polys:
        acc = [0] * (len(out) + len(f) - 1)
        for j, v in enumerate(f):
            if v:
                for i, u in enumerate(out, j):
                    acc[i] += v * u
        out = acc
    return tuple(out)


# -- exact division and gcd --------------------------------------------------


def _divmod(p: Sequence[int], m: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer coefficient lists, constant term first:
    (quo, rem, s) with s * p = quo * m + rem, rem shorter than m and s the
    power of m's leading entry that makes every step exact (1 if m is monic)."""
    n, lead = len(m) - 1, m[-1]
    quo = [0] * max(len(p) - n, 0)
    s = lead ** len(quo)
    rem = [s * v for v in p]
    terms = [(j, v) for j, v in enumerate(m[:-1]) if v]
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + n] // lead
        if c:
            for j, v in terms:
                rem[i + j] -= c * v
    return quo, rem[:n], s


def exact_div(n: QLaurent, d: QLaurent) -> QLaurent:
    """Quotient n/d when d divides n exactly in the Laurent ring.

    Raises NotDivisibleError (carrying the remainder) otherwise.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if n.is_zero():
        return QLaurent.zero()
    # Laurent units are monomials, so only the integer parts divide
    quo, rem, s = _divmod(n.c, d.c)
    if any(rem):
        raise NotDivisibleError(_canonical(n.content / s, 0, rem))
    return _canonical(n.content / (d.content * s), n.low - d.low, quo)


def poly_gcd(x: QLaurent, y: QLaurent) -> QLaurent:
    """Monic gcd in Q[t], with Laurent inputs normalized by unit monomials:
    Euclid on the integer parts, each remainder made canonical (dividing out
    a power of t keeps the gcd, as no integer part is divisible by t)."""
    a, b = x.c, y.c
    while b:
        a, b = b, _normal(1, 0, _divmod(a, b)[1])[2]
    return QLaurent._of(Fraction(1, a[-1]), 0, a) if a else QLaurent.zero()


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
    num, den = exact_div(num, g), exact_div(den, g)
    # normalize: denominator monic with t_low_degree 0
    lead = den.content * den.c[-1]
    return num.shift_t(-den.low) * (1 / lead), den.shift_t(-den.low) * (1 / lead)


# -- cyclotomic normal form --------------------------------------------------

def cyclotomic(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d(t), constant term first, for d >= 1."""
    if d < 1:
        raise ValueError(f"cyclotomic polynomial Phi_{d} needs d >= 1")
    return _phi_product(((d, 1),))


@lru_cache(maxsize=None)
def _binomial_phis(n: int, plus: bool) -> tuple[int, ...]:
    """The d with Phi_d dividing t^n - 1 (plus False) or t^n + 1 (plus True), n > 0:
    the divisors of n, or the divisors of 2n that do not divide n."""
    if plus:
        return tuple(d for d in _binomial_phis(2 * n, False) if n % d)
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def _moebius_binomials(d: int) -> tuple[tuple[int, int], ...]:
    """The pairs (n, mu(d/n)) with mu(d/n) nonzero, so that Phi_d(t) = prod
    (t^n - 1)^mu(d/n): n runs over d divided by squarefree divisors of d."""
    primes = [p for p in range(2, d + 1)
              if d % p == 0 and all(p % r for r in range(2, math.isqrt(p) + 1))]
    return tuple((d // math.prod(s), (-1) ** k)
                 for k in range(len(primes) + 1) for s in combinations(primes, k))


@lru_cache(maxsize=None)
def _binomial_exponents(powers: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The (n, E_n), E_n nonzero, with prod Phi_d(t)^m over powers equal to
    prod (t^n - 1)^(E_n): E_n sums mu(d/n) m over n | d, and is unique."""
    exps: dict[int, int] = {}
    for d, m in powers:
        for n, mu in _moebius_binomials(d):
            exps[n] = exps.get(n, 0) + mu * m
    return tuple((n, e) for n, e in exps.items() if e)


@lru_cache(maxsize=None)
def _phi_product(powers: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Integer coefficients of prod Phi_d(t)^m over (d, m) with m > 0: monic,
    hence primitive, with constant term +-1.

    The product is +-prod (1 - t^n)^(E_n) (``_binomial_exponents``).
    Multiplying by 1 - t^n is one shift-and-subtract; dividing by it is a
    prefix sum along each residue class mod n, and the top n sums are the
    remainder, which must vanish.  Both run on the factor's own coefficients,
    so no bound on their size is needed.  With g the gcd of the n with E_n
    nonzero, the product is a polynomial in s = t^g: the steps run on the
    exponents n/g and the result is spread with stride g."""
    exps = _binomial_exponents(powers)
    g = math.gcd(*(n for n, _ in exps)) or 1
    poly = [1]
    for n, e in exps:
        for _ in range(e):
            k = n // g
            poly = list(map(operator.sub, poly + [0] * k, [0] * k + poly))
    for n, e in exps:
        for _ in range(-e):
            # p = quo * (1 - s^k) gives quo_i = p_i + quo_(i-k)
            k = n // g
            for r in range(k):
                poly[r::k] = accumulate(poly[r::k])
            if any(poly[-k:]):
                raise ArithmeticError(f"t^{n} - 1 does not divide the product")
            del poly[-k:]
    if g > 1:
        poly, spread = [0] * (g * len(poly) - g + 1), poly
        poly[::g] = spread
    return tuple(poly) if poly[-1] > 0 else tuple(map(operator.neg, poly))


class PhiForm(NamedTuple):
    """constant * t^shift * prod of Phi_d(t)^m over the pairs (d, m) in phis.

    ``phis`` is sorted by d and holds no zero multiplicity, so two forms are
    equal exactly when the rational functions they stand for are.  Only
    ``pair`` and ``polynomial`` multiply out; the other methods read the form
    as constant * t^shift * prod (t^n - 1)^(E_n) (``_binomial_exponents``).
    """

    constant: Fraction
    shift: int = 0
    phis: tuple[tuple[int, int], ...] = ()

    def __mul__(self, other: "PhiForm") -> "PhiForm":
        constant, mults = self.constant * other.constant, dict(self.phis)
        for d, m in other.phis:
            mults[d] = mults.get(d, 0) + m
        if not constant:
            return PhiForm(constant)
        return PhiForm(constant, self.shift + other.shift,
                       tuple(sorted((d, m) for d, m in mults.items() if m)))

    def __truediv__(self, other: "PhiForm") -> "PhiForm":
        inverse = tuple((d, -m) for d, m in other.phis)
        return self * PhiForm(Fraction(1) / other.constant, -other.shift, inverse)

    def is_q_polynomial(self) -> bool:
        """True iff no Phi_d divides the denominator and t^shift and each t^n - 1
        with E_n nonzero are in q (exact, as the expansion is unique)."""
        return (self.shift >= 0 and not self.shift % 4 and all(m > 0 for _, m in self.phis)
                and not any(n % 4 for n, _ in _binomial_exponents(self.phis)))

    def value_at(self, q: int) -> Fraction:
        """The exact value at an integer q, constant * q^(shift/4) * prod
        (q^(n/4) - 1)^(E_n), where every power of q must be integral.  At
        q = 1 it is 0 when Phi_1 divides the numerator and else the limit,
        constant * prod n^(E_n), fractional powers or not."""
        if type(q) is not int:   # True and 1.0 would pass the q = 1 branch
            raise TypeError(f"value_at takes an int q, not {type(q).__name__}")
        exps = _binomial_exponents(self.phis)
        if q == 1:   # each t^n - 1 is t - 1 times a sum of n powers of t
            factors = exps + ((0, sum(e for _, e in exps)),)
        elif self.shift % 4 or any(n % 4 for n, _ in exps):
            raise FractionalPowerError(f"fractional q-powers present at q={q}")
        else:
            factors = ((q, self.shift // 4),) + tuple((q ** (n // 4) - 1, e) for n, e in exps)
        num, den = self.constant.as_integer_ratio()
        return Fraction(num * math.prod(v ** e for v, e in factors if e > 0),
                        den * math.prod(v ** -e for v, e in factors if e < 0))

    def low_degree_in_q(self) -> Fraction:
        """The lowest power of q in the numerator: each Phi_d has constant term +-1."""
        return Fraction(self.shift, 4)

    def pair(self) -> tuple[QLaurent, QLaurent]:
        """Coprime (numerator, denominator) with a monic denominator of nonzero
        constant term: the unique pair ``reduce_pair`` also returns."""
        if self.constant == 0:
            return QLaurent.zero(), QLaurent.one()
        num = _phi_product(tuple((d, m) for d, m in self.phis if m > 0))
        den = _phi_product(tuple((d, -m) for d, m in self.phis if m < 0))
        return (QLaurent._of(_frac(self.constant), self.shift, num),
                QLaurent._of(Fraction(1), 0, den))

    def polynomial(self) -> QLaurent:
        """The multiplied-out value.  Raises NotDivisibleError when the reduced
        denominator is not 1, carrying the remainder of the numerator's integer
        part by that monic denominator, nonzero because the pair is coprime."""
        num, den = self.pair()
        if den != QLaurent.one():
            raise NotDivisibleError(_canonical(num.content, 0, _divmod(num.c, den.c)[1]))
        return num
