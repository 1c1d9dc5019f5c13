"""The base of the records whose constructor normalises or validates its fields.

A record that checks its fields is a ``Record``; every other record is a
plain ``typing.NamedTuple``.  A ``Record`` is not a sequence: with no
``_make``, ``_replace``, iteration or tuple arithmetic, its constructor is
the only way to build one.

The registry's record types live here too, and ``partitions`` and
``rootsystems`` import them back: a lookup compiles neither module.
"""

from __future__ import annotations

import operator
import re
from itertools import chain
from typing import Iterable


class Record:
    """Immutable values in ``__slots__``, set once by the constructor with
    ``object.__setattr__``; ``_fields`` names the public fields in order.

    A record equals only records of its class, hashes as the tuple of its
    fields, and is copied and pickled through its constructor.  A field is
    usually a slot, and ``__slots__`` may add derived values, which repr,
    equality, hash and pickle ignore; a field may also be a property computed
    from the slots, as ``LinExp``'s ``c0`` and ``c1`` are.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one C getter per class, which returns the field itself when there
        # is one: the sweeps compare partitions in their inner loops
        cls._key = get = operator.attrgetter(*cls._fields)
        cls._values = get if len(cls._fields) > 1 else \
            staticmethod(lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


# -- orbit data of the classical families ------------------------------------


class InvalidPartitionError(ValueError):
    """The partition violates the validity rule of the requested family."""


class SizeMismatchError(ValueError):
    pass


class NotAdjacentCellsError(ValueError):
    pass


class Partition(Record):
    """A weakly decreasing tuple of positive integers.

    The sweeps ask one partition for the same numbers in every validate and
    every closed form, so it computes them once, when it is built: ``_size``;
    ``_tsq`` = Σ_j λ'_j², read off the parts as Σ_i (2i-1)λ_i = |λ| + 2n(λ),
    largest part first (Macdonald, *Symmetric Functions and Hall
    Polynomials*, I (1.6)); ``_odd``, the number of odd parts; and
    ``_odd_mult[r]``, whether some part of parity r occurs an odd number of
    times.  ``_twice``, the partition ``repeat_twice`` returns, is kept on
    first use: five of the nine magic-square cells ask for it.
    """

    _fields = ("parts",)
    __slots__ = _fields + ("_size", "_tsq", "_odd", "_odd_mult", "_twice")

    def __init__(self, parts: Iterable[int]):
        try:
            p = tuple(sorted(map(operator.index, parts), reverse=True))
        except TypeError:
            raise ValueError("parts must be integers") from None
        if p and p[-1] <= 0:
            raise ValueError("parts must be positive")
        odd, odd_mult = 0, [False, False]
        for d in set(p):
            m = p.count(d)
            odd += m * (d % 2)
            odd_mult[d % 2] |= m % 2 == 1
        self._set(p, sum(p), sum(map(operator.mul, range(1, 2 * len(p), 2), p)),
                  odd, tuple(odd_mult))

    def _set(self, parts, size, tsq, odd, odd_mult) -> None:
        put = object.__setattr__
        put(self, "parts", parts)
        put(self, "_size", size)
        put(self, "_tsq", tsq)
        put(self, "_odd", odd)
        put(self, "_odd_mult", odd_mult)

    def multiplicity(self, i: int) -> int:
        """r_i, the number of parts equal to i."""
        return self.parts.count(i)

    def repeat_twice(self) -> "Partition":
        """Each part twice, built on the first call and then returned again.
        No sort is needed, and the invariants follow from this partition's:
        each column of the diagram doubles, so Σλ'² quadruples, and every
        multiplicity is even."""
        try:
            return self._twice
        except AttributeError:
            pass
        p = self.parts
        twice = Partition.__new__(Partition)
        twice._set(tuple(chain.from_iterable(zip(p, p))), 2 * self._size,
                   4 * self._tsq, 2 * self._odd, (False, False))
        object.__setattr__(self, "_twice", twice)
        return twice

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"


def partition(*parts: int) -> Partition:
    return Partition(parts)


# kind -> the parity whose parts must occur an even number of times, as an
# index into ``Partition._odd_mult`` (Collingwood–McGovern §5.1), or None
_PARITY_RULES = {"sl": None, "so": 0, "sp": 1, "2sl": None}


class Family(Record):
    """One classical family: sl_n, so_n, sp_2n, or the doubled 2sl_n cell.

    ``kind`` is "sl", "so", "sp" or "2sl"; ``n`` is the matrix size (for sp
    the full even size 2n); ``_rule`` keeps the kind's ``_PARITY_RULES``."""

    _fields = ("kind", "n")
    __slots__ = _fields + ("_rule",)

    def __init__(self, kind: str, n: int):
        if kind not in ("sl", "so", "sp", "2sl"):
            raise ValueError(f"unknown family kind {kind!r}")
        size = operator.index(n) if hasattr(type(n), "__index__") else -1
        if size < 0:
            raise ValueError(f"matrix size n must be a non-negative integer, not {n!r}")
        if kind == "sp" and size % 2:
            raise ValueError("sp requires even matrix size")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", size)
        object.__setattr__(self, "_rule", _PARITY_RULES[kind])

    @property
    def dim(self) -> int:
        n = self.n
        return {"sl": n * n - 1, "2sl": 2 * (n * n - 1), "so": n * (n - 1) // 2,
                "sp": n * (n + 1) // 2}[self.kind]

    @property
    def tag(self) -> str:
        return f"{self.kind}_{self.n}"

    def validate(self, datum) -> None:
        """Raise InvalidPartitionError unless datum is an orbit datum of this
        family: a partition of n (for 2sl an ordered pair of them) whose
        even (so) or odd (sp) parts occur an even number of times."""
        rule = self._rule
        try:   # one partition: accepted on its kept size and parity flags
            if datum._size == self.n and (self.kind == "sl" if rule is None
                                          else not datum._odd_mult[rule]):
                return
        except AttributeError:   # not a partition; a 2sl pair goes on below
            pass
        if self.kind == "2sl":
            if not (isinstance(datum, tuple) and len(datum) == 2):
                raise InvalidPartitionError("2sl expects an ordered pair of partitions")
        else:
            datum = (datum,)
        for p in datum:
            if not isinstance(p, Partition):
                raise InvalidPartitionError(f"{p!r} is not a partition")
            if p._size != self.n:
                raise InvalidPartitionError(
                    f"partition of {p._size} is not a partition of {self.n}")
        if rule is not None and p._odd_mult[rule]:   # p: the datum's one partition
            # the message names the first offending part in set order
            i = next(i for i in set(p.parts) if i % 2 == rule and p.multiplicity(i) % 2)
            raise InvalidPartitionError(
                f"{p} invalid for {self.tag}: "
                f"{('even', 'odd')[rule]} part {i} with odd multiplicity")

    def is_very_even(self, p: Partition) -> bool:
        """All parts even: in so_n this labels two orbits of equal dimension."""
        return self.kind == "so" and not p._odd


# -- pairs of partitions (sp6 / so12 parametrization) -------------------------


class PartitionPair(Record):
    """(alpha, beta) with beta having distinct parts."""

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: Partition, beta: Partition):
        b = beta.parts
        if len(set(b)) != len(b):
            raise ValueError("beta must have distinct parts")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __str__(self) -> str:
        a = ",".join(map(str, self.alpha.parts)) or "-"
        b = ",".join(map(str, self.beta.parts)) or "-"
        return f"({a}|{b})"


EMPTY = Partition(())


def pair_to_partition(pp: PartitionPair, total: int) -> Partition:
    """Elementary divisors: each alpha part twice plus each beta part doubled."""
    size = 2 * pp.alpha._size + 2 * pp.beta._size
    if size != total:
        raise SizeMismatchError(f"pair {pp} has size {size}, wanted {total}")
    return Partition(pp.alpha.repeat_twice().parts + tuple(2 * x for x in pp.beta.parts))


# -- simple Lie algebra types ------------------------------------------------

_EXCEPTIONAL_RANKS = {"G": 2, "F": 4}
_E_RANKS = (6, 7, 8)

# Degrees of the basic invariants; |G(F_q)| = q^N * prod (q^{d_i} - 1).
_INVARIANT_DEGREES = {
    "G2": (2, 6),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}


class UnsupportedRankError(ValueError):
    pass


class AlgebraType(Record):
    """A simple Lie algebra type: family in A..G plus rank."""

    __slots__ = _fields = ("family", "rank")

    def __init__(self, family: str, rank: int):
        fam, n = family, rank
        if fam not in ("A", "B", "C", "D", "E", "F", "G"):
            raise UnsupportedRankError(f"unknown family {fam!r}")
        if fam == "E" and n not in _E_RANKS:
            raise UnsupportedRankError(f"E{n} does not exist")
        if fam in _EXCEPTIONAL_RANKS and n != _EXCEPTIONAL_RANKS[fam]:
            raise UnsupportedRankError(f"{fam}{n} does not exist")
        if fam in "ABCD" and not 1 <= n <= 12:
            raise UnsupportedRankError(f"{fam}{n} outside supported range")
        if fam == "B" and n < 2 or fam == "C" and n < 2 or fam == "D" and n < 3:
            raise UnsupportedRankError(f"{fam}{n} is not treated as a distinct type")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def num_positive_roots(self) -> int:
        n = self.rank
        fam = self.family
        if fam == "A":
            return n * (n + 1) // 2
        if fam in "BC":
            return n * n
        if fam == "D":
            return n * (n - 1)
        if fam == "E":
            return {6: 36, 7: 63, 8: 120}[n]
        return 24 if fam == "F" else 6

    @property
    def dimension(self) -> int:
        return self.rank + 2 * self.num_positive_roots

    @property
    def invariant_degrees(self) -> tuple[int, ...]:
        fam, n = self.family, self.rank
        if fam == "A":
            return tuple(range(2, n + 2))
        if fam in "BC":
            return tuple(range(2, 2 * n + 1, 2))
        if fam == "D":
            return tuple(range(2, 2 * n - 1, 2)) + (n,)
        return _INVARIANT_DEGREES[self.name]

    def __str__(self) -> str:
        return self.name


_ALGEBRA_NAME = re.compile(r"(spin|sl|so|sp|[a-g])(0|[1-9][0-9]*)")   # no leading zero


def algebra(name: str) -> AlgebraType:
    """Parse names like 'e8', 'F4', 'sl6', 'so12', 'sp6', 'spin7', 'g2'."""
    m = _ALGEBRA_NAME.fullmatch(name.strip().lower())
    if m is None:
        raise UnsupportedRankError(f"unknown algebra {name!r}")
    prefix, n = m[1], int(m[2])
    if prefix == "sl":
        return AlgebraType("A", n - 1)
    if prefix == "sp":
        if n % 2:
            raise UnsupportedRankError("sp only defined in even matrix size")
        return AlgebraType("C", n // 2)
    if prefix in ("so", "spin"):
        # so_n and spin_n share one root system
        return AlgebraType("B", (n - 1) // 2) if n % 2 else AlgebraType("D", n // 2)
    return AlgebraType(prefix.upper(), n)
