"""Nilpotent-orbit combinatorics for the classical families.

Partitions parametrize orbits of sl_n, so_n and sp_2n; closed-form dimensions
are checked against an independent matrix-centralizer oracle, and the
generalized magic-square propagation maps move partitions between cells.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


class InvalidPartitionError(ValueError):
    """The partition violates the validity rule of the requested family."""


class SizeMismatchError(ValueError):
    pass


class NotAdjacentCellsError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        try:
            p = tuple(sorted(map(operator.index, parts), reverse=True))
        except TypeError:
            raise ValueError("parts must be integers") from None
        if any(x <= 0 for x in p):
            raise ValueError("parts must be positive")
        object.__setattr__(self, "parts", p)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def multiplicity(self, i: int) -> int:
        """r_i, the number of parts equal to i."""
        return sum(1 for x in self.parts if x == i)

    def odd_part_count(self) -> int:
        """Number of odd parts counted with multiplicity."""
        return sum(1 for x in self.parts if x % 2)

    def repeat_twice(self) -> "Partition":
        return Partition(tuple(x for x in self.parts for _ in range(2)))

    def extend(self, ones: int) -> "Partition":
        return Partition(self.parts + (1,) * ones)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"


def partition(*parts: int) -> Partition:
    return Partition(parts)


@dataclass(frozen=True)
class Family:
    """One classical family: sl_n, so_n, sp_2n, or the doubled 2sl_n cell."""

    kind: str  # "sl" | "so" | "sp" | "2sl"
    n: int     # matrix size (for sp the full even size 2n)

    def __post_init__(self):
        if self.kind not in ("sl", "so", "sp", "2sl"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "sp" and self.n % 2:
            raise ValueError("sp requires even matrix size")

    @property
    def dim(self) -> int:
        n = self.n
        if self.kind == "sl":
            return n * n - 1
        if self.kind == "2sl":
            return 2 * (n * n - 1)
        if self.kind == "so":
            return n * (n - 1) // 2
        return n * (n + 1) // 2

    @property
    def tag(self) -> str:
        if self.kind == "sp":
            return f"sp_{self.n}"
        if self.kind == "2sl":
            return f"2sl_{self.n}"
        return f"{self.kind}_{self.n}"

    def validate(self, datum) -> None:
        if self.kind == "2sl":
            if not (isinstance(datum, tuple) and len(datum) == 2):
                raise InvalidPartitionError("2sl expects an ordered pair of partitions")
            for p in datum:
                Family("sl", self.n).validate(p)
            return
        p: Partition = datum
        if p.size != self.n:
            raise InvalidPartitionError(
                f"partition of {p.size} is not a partition of {self.n}")
        if self.kind == "so":
            for i in set(p.parts):
                if i % 2 == 0 and p.multiplicity(i) % 2:
                    raise InvalidPartitionError(
                        f"{p} invalid for so_{self.n}: even part {i} with odd multiplicity")
        elif self.kind == "sp":
            for i in set(p.parts):
                if i % 2 and p.multiplicity(i) % 2:
                    raise InvalidPartitionError(
                        f"{p} invalid for sp_{self.n}: odd part {i} with odd multiplicity")

    def is_very_even(self, p: Partition) -> bool:
        """All parts even: in so_n this labels two orbits of equal dimension."""
        return self.kind == "so" and all(x % 2 == 0 for x in p.parts)


def _transpose_square_sum(p: Partition) -> int:
    """Σ_j λ'_j² read off the parts as Σ_i (2i-1)λ_i = |λ| + 2n(λ), largest
    part first (Macdonald, *Symmetric Functions and Hall Polynomials*, I (1.6))."""
    return sum((2 * i + 1) * x for i, x in enumerate(p.parts))


def orbit_dim_classical(datum, family: Family) -> int:
    """Closed-form orbit dimension; agrees with centralizer_oracle everywhere."""
    family.validate(datum)
    if family.kind == "2sl":
        a, b = datum
        return orbit_dim_classical(a, Family("sl", family.n)) + \
            orbit_dim_classical(b, Family("sl", family.n))
    p: Partition = datum
    n = family.n
    tsq = _transpose_square_sum(p)
    if family.kind == "sl":
        return n * n - tsq
    odd = p.odd_part_count()
    if family.kind == "so":
        return (n * n - tsq - n + odd) // 2
    return (n * n + n - tsq - odd) // 2


# -- independent centralizer oracle ------------------------------------------


def _nilpotent_and_form(p: Partition, kind: str):
    """X of Jordan type p and, for so and sp, the form S that X preserves
    (empty for sl), both as sparse integer maps {(row, column): entry}."""
    x, s, off = {}, {}, 0
    for d in sorted(set(p.parts), reverse=True):
        m = p.multiplicity(d)
        pairs, single = (0, m) if kind == "sl" else divmod(m, 2)
        for _ in range(pairs):
            # hyperbolic pair J + (-J^T) on V + V*; the natural pairing gives
            # a symmetric (so) or alternating (sp) form
            for i in range(d - 1):
                x[off + i, off + i + 1] = 1
                x[off + d + i + 1, off + d + i] = -1
            for i in range(d):
                s[off + i, off + d + i] = 1
                s[off + d + i, off + i] = 1 if kind == "so" else -1
            off += 2 * d
        for _ in range(single):
            # one Jordan block preserves B(e_i, e_j) = (-1)^i delta_{i+j,d+1},
            # symmetric for odd d and alternating for even d
            for i in range(d - 1):
                x[off + i, off + i + 1] = 1
            if kind != "sl":
                for i in range(1, d + 1):
                    s[off + i - 1, off + d - i] = (-1) ** i
            off += d
    return x, s


def _rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows {column: coefficient}, by the
    incremental echelon form that centralizer_oracle describes."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while any(row.values()):
            content = math.gcd(*row.values())
            row = {c: v // content for c, v in row.items() if v}
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            f, g = row[lead], pivot[lead]
            row = {c: g * v for c, v in row.items()}
            for c, v in pivot.items():
                row[c] = row.get(c, 0) - f * v
    return len(pivots)


def centralizer_oracle(datum, family: Family) -> int:
    """Orbit dimension from the exact commutant linear system.

    Builds a nilpotent matrix X of the partition's Jordan type inside the
    family's matrix Lie algebra and solves {Y in g : [X, Y] = 0} by integer
    elimination: each new sparse row is reduced against the pivot row with
    the same leading column (g*row - f*pivot) and divided by the gcd of its
    entries, the fraction-free method of Bareiss (*Math. Comp.* 22, 1968).
    The orbit dimension is dim g minus the nullity.
    """
    family.validate(datum)
    if family.kind == "2sl":
        a, b = datum
        sl = Family("sl", family.n)
        return centralizer_oracle(a, sl) + centralizer_oracle(b, sl)
    n = family.n
    if n > 12:
        raise InvalidPartitionError("oracle restricted to matrix size <= 12")
    x, s = _nilpotent_and_form(datum, family.kind)
    # unknowns: the n*n entries of Y, flattened row-major; one equation per
    # entry of XY - YX and, for so and sp, of SY + Y^T S
    eqs = defaultdict(lambda: defaultdict(int))
    for (i, k), v in x.items():
        for j in range(n):
            eqs["XY-YX", i, j][k * n + j] += v    # X_ik Y_kj
            eqs["XY-YX", j, k][j * n + i] -= v    # Y_ji X_ik
    for (i, k), v in s.items():
        for j in range(n):
            eqs["SY+YtS", i, j][k * n + j] += v   # S_ik Y_kj
            eqs["SY+YtS", j, k][i * n + j] += v   # Y_ij S_ik
    rank = _rank(eqs.values())
    # sl: the commutant is taken in gl_n; dropping to sl_n removes one torus
    # direction from both g and the centralizer, so the dimension is the rank
    return rank if family.kind == "sl" else family.dim - (n * n - rank)


# -- pairs of partitions (sp6 / so12 parametrization) -------------------------


@dataclass(frozen=True)
class PartitionPair:
    """(alpha, beta) with beta having distinct parts."""

    alpha: Partition
    beta: Partition

    def __post_init__(self):
        b = self.beta.parts
        if len(set(b)) != len(b):
            raise ValueError("beta must have distinct parts")

    def __str__(self) -> str:
        a = ",".join(map(str, self.alpha.parts)) or "-"
        b = ",".join(map(str, self.beta.parts)) or "-"
        return f"({a}|{b})"


EMPTY = Partition(())


def pair_to_partition(pp: PartitionPair, total: int) -> Partition:
    """Elementary divisors: each alpha part twice plus each beta part doubled."""
    if 2 * pp.alpha.size + 2 * pp.beta.size != total:
        raise SizeMismatchError(
            f"pair {pp} has size {2 * pp.alpha.size + 2 * pp.beta.size}, wanted {total}")
    parts = tuple(x for x in pp.alpha.parts for _ in range(2)) + \
        tuple(2 * x for x in pp.beta.parts)
    return Partition(parts)


# -- the generalized magic square ---------------------------------------------

MAGIC_VALUES = (1, 2, 4)


# cell (a <= b) -> (family kind, matrix size as a multiple of n)
_MAGIC_CELLS = {(1, 1): ("so", 1), (1, 2): ("sl", 1), (1, 4): ("sp", 2),
                (2, 2): ("2sl", 1), (2, 4): ("sl", 2), (4, 4): ("so", 4)}


def magic_family(a: int, b: int, n: int) -> Family:
    """The classical algebra in cell (a, b) of the generalized magic square."""
    try:
        kind, factor = _MAGIC_CELLS[min(a, b), max(a, b)]
    except KeyError:
        raise NotAdjacentCellsError("cell coordinates must lie in {1,2,4}") from None
    return Family(kind, factor * n)


def _step(datum, src: Family, dst: Family):
    """One step right or down between adjacent cells; the cells fix the sizes."""
    if src.kind == "2sl":
        a, b = datum
        return Partition(a.parts + b.parts)
    if dst.kind == "2sl":
        return (datum, datum)
    if dst.kind == "sl":   # from so_n or sp_2n
        return datum
    return datum.repeat_twice()   # sl_n to sp_2n, sl_2n to so_4n


def propagate(datum, from_cell: tuple[int, int], to_cell: tuple[int, int], n: int):
    """Move an orbit datum of the from_cell algebra one step right or down in
    the magic square; from_cell == to_cell returns it unchanged."""
    (a1, b1), (a2, b2) = from_cell, to_cell
    src, dst = magic_family(a1, b1, n), magic_family(a2, b2, n)
    if (a2, b2) not in ((a1, b1), (2 * a1, b1), (a1, 2 * b1)):
        raise NotAdjacentCellsError(f"{from_cell} -> {to_cell} is not one step")
    src.validate(datum)
    return datum if (a1, b1) == (a2, b2) else _step(datum, src, dst)


def propagate_from_so(p: Partition, cell: tuple[int, int], n: int):
    """Carry an so_n partition to any cell, doubling a before b; all chart
    paths agree."""
    fam = Family("so", n)
    fam.validate(p)
    a, b = cell
    magic_family(a, b, n)   # a cell outside the square would never be reached
    ca, cb, datum = 1, 1, p
    while (ca, cb) != (a, b):
        if ca < a:
            ca *= 2
        else:
            cb *= 2
        nxt = magic_family(ca, cb, n)
        datum, fam = _step(datum, fam, nxt), nxt
    return datum


def magic_dim_formula(p: Partition, a: int, b: int) -> int:
    """The bilinear dimension of the cell-(a,b) orbit grown from an so_n datum."""
    n = p.size
    Family("so", n).validate(p)
    tsq, odd = _transpose_square_sum(p), p.odd_part_count()
    # n² - tsq - n + odd is even, since tsq ≡ |λ| = n ≡ odd (mod 2)
    return a * b * (n * n - tsq - n + odd) // 2 + (a + b - 2) * (n - odd)


def example2_formula(n: int, a: int, b: int) -> int:
    """Closed form for the series grown from (3,1,...,1)."""
    return 2 * (a * b * (n - 2) + a + b - 2)


def example1_formula(n: int, a: int, b: int) -> Fraction:
    """Printed closed form for the series grown from the regular so_n orbit.

    Kept verbatim as a rational value; it disagrees with the propagated
    dimensions and the comparison is reported, not asserted.
    """
    eps = 1 if n % 2 else 0
    return Fraction(a * b, 2) * (n * n - n - 1 + eps) + (a + b + 2) * (n - eps)


def regular_so_partition(n: int) -> Partition:
    return Partition((n,)) if n % 2 else Partition((n - 1, 1))


# -- extension of partitions by trailing ones ---------------------------------


def extend_by_zeros_dims(p: Partition, family: Family, t_values: Sequence[int]) -> list[int]:
    """Orbit dimensions after growing the algebra and padding with 1-parts.

    One unit of t adds one row/column for sl and so, and one hyperbolic plane
    (two 1-parts) for sp, keeping the partition admissible.
    """
    if family.kind not in ("sl", "so", "sp"):
        raise InvalidPartitionError("extension defined for sl, so, sp only")
    step = 2 if family.kind == "sp" else 1
    return [orbit_dim_classical(p.extend(step * t), Family(family.kind, family.n + step * t))
            for t in t_values]


def printed_extension_slope(p: Partition, family: Family) -> Fraction:
    """The printed per-step slope of the three extension cases, verbatim."""
    f = {"sl": family.n, "so": family.n, "sp": family.n // 2}[family.kind]
    nparts = len(p.parts)
    if family.kind == "sl":
        return Fraction(2 * (f - nparts))
    if family.kind == "so":
        return Fraction(f - nparts) - Fraction(3, 4)
    return 2 * (Fraction(f - nparts) + Fraction(3, 4))


# -- enumeration ---------------------------------------------------------------


def all_partitions(n: int) -> Iterator[Partition]:
    def gen(remaining: int, maxpart: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest
    for parts in gen(n, n):
        yield Partition(parts)


def valid_partitions(family: Family) -> Iterator[Partition]:
    for p in all_partitions(family.n):
        try:
            family.validate(p)
        except InvalidPartitionError:
            continue
        yield p
