"""Nilpotent-orbit combinatorics for the classical families.

Partitions parametrize orbits of sl_n, so_n and sp_2n; closed-form dimensions
are checked against an independent matrix-centralizer oracle, and the
generalized magic-square propagation maps move partitions between cells.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise
from typing import Iterable, Iterator, Sequence

from ._records import (EMPTY, Family, InvalidPartitionError, NotAdjacentCellsError,
                       Partition, PartitionPair, SizeMismatchError, pair_to_partition,
                       partition)


def orbit_dim_classical(datum, family: Family) -> int:
    """Closed-form orbit dimension; agrees with centralizer_oracle everywhere."""
    family.validate(datum)
    n = family.n
    if family.kind == "2sl":   # two sl_n orbits
        a, b = datum
        return 2 * n * n - a._tsq - b._tsq
    if family.kind == "sl":
        return n * n - datum._tsq
    if family.kind == "so":
        return (n * n - datum._tsq - n + datum._odd) // 2
    return (n * n + n - datum._tsq - datum._odd) // 2


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
        return sum(centralizer_oracle(q, Family("sl", family.n)) for q in datum)
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


# -- the generalized magic square ---------------------------------------------

MAGIC_VALUES = (1, 2, 4)


# cell (a <= b) -> (family kind, matrix size as a multiple of n); the chart is
# symmetric, so each cell is also keyed as (b, a)
_MAGIC_CELLS = {(1, 1): ("so", 1), (1, 2): ("sl", 1), (1, 4): ("sp", 2),
                (2, 2): ("2sl", 1), (2, 4): ("sl", 2), (4, 4): ("so", 4)}
_MAGIC_CELLS.update({(b, a): v for (a, b), v in _MAGIC_CELLS.items()})


def _pair(p: Partition) -> tuple[Partition, Partition]:
    return p, p


def _merge(pair) -> Partition:
    a, b = pair
    return a.repeat_twice() if a == b else Partition(a.parts + b.parts)


# (source kind, destination kind) of each step right or down in the chart ->
# its map on orbit data, read off _MAGIC_CELLS: into 2sl a datum is paired, out
# of it merged, else doubled where the size doubles and kept (None) where not
_STEPS = {(s, d): _pair if d == "2sl" else _merge if s == "2sl"
          else Partition.repeat_twice if g > f else None
          for (a, b), (s, f) in _MAGIC_CELLS.items()
          for c in ((2 * a, b), (a, 2 * b)) if c in _MAGIC_CELLS
          for d, g in (_MAGIC_CELLS[c],)}


def _path(a: int, b: int) -> tuple:
    """The maps from (1, 1) to (a, b), a doubled before b, none that keeps."""
    kinds = ([_MAGIC_CELLS[x, 1][0] for x in MAGIC_VALUES if x <= a]
             + [_MAGIC_CELLS[a, y][0] for y in MAGIC_VALUES[1:] if y <= b])
    return tuple(filter(None, map(_STEPS.__getitem__, pairwise(kinds))))


# cell -> the maps of its steps, read off _MAGIC_CELLS once, at import
_PATHS = {(a, b): _path(a, b) for a in MAGIC_VALUES for b in MAGIC_VALUES}


def _magic_cell(a: int, b: int) -> tuple[str, int]:
    # only an int coordinate: 1.0, True and Fraction(1) hash as 1 does
    if type(a) is int and type(b) is int and (a, b) in _MAGIC_CELLS:
        return _MAGIC_CELLS[a, b]
    raise NotAdjacentCellsError("cell coordinates must lie in {1,2,4}")


@lru_cache(maxsize=None, typed=True)
def magic_family(a: int, b: int, n: int) -> Family:
    """The classical algebra in cell (a, b) of the generalized magic square."""
    kind, factor = _magic_cell(a, b)
    return Family(kind, factor * n)


def propagate(datum, from_cell: tuple[int, int], to_cell: tuple[int, int], n: int):
    """Move an orbit datum of the from_cell algebra one step right or down in
    the magic square; from_cell == to_cell returns it unchanged."""
    (a1, b1), (a2, b2) = from_cell, to_cell
    src, dst = magic_family(a1, b1, n), magic_family(a2, b2, n)
    if (a2, b2) not in ((a1, b1), (2 * a1, b1), (a1, 2 * b1)):
        raise NotAdjacentCellsError(f"{from_cell} -> {to_cell} is not one step")
    src.validate(datum)
    step = None if (a1, b1) == (a2, b2) else _STEPS[src.kind, dst.kind]
    return datum if step is None else step(datum)


def propagate_from_so(p: Partition, cell: tuple[int, int], n: int):
    """Carry an so_n partition to any cell along its path in ``_PATHS``; all
    chart paths agree.  The datum is checked on its kept flags, then the cell
    with one lookup; ``Family.validate`` and ``_magic_cell`` only raise."""
    if not (type(n) is int and isinstance(p, Partition) and p._size == n and not p._odd_mult[0]):
        Family("so", n).validate(p)
    a, b = cell
    path = _PATHS.get((a, b)) if type(a) is int and type(b) is int else None
    if path is None:
        _magic_cell(a, b)
    for step in path:
        p = step(p)
    return p


def magic_dim_formula(p: Partition, a: int, b: int) -> int:
    """The bilinear dimension of the cell-(a,b) orbit grown from an so_n datum."""
    if not (type(a) is int and type(b) is int and (a, b) in _MAGIC_CELLS):
        _magic_cell(a, b)
    if not (isinstance(p, Partition) and not p._odd_mult[0]):   # no size: any n
        Family("so", getattr(p, "_size", 0)).validate(p)
    n, tsq, odd = p._size, p._tsq, p._odd
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


def _extension_step(family: Family) -> int:
    """Rank added per unit of t by the zero-padding extension of ``family``."""
    if family.kind not in ("sl", "so", "sp"):
        raise InvalidPartitionError("extension defined for sl, so, sp only")
    return 2 if family.kind == "sp" else 1


def extend_by_zeros_dims(p: Partition, family: Family, t_values: Sequence[int]) -> list[int]:
    """Orbit dimensions after growing the algebra and padding with 1-parts.

    One unit of t adds one row/column for sl and so, and one hyperbolic plane
    (two 1-parts) for sp, keeping the partition admissible.
    """
    step = _extension_step(family)
    return [orbit_dim_classical(Partition(p.parts + (1,) * (step * t)),
                                Family(family.kind, family.n + step * t)) for t in t_values]


def printed_extension_slope(p: Partition, family: Family) -> Fraction:
    """The printed per-step slope of the three extension cases, verbatim."""
    step = _extension_step(family)
    family.validate(p)
    k = Fraction(family.n // step - len(p.parts))
    return {"sl": 2 * k, "so": k - Fraction(3, 4), "sp": 2 * (k + Fraction(3, 4))}[family.kind]


# -- enumeration ---------------------------------------------------------------


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of n: those sl_n accepts."""
    return valid_partitions(Family("sl", n))


def valid_partitions(family: Family) -> Iterator[Partition]:
    """The partitions that ``family.validate`` accepts, in reverse
    lexicographic order: largest part d first, then its multiplicity m, both
    decreasing.  For so and sp the blocks d^m that the parity rule forbids
    (even d for so, odd d for sp, with m odd; Collingwood–McGovern §5.1)
    are skipped, so no inadmissible partition is built.  The invariants of a
    ``Partition`` are summed block by block, with no sort or recount: a block
    d^m at parts k+1 .. k+m adds d((k+m)² - k²) = dm(2k+m) to Σλ'².  A 2sl
    datum is a pair of partitions, so that family yields none."""
    if family.kind == "2sl":
        return
    n = family.n
    forbidden = family._rule

    def gen(remaining: int, largest: int, parts: tuple, tsq: int, odd: int, odd_mult):
        if remaining == 0:
            p = Partition.__new__(Partition)
            p._set(parts, n, tsq, odd, odd_mult)
            yield p
            return
        k = len(parts)
        for d in range(min(remaining, largest), 0, -1):
            r = d % 2
            fewest = 1 if d > 1 else remaining   # no part below 1 fills the rest
            for m in range(remaining // d, fewest - 1, -1):
                if m % 2 == 0:
                    mult = odd_mult
                elif r == forbidden:
                    continue
                else:
                    mult = (odd_mult[0], True) if r else (True, odd_mult[1])
                yield from gen(remaining - d * m, d - 1, parts + (d,) * m,
                               tsq + d * m * (2 * k + m), odd + m * r, mult)
    yield from gen(n, n, (), 0, 0, (False, False))
