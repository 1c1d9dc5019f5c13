"""Nilpotent-orbit combinatorics for the classical families.

Partitions parametrize orbits of sl_n, so_n and sp_2n; closed-form dimensions
are checked against an independent matrix-centralizer oracle, and the
generalized magic-square propagation maps move partitions between cells.
"""

from __future__ import annotations

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
        p = tuple(sorted((int(x) for x in parts), reverse=True))
        if any(x <= 0 for x in p):
            raise ValueError("parts must be positive")
        object.__setattr__(self, "parts", p)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def multiplicity(self, i: int) -> int:
        """r_i, the number of parts equal to i."""
        return sum(1 for x in self.parts if x == i)

    def transpose(self) -> "Partition":
        if not self.parts:
            return self
        return Partition(tuple(sum(1 for x in self.parts if x >= i)
                               for i in range(1, self.parts[0] + 1)))

    def transpose_parts(self) -> tuple[int, ...]:
        return self.transpose().parts if self.parts else ()

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


def orbit_dim_classical(datum, family: Family) -> int:
    """Closed-form orbit dimension; agrees with centralizer_oracle everywhere."""
    family.validate(datum)
    if family.kind == "2sl":
        a, b = datum
        return orbit_dim_classical(a, Family("sl", family.n)) + \
            orbit_dim_classical(b, Family("sl", family.n))
    p: Partition = datum
    n = family.n
    tsq = sum(x * x for x in p.transpose_parts())
    if family.kind == "sl":
        return n * n - tsq
    odd = p.odd_part_count()
    if family.kind == "so":
        return (n * n - tsq - n + odd) // 2
    return (n * n + n - tsq - odd) // 2


# -- independent centralizer oracle ------------------------------------------


def _jordan_block(d: int) -> list[list[Fraction]]:
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d - 1):
        m[i][i + 1] = Fraction(1)
    return m


def _block_diag(blocks: Sequence[list[list[Fraction]]]) -> list[list[Fraction]]:
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        d = len(b)
        for i in range(d):
            for j in range(d):
                out[off + i][off + j] = b[i][j]
        off += d
    return out


def _single_block_with_form(d: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    # One Jordan block preserves the form B(e_i,e_j) = (-1)^i delta_{i+j,d+1},
    # symmetric for odd d and alternating for even d.
    x = _jordan_block(d)
    s = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d + 1):
        s[i - 1][d - i] = Fraction((-1) ** i)
    return x, s


def _paired_blocks_with_form(d: int, symmetric: bool) -> tuple[list[list[Fraction]],
                                                               list[list[Fraction]]]:
    # Hyperbolic pair J + (-J^T) on V + V*; the natural pairing gives a
    # symmetric or alternating form as requested.
    x = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
    for i in range(d - 1):
        x[i][i + 1] = Fraction(1)
        x[d + i + 1][d + i] = Fraction(-1)
    s = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
    eps = Fraction(1) if symmetric else Fraction(-1)
    for i in range(d):
        s[i][d + i] = Fraction(1)
        s[d + i][i] = eps
    return x, s


def _nilpotent_in_form_algebra(p: Partition, symmetric: bool):
    """A nilpotent of Jordan type p inside so(S) or sp(S), plus the form S."""
    xs, ss = [], []
    counts = {d: p.multiplicity(d) for d in set(p.parts)}
    for d in sorted(counts, reverse=True):
        m = counts[d]
        single_ok = (d % 2 == 1) if symmetric else (d % 2 == 0)
        while m >= 2:
            xb, sb = _paired_blocks_with_form(d, symmetric)
            xs.append(xb)
            ss.append(sb)
            m -= 2
        if m == 1:
            if not single_ok:
                raise InvalidPartitionError(f"part {d} needs even multiplicity")
            xb, sb = _single_block_with_form(d)
            xs.append(xb)
            ss.append(sb)
    return _block_diag(xs), _block_diag(ss)


def _nullity(rows: list[list[Fraction]], ncols: int) -> int:
    """Exact rank computation by Gaussian elimination over Q."""
    mat = [row[:] for row in rows if any(row)]
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return ncols - rank


def centralizer_oracle(datum, family: Family) -> int:
    """Orbit dimension from the exact commutant linear system.

    Builds a nilpotent matrix X of the partition's Jordan type inside the
    family's matrix Lie algebra and solves {Y in g : [X, Y] = 0} by rational
    elimination; the orbit dimension is dim g minus that nullity.
    """
    family.validate(datum)
    if family.kind == "2sl":
        a, b = datum
        sl = Family("sl", family.n)
        return centralizer_oracle(a, sl) + centralizer_oracle(b, sl)
    p: Partition = datum
    n = family.n
    if n > 12:
        raise InvalidPartitionError("oracle restricted to matrix size <= 12")
    if family.kind == "sl":
        x = _block_diag([_jordan_block(d) for d in p.parts])
        s = None
    else:
        x, s = _nilpotent_in_form_algebra(p, symmetric=(family.kind == "so"))
    # unknowns: the n*n entries of Y, flattened row-major
    rows: list[list[Fraction]] = []

    def add_equation(coeff_fn):
        row = [Fraction(0)] * (n * n)
        coeff_fn(row)
        if any(row):
            rows.append(row)

    for i in range(n):
        for j in range(n):
            def commutator(row, i=i, j=j):
                # (XY - YX)_{ij} = sum_k X_ik Y_kj - Y_ik X_kj
                for k in range(n):
                    row[k * n + j] += x[i][k]
                    row[i * n + k] -= x[k][j]
            add_equation(commutator)
    if s is not None:
        for i in range(n):
            for j in range(n):
                def isometry(row, i=i, j=j):
                    # (S Y + Y^T S)_{ij} = sum_k S_ik Y_kj + Y_ki S_kj
                    for k in range(n):
                        row[k * n + j] += s[i][k]
                        row[i + k * n] += s[k][j]
                add_equation(isometry)
    centralizer = _nullity(rows, n * n)
    if family.kind == "sl":
        # commutant inside gl_n; dropping to sl_n removes one torus direction
        # from both g and the centralizer, so the orbit dimension is unchanged
        return n * n - centralizer
    return family.dim - centralizer


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


def magic_family(a: int, b: int, n: int) -> Family:
    """The classical algebra in cell (a, b) of the generalized magic square."""
    cell = frozenset((a, b)) if a != b else frozenset((a,))
    if a not in MAGIC_VALUES or b not in MAGIC_VALUES:
        raise NotAdjacentCellsError("cell coordinates must lie in {1,2,4}")
    if a == 1 and b == 1:
        return Family("so", n)
    if cell == frozenset((1, 2)):
        return Family("sl", n)
    if cell == frozenset((1, 4)):
        return Family("sp", 2 * n)
    if a == 2 and b == 2:
        return Family("2sl", n)
    if cell == frozenset((2, 4)):
        return Family("sl", 2 * n)
    return Family("so", 4 * n)


def _step(datum, src: Family, dst: Family):
    key = (src.kind, src.n, dst.kind, dst.n)
    n = src.n
    if key == ("so", n, "sl", n) or key == ("sp", n, "sl", n):
        return datum
    if key == ("sl", n, "sp", 2 * n) or key == ("sl", n, "so", 2 * n):
        return datum.repeat_twice()
    if key == ("sl", n, "2sl", n):
        return (datum, datum)
    if key == ("2sl", n, "sl", 2 * n):
        a, b = datum
        return Partition(a.parts + b.parts)
    raise NotAdjacentCellsError(f"no propagation step {src.tag} -> {dst.tag}")


def propagate(datum, from_cell: tuple[int, int], to_cell: tuple[int, int], n: int):
    """Move an orbit datum one step right or down in the magic square."""
    (a1, b1), (a2, b2) = from_cell, to_cell
    right = (b1 == b2 and _next(a1) == a2)
    down = (a1 == a2 and _next(b1) == b2)
    if from_cell == to_cell:
        return datum
    if not (right or down):
        raise NotAdjacentCellsError(f"{from_cell} -> {to_cell} is not one step")
    return _step(datum, magic_family(a1, b1, n), magic_family(a2, b2, n))


def _next(v: int) -> int | None:
    return {1: 2, 2: 4}.get(v)


def propagate_from_so(p: Partition, cell: tuple[int, int], n: int):
    """Carry an so_n partition to any cell; all chart paths agree."""
    Family("so", n).validate(p)
    a, b = cell
    path = [(1, 1)]
    while path[-1] != cell:
        ca, cb = path[-1]
        path.append((_next(ca), cb) if ca < a else (ca, _next(cb)))
    datum = p
    for src, dst in zip(path, path[1:]):
        datum = propagate(datum, src, dst, n)
    return datum


def magic_dim_formula(p: Partition, a: int, b: int) -> int:
    """The bilinear dimension of the cell-(a,b) orbit grown from an so_n datum."""
    n = p.size
    Family("so", n).validate(p)
    tsq = sum(x * x for x in p.transpose_parts())
    odd = p.odd_part_count()
    val = Fraction(a * b, 2) * (n * n - tsq - n + odd) + (a + b - 2) * (n - odd)
    assert val.denominator == 1
    return int(val)


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
