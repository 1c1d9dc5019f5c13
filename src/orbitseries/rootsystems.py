"""Root systems of the simple complex Lie algebras, rank at most 12.

Each type is built from its Cartan matrix in Bourbaki numbering (Bourbaki,
*Lie Groups and Lie Algebras*, ch. VI, Plates I-IX).  Roots are integer tuples
in simple-root coordinates, grown height by height with root strings
(Humphreys, *Introduction to Lie Algebras and Representation Theory*, section
10), each carrying its pairings with the simple coroots; the invariant form
comes from the root lengths the Cartan matrix determines.  Weighted diagrams,
gradings (summed column by column) and orbit dimensions are integer sums over
these roots.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from ._records import AlgebraType, Record, UnsupportedRankError, algebra


class AdjointNotFundamentalError(ValueError):
    """The adjoint representation of this algebra is not fundamental."""


def _cartan_matrix(alg: AlgebraType) -> tuple[tuple[int, ...], ...]:
    """Bourbaki's Cartan matrix: entry [i][j] = <alpha_i, alpha_j^vee>.

    Nodes are numbered as in Bourbaki, Plates I-IX.
    """
    fam, n = alg.family, alg.rank
    if fam == "E":
        bonds = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    elif fam == "D":
        bonds = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        bonds = [(i, i + 1) for i in range(n - 1)]
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        m[i][j] = m[j][i] = -1
    # the multiple bond (long node, short node, multiplicity)
    multiple = {"B": (n - 2, n - 1, 2), "C": (n - 1, n - 2, 2),
                "F": (1, 2, 2), "G": (1, 0, 3)}
    if fam in multiple:
        i, j, k = multiple[fam]
        m[i][j] = -k
    return tuple(map(tuple, m))


def _squared_lengths(cartan) -> tuple[int, ...]:
    """(alpha_i, alpha_i) with short roots of length 1: the integers 1, 2, 3.

    Symmetry of the form gives A_ij (alpha_j, alpha_j) = A_ji (alpha_i, alpha_i)
    along every bond of the connected diagram.  Relative to node 0 a length is
    1, 2, 3, 1/2 or 1/3, so node 0 starts at 6 and every step divides exactly.
    """
    n = len(cartan)
    sq = [6] + [0] * (n - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if not sq[j] and cartan[i][j]:
                sq[j] = sq[i] * cartan[j][i] // cartan[i][j]
                todo.append(j)
    short = min(sq)
    return tuple(x // short for x in sq)


def _positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by height then coordinates.

    Root strings (Humphreys, section 10): for a positive root beta that is not
    alpha_i, beta + alpha_i is a root iff p_i > <beta, alpha_i^vee>, where p_i
    is the largest r with beta - r alpha_i a root.  A layer maps each root to
    its pairings and its p: alpha_i has row i of the Cartan matrix and zeros;
    beta + alpha_i adds row i to beta's pairings and has p_i = beta's p_i + 1.
    """
    n = len(cartan)
    layer = {tuple(int(i == j) for j in range(n)): (row, [0] * n)
             for i, row in enumerate(cartan)}
    roots = sorted(layer)
    while layer:
        taller = {}
        for beta, (pairs, p) in layer.items():
            for i, row in enumerate(cartan):
                if p[i] > pairs[i]:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in taller:
                        taller[up] = (tuple(map(operator.add, pairs, row)), [0] * n)
                    taller[up][1][i] = p[i] + 1
        layer = taller
        roots.extend(sorted(taller))
    return roots


class RootSystem:
    """Roots, Cartan data and the invariant form of one simple algebra.

    Roots are integer tuples in simple-root coordinates, so the simple roots
    are the unit vectors.  The invariant form is read off the Cartan matrix,
    scaled to integers: ``_form[i][j] = A_ij (alpha_j, alpha_j)`` is twice
    (alpha_i, alpha_j) with short roots of squared length 1.  Instances are
    immutable and cached per type.
    """

    def __init__(self, alg: AlgebraType):
        self.algebra = alg
        self.rank = n = alg.rank
        self.cartan_matrix = _cartan_matrix(alg)
        sq = _squared_lengths(self.cartan_matrix)
        self._form = tuple(tuple(self.cartan_matrix[i][j] * sq[j] for j in range(n))
                           for i in range(n))
        self.simple_roots = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.positive_roots = tuple(_positive_roots(self.cartan_matrix))
        self.N = len(self.positive_roots)
        if self.N != alg.num_positive_roots:
            raise AssertionError(f"{alg}: built {self.N} positive roots")
        self.highest_root = self.positive_roots[-1]
        self._columns = tuple(zip(*self.positive_roots))   # coordinate i of each root
        self._two_rho = tuple(map(sum, self._columns))
        self.rho = tuple(Fraction(x, 2) for x in self._two_rho)
        self.invariant_degrees = alg.invariant_degrees

    def _dot(self, u, v):
        return sum(x * f * y for x, row in zip(u, self._form) for f, y in zip(row, v))

    def pair_coroot(self, lam, root) -> Fraction:
        """<lam, root^vee> = 2(lam,root)/(root,root); scale independent."""
        return Fraction(2 * self._dot(lam, root), self._dot(root, root))

    def _pair(self, u, root) -> int:
        """<u, root^vee> for an integer vector u; raises unless it is an int."""
        num, den = 2 * self._dot(u, root), self._dot(root, root)
        if num % den:
            raise ArithmeticError(f"{Fraction(num, den)} is not an integer")
        return num // den

    @property
    def dimension(self) -> int:
        return self.rank + 2 * self.N

    def dual_coxeter(self) -> int:
        """1 + <rho, theta^vee>, read off the integer vector 2 rho."""
        return 1 + self._pair(self._two_rho, self.highest_root) // 2

    def adjoint_marks(self) -> tuple[int, ...]:
        """Fundamental-weight coordinates of the highest root."""
        return tuple(self._pair(self.highest_root, a) for a in self.simple_roots)


@lru_cache(maxsize=None)
def build_root_system(alg: AlgebraType) -> RootSystem:
    return RootSystem(alg)


def root_system(name: str) -> RootSystem:
    return build_root_system(algebra(name))


# -- weighted Dynkin diagrams ------------------------------------------------


class WeightedDiagram(Record):
    """Nonnegative integer labels on the simple roots, Bourbaki order.

    The labels are the values alpha_i(H) of the semisimple element H of an
    sl2-triple; they determine the nilpotent orbit.
    """

    __slots__ = _fields = ("algebra", "labels")

    def __init__(self, algebra: AlgebraType, labels: tuple[int, ...]):
        labels = tuple(labels)
        if len(labels) != algebra.rank:
            raise ValueError("one label per simple root required")
        if any(x < 0 for x in labels):
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "labels", labels)

    def is_even(self) -> bool:
        return all(x % 2 == 0 for x in self.labels)

    def _split(self) -> tuple[tuple[int, ...], str, tuple[int, ...]]:
        """Labels along the long arm, then the branch (E) or fork (D) labels."""
        l, n = self.labels, self.algebra.rank
        if self.algebra.family == "E":
            return (l[0],) + l[2:], "branch", l[1:2]
        if self.algebra.family == "D":
            return l[: n - 2], "fork", l[n - 2:]
        return l, "", ()

    def as_string(self) -> str:
        """Compact form: labels along the long arm, '/branch' for E types."""
        arm, kind, rest = self._split()
        text = ",".join(map(str, arm))
        return f"{text}/{','.join(map(str, rest))}" if kind else text

    def pretty(self) -> str:
        arm, kind, rest = self._split()
        text = " ".join(map(str, arm))
        return f"{text} / {kind} {' '.join(map(str, rest))}" if kind else text


def grading_dims(wd: WeightedDiagram) -> dict[int, int]:
    """Dimensions of the eigenspaces of ad H, keyed by eigenvalue; a new dict
    on every call, which the caller may change."""
    return dict(_grading_dims(wd))


@lru_cache(maxsize=None)
def _grading_dims(wd: WeightedDiagram) -> tuple[tuple[int, int], ...]:
    rs = build_root_system(wd.algebra)   # <beta, labels>: label i times column i
    values = (0,) * rs.N
    for label, column in zip(wd.labels, rs._columns):
        if label:
            values = map(operator.add, values, map(label.__mul__, column))
    counts = Counter(values)
    zero = rs.rank + 2 * counts.pop(0, 0)   # beta and -beta both have value 0
    up = sorted(counts.items())
    return tuple((-v, d) for v, d in reversed(up)) + ((0, zero),) + tuple(up)


def orbit_dim_from_diagram(wd: WeightedDiagram) -> int:
    """dim g - dim g(0) - dim g(1); exact for genuine orbit diagrams."""
    dims = grading_dims(wd)
    return wd.algebra.dimension - dims.get(0, 0) - dims.get(1, 0)


def desing_dims(wd: WeightedDiagram) -> tuple[int, int]:
    """(dim G/P, dim fiber) of the collapsing of the bundle over g(>=2)."""
    dims = grading_dims(wd)
    base = sum(d for i, d in dims.items() if i >= 1)
    fiber = sum(d for i, d in dims.items() if i >= 2)
    return base, fiber


def zero_diagram(alg: AlgebraType) -> WeightedDiagram:
    return WeightedDiagram(alg, (0,) * alg.rank)


def minimal_orbit_diagram(rs: RootSystem) -> WeightedDiagram:
    """Labels alpha_i(H) for H the coroot of the highest root."""
    labels = tuple(rs._pair(a, rs.highest_root) for a in rs.simple_roots)
    return WeightedDiagram(rs.algebra, labels)


def adjoint_node(rs: RootSystem) -> int:
    marks = rs.adjoint_marks()
    nodes = [i for i, m in enumerate(marks) if m]
    if len(nodes) != 1 or marks[nodes[0]] != 1:
        raise AdjointNotFundamentalError(
            f"{rs.algebra}: adjoint weight has marks {marks}")
    return nodes[0]


def sigma1_diagram(rs: RootSystem) -> WeightedDiagram:
    """Ones on the neighbours of the adjoint node, zeros elsewhere."""
    node = adjoint_node(rs)
    labels = [0] * rs.rank
    for j in range(rs.rank):
        if j != node and rs.cartan_matrix[node][j] != 0:
            labels[j] = 1
    return WeightedDiagram(rs.algebra, tuple(labels))


def sigma3_diagram(rs: RootSystem) -> WeightedDiagram:
    """Twos on the adjoint node(s), zeros elsewhere."""
    return WeightedDiagram(rs.algebra, tuple(2 * m for m in rs.adjoint_marks()))


# -- the preferred-weight table for the exceptional row ----------------------

# Fundamental-weight combinations of the four generating so8 weights, read off
# the marked diagrams of the source tables, one row per exceptional algebra.
# Entries are 1-based node lists with multiplicity.
_SERIES_WEIGHTS = {
    "F4": {"g": {1: 1}, "g2": {2: 1}, "g3": {3: 1}, "gQ": {4: 1}},
    "E6": {"g": {2: 1}, "g2": {4: 1}, "g3": {3: 1, 5: 1}, "gQ": {1: 1, 6: 1}},
    "E7": {"g": {1: 1}, "g2": {3: 1}, "g3": {4: 1}, "gQ": {6: 1}},
    "E8": {"g": {8: 1}, "g2": {7: 1}, "g3": {6: 1}, "gQ": {1: 1}},
}

EXCEPTIONAL_ROW = ("F4", "E6", "E7", "E8")


def series_weight_to_diagram(p: int, q: int, r: int, s: int,
                             alg: AlgebraType | str) -> WeightedDiagram:
    """Diagram of the orbit labeled g^p g2^q g3^r gQ^s in one exceptional algebra."""
    if isinstance(alg, str):
        alg = algebra(alg)
    if alg.name not in _SERIES_WEIGHTS:
        raise UnsupportedRankError(f"series weights only defined for {EXCEPTIONAL_ROW}")
    table = _SERIES_WEIGHTS[alg.name]
    labels = [0] * alg.rank
    for weight, mult in (("g", p), ("g2", q), ("g3", r), ("gQ", s)):
        for node, k in table[weight].items():
            labels[node - 1] += mult * k
    return WeightedDiagram(alg, tuple(labels))
