"""Root systems of the simple complex Lie algebras, rank at most 12.

Each type is built from its Cartan matrix in Bourbaki numbering (Bourbaki,
*Lie Groups and Lie Algebras*, ch. VI, Plates I-IX).  Roots are integer tuples
in simple-root coordinates, grown height by height with root strings
(Humphreys, *Introduction to Lie Algebras and Representation Theory*, section
10), and the invariant form comes from the root lengths the Cartan matrix
determines.  Weighted diagrams, gradings and orbit dimensions are integer sums
over these roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


class AdjointNotFundamentalError(ValueError):
    """The adjoint representation of this algebra is not fundamental."""


@dataclass(frozen=True)
class AlgebraType:
    """A simple Lie algebra type: family in A..G plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        if fam not in "ABCDEFG":
            raise UnsupportedRankError(f"unknown family {fam!r}")
        if fam == "E" and n not in _E_RANKS:
            raise UnsupportedRankError(f"E{n} does not exist")
        if fam in _EXCEPTIONAL_RANKS and n != _EXCEPTIONAL_RANKS[fam]:
            raise UnsupportedRankError(f"{fam}{n} does not exist")
        if fam in "ABCD" and not 1 <= n <= 12:
            raise UnsupportedRankError(f"{fam}{n} outside supported range")
        if fam == "B" and n < 2 or fam == "C" and n < 2 or fam == "D" and n < 3:
            raise UnsupportedRankError(f"{fam}{n} is not treated as a distinct type")

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


def algebra(name: str) -> AlgebraType:
    """Parse names like 'e8', 'F4', 'sl6', 'so12', 'sp6', 'spin7', 'g2'."""
    s = name.strip().lower()
    for prefix in ("spin", "sl", "so", "sp"):
        if s.startswith(prefix):
            n = int(s[len(prefix):])
            if prefix == "sl":
                return AlgebraType("A", n - 1)
            if prefix == "sp":
                if n % 2:
                    raise UnsupportedRankError("sp only defined in even matrix size")
                return AlgebraType("C", n // 2)
            # orthogonal: so_n / spin_n share one root system
            if n % 2:
                return AlgebraType("B", (n - 1) // 2)
            return AlgebraType("D", n // 2)
    fam = s[0].upper()
    return AlgebraType(fam, int(s[1:]))


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


def _squared_lengths(cartan) -> tuple[Fraction, ...]:
    """(alpha_i, alpha_i) with long roots of length 2.

    Symmetry of the form gives A_ij (alpha_j, alpha_j) = A_ji (alpha_i, alpha_i)
    along every bond of the connected diagram.
    """
    n = len(cartan)
    sq: list[Fraction | None] = [Fraction(1)] + [None] * (n - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if sq[j] is None and cartan[i][j]:
                sq[j] = sq[i] * cartan[j][i] / cartan[i][j]
                todo.append(j)
    top = max(sq)
    return tuple(2 * x / top for x in sq)


def _positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by height then coordinates.

    Root strings (Humphreys, section 10): for a positive root beta that is not
    alpha_i, beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0, where p
    is the largest r with beta - r alpha_i a root.
    """
    n = len(cartan)
    layer = sorted(tuple(int(i == j) for j in range(n)) for i in range(n))
    found = set(layer)
    roots = list(layer)
    while layer:
        taller = set()
        for beta in layer:
            for i in range(n):
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1:] in found:
                    p += 1
                if p > sum(b * row[i] for b, row in zip(beta, cartan)):
                    taller.add(beta[:i] + (beta[i] + 1,) + beta[i + 1:])
        layer = sorted(taller)
        found.update(layer)
        roots.extend(layer)
    return roots


class RootSystem:
    """Roots, Cartan data and the invariant form of one simple algebra.

    Roots are integer tuples in simple-root coordinates, so the simple roots
    are the unit vectors.  The invariant form is read off the Cartan matrix
    and scaled so long roots have squared length 2; instances are immutable
    and cached per type.
    """

    def __init__(self, alg: AlgebraType):
        self.algebra = alg
        self.rank = n = alg.rank
        self.cartan_matrix = _cartan_matrix(alg)
        sq = _squared_lengths(self.cartan_matrix)
        self._form = tuple(tuple(self.cartan_matrix[i][j] * sq[j] / 2 for j in range(n))
                           for i in range(n))
        self.simple_roots = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.positive_roots = tuple(_positive_roots(self.cartan_matrix))
        self.N = len(self.positive_roots)
        if self.N != alg.num_positive_roots:
            raise AssertionError(f"{alg}: built {self.N} positive roots")
        self.highest_root = self.positive_roots[-1]
        self.rho = tuple(Fraction(sum(c), 2) for c in zip(*self.positive_roots))
        self.invariant_degrees = alg.invariant_degrees

    def _dot(self, u, v) -> Fraction:
        return sum(x * f * y for x, row in zip(u, self._form) for f, y in zip(row, v))

    def pair_coroot(self, lam, root) -> Fraction:
        """<lam, root^vee> = 2(lam,root)/(root,root); scale independent."""
        return 2 * self._dot(lam, root) / self._dot(root, root)

    @property
    def dimension(self) -> int:
        return self.rank + 2 * self.N

    def dual_coxeter(self) -> int:
        return 1 + _i(self.pair_coroot(self.rho, self.highest_root))

    def adjoint_marks(self) -> tuple[int, ...]:
        """Fundamental-weight coordinates of the highest root."""
        return tuple(_i(self.pair_coroot(self.highest_root, a)) for a in self.simple_roots)


def _i(x: Fraction) -> int:
    assert x.denominator == 1, x
    return int(x)


@lru_cache(maxsize=None)
def build_root_system(alg: AlgebraType) -> RootSystem:
    return RootSystem(alg)


def root_system(name: str) -> RootSystem:
    return build_root_system(algebra(name))


# -- weighted Dynkin diagrams ------------------------------------------------


@dataclass(frozen=True)
class WeightedDiagram:
    """Nonnegative integer labels on the simple roots, Bourbaki order.

    The labels are the values alpha_i(H) of the semisimple element H of an
    sl2-triple; they determine the nilpotent orbit.
    """

    algebra: AlgebraType
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.algebra.rank:
            raise ValueError("one label per simple root required")
        if any(x < 0 for x in self.labels):
            raise ValueError("labels must be nonnegative")

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
    """Dimensions of the eigenspaces of ad H, keyed by eigenvalue."""
    rs = build_root_system(wd.algebra)
    dims: dict[int, int] = {0: rs.rank}
    for root in rs.positive_roots:
        v = sum(c * l for c, l in zip(root, wd.labels))
        dims[v] = dims.get(v, 0) + 1
        dims[-v] = dims.get(-v, 0) + 1
    return dict(sorted(dims.items()))


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
    labels = tuple(_i(rs.pair_coroot(a, rs.highest_root)) for a in rs.simple_roots)
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
