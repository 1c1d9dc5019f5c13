"""Registry of the nilpotent-orbit series tables.

Every record transcribes one row of the published series tables: orbit labels,
the dimension and radical-dimension coefficients (both affine in the parameter
a), reductive stabilizers, grading claims, point-count expressions and
unipotent-character degree expressions.  The registry is the ground truth the
verify module audits, so values are data, never computed at load time.  One
builder, ``_series``, declares every series against ``_ROWS``, the ambient
algebra and classical family of each row at each a; a classical member's
orbit datum is read from its printed label.

A handful of printed entries are provably inconsistent with the rest of the
tables (they fail the stabilizer bookkeeping identity, or the expression
fails to be a polynomial / match its companion explicit degree).  Those
entries carry the corrected value together with a ``notes`` item quoting the
printed form; the verify suite reports every such correction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from ._records import AlgebraType, Family, Partition, PartitionPair, algebra, pair_to_partition
from ._expr import L, LinExp, ProductExpr, pexpr

if TYPE_CHECKING:   # annotations only; a diagram imports the root systems
    from . import rootsystems

__all__ = [
    "ReductiveSpec", "Member", "CharacterFormula", "NamedDegree", "SeriesRecord",
    "UnknownSeriesError", "reductive", "group_order", "lookup", "all_series",
    "rows", "hasse_edges", "series_by_row", "L", "EXCEPTIONAL_AMBIENTS",
]


class UnknownSeriesError(KeyError):
    """A lookup found no such series, member or diagram."""

    __str__ = Exception.__str__   # KeyError's would quote the message


# -- reductive stabilizer specifications --------------------------------------


class ReductiveSpec(NamedTuple):
    """Product of simple factors and a central torus."""

    factors: tuple[AlgebraType, ...] = ()
    torus_rank: int = 0
    name: str = ""

    @property
    def dim(self) -> int:
        return sum(f.dimension for f in self.factors) + self.torus_rank

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors) + self.torus_rank

    def __str__(self) -> str:
        return self.name or "0"


def reductive(spec: str) -> ReductiveSpec:
    """Parse stabilizer names: 'sl2+g2', '3sl2', 'co7', 'gl4', 'T2', '0'."""
    text = spec.strip()
    factors: list[AlgebraType] = []
    torus = 0
    if text not in ("", "0"):
        for token in text.split("+"):
            token = token.strip()
            m = re.match(r"^(\d*)([a-zA-Z]+)(\d*)$", token)
            if not m:
                raise ValueError(f"cannot parse factor {token!r}")
            rep, kind, size = m.groups()
            if rep.startswith("0") or kind == "T" and size.startswith("0"):   # '0sl2', 'T01'
                raise ValueError(f"cannot parse factor {token!r}")
            rep = int(rep or 1)
            if kind == "T":
                torus += rep * int(size or 1)
                continue
            if kind == "co":
                factors.extend([algebra(f"so{size}")] * rep)
                torus += rep
                continue
            if kind == "gl":
                factors.extend([algebra(f"sl{size}")] * rep)
                torus += rep
                continue
            factors.extend([algebra(kind + size)] * rep)
    return ReductiveSpec(tuple(factors), torus, text if text else "0")


def group_order(spec: ReductiveSpec) -> ProductExpr:
    """Order polynomial q^N prod (q^{d_i} - 1) times (q-1)^torus."""
    return _group_order(tuple(spec.factors), spec.torus_rank)


@lru_cache(maxsize=None)    # verify asks again for the same few stabilizers and ambients
def _group_order(factors: tuple[AlgebraType, ...], torus_rank: int) -> ProductExpr:
    prefactor = LinExp(0)
    degrees: list[int] = []
    for f in factors:
        prefactor = prefactor + f.num_positive_roots
        degrees.extend(f.invariant_degrees)
    degrees.extend([1] * torus_rank)
    return pexpr(1, prefactor, num=degrees)


EXCEPTIONAL_AMBIENTS = {1: "f4", 2: "e6", 4: "e7", 8: "e8"}


# -- members and character formulas -------------------------------------------


class Member(NamedTuple):
    """One algebra in a series: ambient, orbit label and stabilizer data.

    A classical member's label prints its orbit datum, which ``datum`` reads.
    """

    a: int
    ambient: ReductiveSpec
    carter: str
    h: ReductiveSpec
    family: Family | None = None

    @property
    def datum(self) -> Partition | PartitionPair | tuple[Partition, Partition] | None:
        """The classical parametrization as the label prints it, None for an
        exceptional member: '(2211)' is a Partition, '(21|1)' a PartitionPair
        (alpha|beta) with '-' for an empty side, and '((21),(21))' the pair of
        partitions of a 2sl member.  Raises ValueError for any other label."""
        return None if self.family is None else _label_datum(self.carter)

    def orbit_datum(self):
        """The datum in the family's form: a pair resolves to its partition."""
        datum = self.datum
        if isinstance(datum, PartitionPair):
            return pair_to_partition(datum, self.family.n)
        return datum


class CharacterFormula(NamedTuple):
    """One degree expression: q^(N - shift(a)) times the body.

    ``body`` carries the constant and the cyclotomic factors, with prefactor
    exponent 0; N is the number of positive roots of the ambient algebra.
    """

    name: str
    shift: LinExp
    body: ProductExpr
    a_values: tuple[int, ...] = (2, 4, 8)
    doubled_at: int | None = None   # member whose unique character is the pair sum


class NamedDegree(NamedTuple):
    """A named character this series hits, with its printed invariants."""

    a: int
    variant: str        # name of the CharacterFormula it instantiates
    label: str          # e.g. "phi_{64,13}"
    weyl_dim: int
    b_index: int
    display: ProductExpr | None = None   # explicit printed degree, when given


class SeriesRecord(NamedTuple):
    row: str
    label: str
    dim: LinExp                          # dim O_a
    rad: LinExp                          # dim r(a)
    members: tuple[Member, ...]
    exponents: tuple[int, int, int, int] | None = None   # (p, q, r, s)
    so8_partition: Partition | None = None
    so8_h: ReductiveSpec | None = None
    fundamental_group: str = "trivial"   # "trivial" | "Z2" | "mixed"
    folding: bool = False                # so8 orbit symmetric about the folding
    grading_claims: tuple[tuple[int, LinExp], ...] = ()
    grading_positive_count: int | None = None
    pointcount_Y: ProductExpr | None = None       # divisor of the master count
    pointcount: ProductExpr | None = None          # explicit count (E6 row)
    characters: tuple[CharacterFormula, ...] = ()
    named_degrees: tuple[NamedDegree, ...] = ()
    notes: tuple[str, ...] = ()

    def member(self, a: int) -> Member:
        for m in self.members:
            if m.a == a:
                return m
        raise UnknownSeriesError(f"{self.label} has no member at a={a}")

    @property
    def point_count(self) -> ProductExpr | None:
        """The master count over Y (f4 row), the explicit count (e6 row), else None."""
        if self.pointcount_Y is not None:
            return MASTER_POINTCOUNT / self.pointcount_Y
        return self.pointcount

    def diagram(self, alg: str) -> rootsystems.WeightedDiagram:
        """Weighted Dynkin diagram of the member in ``alg``, from the weight exponents."""
        if self.exponents is None:
            raise UnknownSeriesError(f"series {self.label} has no weight-table diagram")
        from . import rootsystems   # only a diagram needs the root systems
        return rootsystems.series_weight_to_diagram(*self.exponents, alg)


def _pt(s: str) -> Partition:
    """Partition from a digit string such as '3221' (single-digit parts)."""
    return Partition(tuple(int(c) for c in s))


def _label_datum(label: str) -> Partition | PartitionPair | tuple[Partition, Partition]:
    if m := re.fullmatch(r"\((\d+)\)", label):
        return _pt(m[1])
    if m := re.fullmatch(r"\((\d+|-)\|(\d+|-)\)", label):
        return PartitionPair(*(_pt("" if side == "-" else side) for side in m.groups()))
    if m := re.fullmatch(r"\(\((\d+)\),\((\d+)\)\)", label):
        return _pt(m[1]), _pt(m[2])
    raise ValueError(f"{label!r} is not a partition, a pair (alpha|beta) or a 2sl pair")


# The rows of the magic chart: the ambient algebra and classical family of the
# member at each a.  The e6 row starts at a = 2.
_ROWS = {
    "f4": {a: (name, None) for a, name in EXCEPTIONAL_AMBIENTS.items()},
    "e6": {a: (name, None) for a, name in EXCEPTIONAL_AMBIENTS.items() if a > 1},
    "subexceptional": {1: ("sp6", Family("sp", 6)), 2: ("sl6", Family("sl", 6)),
                       4: ("so12", Family("so", 12)), 8: ("e7", None)},
    "severi": {1: ("sl3", Family("sl", 3)), 2: ("2sl3", Family("2sl", 3)),
               4: ("sl6", Family("sl", 6)), 8: ("e6", None)},
    "subseveri": {1: ("sl2", Family("sl", 2)), 2: ("sl3", Family("sl", 3)),
                  4: ("sp6", Family("sp", 6)), 8: ("f4", None)},
}


# the record's tuple fields and the type of their items: a one-item tuple
# written without its trailing comma is the item itself, and is refused here
# rather than in export or verify
_TUPLE_FIELDS = {"characters": CharacterFormula, "named_degrees": NamedDegree,
                 "grading_claims": tuple, "notes": str}


def _series(row: str, label: str, dim: str, rad: str, carter, h, **fields) -> SeriesRecord:
    """One series of ``row``: ``carter`` and ``h`` list the printed orbit label
    and stabilizer at each a of the row, None where the series has no member;
    ``fields`` are the record's other fields."""
    for name, item in _TUPLE_FIELDS.items():
        value = fields.get(name, ())
        bad = [x for x in value if not isinstance(x, item)] \
            if type(value) is tuple else [value]
        if bad:
            raise TypeError(f"series {label}: {name} must be a tuple of "
                            f"{item.__name__}, got a {type(bad[0]).__name__}")
    members = tuple(Member(a, reductive(ambient), label_a, reductive(h_a), family)
                    for (a, (ambient, family)), label_a, h_a
                    in zip(_ROWS[row].items(), carter, h, strict=True)
                    if label_a is not None)
    return SeriesRecord(row, label, L(dim), L(rad), members, **fields)


def _grading(claims: dict) -> tuple[tuple[int, LinExp], ...]:
    return tuple(sorted((i, L(e)) for i, e in claims.items()))


# -- the f4 row ---------------------------------------------------------------

# Shared eight-factor numerator of the master point count.
_MASTER_NUM = ["a", "3a/2", "3a/2+2", "2a+2", "2a+4", "5a/2+4", "3a+6"]

MASTER_POINTCOUNT = pexpr(1, "11a+8", num=_MASTER_NUM, den=["a/2+2"])


def _f4_series():
    return [
        _series("f4", "g", "6a+10", "6a+9",
                ["A1", "A1", "A1", "A1"], ["sp6", "sl6", "so12", "e7"],
                exponents=(1, 0, 0, 0), so8_partition=_pt("221111"), so8_h=reductive("3sl2"),
                folding=True,
                grading_claims=_grading({1: "6a+8", 2: "1"}),
                pointcount_Y=pexpr(1, "11a+8", num=["a", "a+2", "3a/2", "3a/2+2", "2a+2"]),
                characters=(CharacterFormula("principal", L("3a+5"), pexpr(1, 0,
                                num=["2a+4", "5a/2+4"], den=["a/2+2", "a+2"])),)),

        _series("f4", "gQ", "10a+12", "9a+6",
                ["A~1", "2A1", "2A1", "2A1"], ["sl4", "co7", "so9+sl2", "so13"],
                exponents=(0, 0, 0, 1), so8_partition=_pt("2222"), so8_h=reductive("so5"),
                grading_claims=_grading({1: "8a", 2: "a+6"}),
                pointcount_Y=pexpr(1, "21a/2+6", num=["a/2", "a", "a+2", "a+4"]),
                characters=(CharacterFormula("principal", L("5a+6"), pexpr(1, 0,
                                num=["3a/2", "3a/2+2", "2a+4", "3a+6"],
                                den=["a/2", "a/2+2", "a+2", "a+4"])),)),

        _series("f4", "g2", "12a+16", "9a+9",
                ["A1+A~1", "3A1", "3A1", "3A1"], ["2sl2", "sl2+sl3", "sl2+sp6", "sl2+f4"],
                exponents=(0, 1, 0, 0), so8_partition=_pt("3221"), so8_h=reductive("sl2"),
                folding=True,
                grading_claims=_grading({1: "6a+6", 2: "3a+3", 3: "2"}),
                pointcount_Y=pexpr(1, "19a/2+6", num=["2", "a", "3a/2"]),
                characters=(CharacterFormula("principal", L("6a+9"), pexpr(Fraction(1, 2), 0,
                                num=["a/2+1", "a+1", "3a/2+2", "2a+4", "5a/2+4", "3a+6"],
                                den=["1", ("a/2+2", 2), ("a+2", 2), "3a/2+3"])),),
                notes=("printed degree denominator repeats the numerator factor "
                       "q^(a/2+1)-1; with it the expression is not a polynomial in q "
                       "at any a, so the duplicate is dropped here",)),

        _series("f4", "g^2", "12a+18", "6a+8",
                ["A2", "A2", "A2", "A2"], ["sl3", "2sl3", "sl6", "e6"],
                exponents=(2, 0, 0, 0), so8_partition=_pt("3311"), so8_h=reductive("T2"),
                fundamental_group="Z2", folding=True,
                grading_claims=_grading({2: "6a+8", 4: "1"}),
                pointcount_Y=pexpr(1, "8a+4", num=["a/2+1", "a", "a+1", "3a/2"]),
                characters=(CharacterFormula("first", L("6a+9"), pexpr(Fraction(1, 2), 0,
                                num=["a+2", "3a/2+2", "2a+2", "5a/2+4", "3a+6"],
                                den=["1", "a/2+1", "a+1", "a+4", "3a/2+3"])),
                            CharacterFormula("second", L("6a+9"), pexpr(Fraction(1, 2), 0,
                                num=["1", "3a/2+2", "3a/2+3", "2a+2", "2a+4", "5a/2+4"],
                                den=["2", "a/2+1", ("a/2+2", 2), "a+1", "a+2"])))),

        _series("f4", "g3", "16a+18", "9a+6",
                ["A2+A~1", "A2+2A1", "A2+2A1", "A2+2A1"], ["sl2", "gl2", "3sl2", "sl2+so7"],
                exponents=(0, 0, 1, 0),
                grading_claims=_grading({1: "6a", 2: "3a+6", 3: "2a", 4: "3"}),
                pointcount_Y=pexpr(1, "15a/2+4", num=["2", "a/2"]),
                characters=(CharacterFormula("principal", L("8a+9"), pexpr(1, 0,
                                num=["a/2+4", "2a-2", "2a+4", "5a/2+4", "3a+6"],
                                den=["2", "6", "a/2", "a/2+2", "a+2"])),)),

        _series("f4", "g^2.gQ", "16a+20", "5a+5",
                ["B2", "A3", "A3", "A3"], ["2sl2", "co5", "so7+sl2", "so11"],
                exponents=(2, 0, 0, 1), so8_partition=_pt("44"), so8_h=reductive("sl2"),
                grading_claims=_grading({1: "4a", 2: "a+5", 3: "4a", 4: "a+4", 6: "1"}),
                pointcount_Y=pexpr(1, "11a/2+2", num=["a/2", "a", "a+2"]),
                characters=(CharacterFormula("principal", L("8a+10"), pexpr(1, 0,
                                num=["3a/2", "3a/2+2", "2a+2", "5a/2+4", "3a+6"],
                                den=["2", "a/2", "a/2+2", "a/2+4", "a+2"])),),
                notes=("printed stabilizer for the so8 member is 2C; the reductive "
                       "centralizer of the (4,4) nilpotent in so8 is sp2 = sl2, and "
                       "only that value satisfies the radical identity at a=0",
                       "printed grading text gives dim g(a,2) = a+4 and a "
                       "one-dimensional g(a,5); the computed grading has g(a,2) of "
                       "dimension a+5 and its one-dimensional level at i=6, and only "
                       "those values sum to dim g with the quoted g(a,0)")),

        _series("f4", "gQ^2", "18a+12", "8a",
                ["A~2", "2A2", "2A2", "2A2"], ["g2", "g2", "sl2+g2", "2g2"],
                exponents=(0, 0, 0, 2), fundamental_group="mixed",
                grading_claims=_grading({2: "8a", 4: "a+6"}),
                pointcount_Y=pexpr(1, "6a+4", num=["2", "6"]),
                characters=(CharacterFormula("principal", L("9a+6"), pexpr(1, 0,
                                num=["a", "3a/2+2", "2a+4", "5a/2+4", "3a+6"],
                                den=[("2", 2), "6", "a/2+2", "a/2+4"])),
                            CharacterFormula("eps=+1", L("9a+6"), pexpr(Fraction(1, 2), 0,
                                num=["a", "3a/2+2", "2a+4", "5a/2+4", "3a+6", "9", "1"],
                                den=[("2", 2), "6", "a/2+2", "a/2+4", "3", "7"]),
                                a_values=(8,)),
                            CharacterFormula("eps=-1", L("9a+6"), pexpr(Fraction(1, 2), 0,
                                num=["a", "3a/2+2", "2a+4", "5a/2+4", "3a+6"],
                                den=[("2", 2), "6", "a/2+2", "a/2+4"],
                                num_plus=["9", "1"], den_plus=["3", "7"]),
                                a_values=(8,)))),

        _series("f4", "g2.gQ", "18a+18", "8a+5",
                ["A~2+A1", "2A2+A1", "2A2+A1", "2A2+A1"], ["sl2", "sl2", "2sl2", "sl2+g2"],
                exponents=(0, 1, 0, 1),
                grading_claims=_grading({1: "4a+4", 2: "4a+1", 3: "2a+2", 4: "a+2", 5: "2"}),
                pointcount_Y=pexpr(1, "6a+4", num=["2"]),
                characters=(CharacterFormula("principal", L("9a+11"), pexpr(Fraction(1, 3), 0,
                                num=["a/2", "a", "3a/2+2", "2a+2", "2a+4", "5a/2+4", "3a+6"],
                                den=[("2", 2), ("a/2+2", 3), ("a+2", 2)])),)),

        _series("f4", "g.g3", "18a+20", "7a+4",
                ["C3(a1)", "A3+A1", "A~3+A~1", "A3+A1"], ["sl2", "gl2", "3sl2", "sl2+so7"],
                exponents=(1, 0, 1, 0),
                grading_claims=_grading({1: "4a+2", 2: "3a+2", 3: "2a+4", 4: "2a", 5: "2",
                                         6: "1"}),
                pointcount_Y=pexpr(1, "11a/2+2", num=["2", "a/2"]),
                characters=(CharacterFormula("principal", L("9a+11"), pexpr(Fraction(1, 2), 0,
                                num=["3a/2", "3a/2+2", "2a+2", "2a+4", "5a/2+4", "3a+6"],
                                den=["1", "3", "a/2+1", "a/2+2", "a+4", "3a/2+3"])),)),

        _series("f4", "g2^2", "18a+22", "6a+6",
                ["F4(a3)", "D4(a1)", "D4(a1)", "D4(a1)"], ["0", "T2", "3sl2", "so8"],
                exponents=(0, 2, 0, 0), so8_partition=_pt("53"), so8_h=reductive("0"),
                fundamental_group="Z2",
                grading_claims=_grading({2: "6a+6", 4: "3a+3", 6: "2"}),
                pointcount_Y=pexpr(1, "5a+2", num=[("a/2", 2)]),
                characters=(CharacterFormula("first", L("9a+11"), pexpr(Fraction(1, 6), 0,
                                num=[("a/2+1", 3), "a", "3a/2", "3a/2+2", "2a+2", "2a+4",
                                     "5a/2+4", "3a+6"],
                                den=[("1", 2), ("a/2", 2), ("a/2+2", 3), ("a+2", 2), "3a/2+3"],
                                phi_den=(6,))),
                            CharacterFormula("second", L("9a+11"), pexpr(Fraction(1, 3), 0,
                                num=["a", "3a/2", "3a/2+2", "2a+2", "2a+4", "5a/2+4", "3a+6"],
                                den=[("2", 2), ("a/2", 2), ("a+2", 2), "3a/2+6"])))),

        _series("f4", "g^2.g2^2", "18a+24", "3a+4",
                ["B3", "D4", "D4", "D4"], ["sl2", "sl3", "sp6", "f4"],
                exponents=(2, 2, 0, 0), so8_partition=_pt("71"), so8_h=reductive("0"),
                folding=True,
                pointcount_Y=pexpr(1, "7a/2", num=["a", "3a/2"]),
                characters=(CharacterFormula("principal", L("9a+12"), pexpr(1, 0,
                                num=["3a/2+2", "2a+2", "2a+4", "5a/2+4", "3a+6"],
                                den=["2", "6", "a/2+2", "a/2+4", "a+4"])),)),

        _series("f4", "g.g3.gQ^2", "22a+20", "4a+3",
                ["C3", "A5", "A~5", "A5"], ["sl2", "sl2", "2sl2", "sl2+g2"],
                exponents=(1, 0, 1, 2), grading_positive_count=10,
                pointcount_Y=pexpr(1, "2a+2", num=["2"]),
                characters=(CharacterFormula("principal", L("11a+11"), pexpr(Fraction(1, 2), 0,
                                num=["a", "3a/2", "3a/2+2", "2a+2", "2a+4", "5a/2+4", "3a+6"],
                                den=["1", "3", "4", "a/2+2", "a/2+3", "a/2+5", "a+4"])),)),

        _series("f4", "g2^2.gQ^2", "22a+22", "4a+4",
                ["F4(a2)", "E6(a3)", "E6(a3)", "E6(a3)"], ["0", "0", "sl2", "g2"],
                exponents=(0, 2, 0, 2),
                pointcount_Y=pexpr(1, "2a+2"),
                characters=(CharacterFormula("principal", L("11a+11"), pexpr(Fraction(1, 2), 0,
                                num=["a/2+3", "a", "3a/2", "3a/2+2", "2a+2", "2a+4", "5a/2+4",
                                     "3a+6"],
                                den=["1", ("2", 2), ("a/2+2", 3), "a/2+5", "a+6"],
                                den_plus=["3"])),)),

        _series("f4", "g^2.g2^2.gQ^2", "22a+24", "3a+3",
                ["F4(a1)", "D5", "D5", "D5"], ["0", "T1", "2sl2", "so7"],
                exponents=(2, 2, 0, 2),
                pointcount_Y=pexpr(1, "3a/2", num=["a/2"]),
                characters=(CharacterFormula("principal", L("11a+12"), pexpr(1, 0,
                                num=["a/2+4", "2a-2", "2a+2", "2a+4", "5a/2+4", "3a+6"],
                                den=["2", "4", ("6", 2), "a/2", "a/2+8"])),)),

        _series("f4", "g^2.g2^2.g3^2.gQ^2", "24a+24", "2a+2",
                ["F4", "E6", "E6", "E6"], ["0", "0", "sl2", "g2"],
                exponents=(2, 2, 2, 2),
                pointcount_Y=pexpr(1, 0),
                characters=(CharacterFormula("principal", L("12a+12"), pexpr(1, 0,
                                num=["a", "3a/2", "3a/2+2", "2a+2", "2a+4", "5a/2+4", "3a+6"],
                                den=["2", "6", "8", "12", "a/2+2", "a/2+4", "a/2+8"])),)),
    ]


# -- the E6 row ---------------------------------------------------------------

def _e6_series():
    e6_pc_core = ["5a/4-2", "3a/2", "3a/2+2", "2a+2", "2a+4", "5a/2+4", "3a+6"]
    return [
        _series("e6", "g.gQ", "15a+16", "9a+5",
                ["A2+A1", "A2+A1", "A2+A1"], ["gl3", "gl4", "sl6"],
                exponents=(1, 0, 0, 1), fundamental_group="mixed",
                pointcount=pexpr(1, "3a+4", num=["2"] + e6_pc_core,
                                 den=["3", "a/4", "a/2", "a/2+1", "a/2+2"]),
                characters=(
                    CharacterFormula("pair-", L("15a/2+8"), pexpr(Fraction(1, 2), 0,
                                         num=["2", "5a/4-2", "3a/2+2", "2a+2", "2a+4",
                                              "3a+6", "a/4+2", "5a/4+2"],
                                         den=["3", "a/4", "a/2", "a/2+1", "a/2+2", "a/2+4",
                                              "3a/4+1", "3a/4+3"]), doubled_at=2),
                    CharacterFormula("pair+", L("15a/2+8"), pexpr(Fraction(1, 2), 0,
                                         num=["2", "5a/4-2", "3a/2+2", "2a+2", "2a+4",
                                              "3a+6"],
                                         den=["3", "a/4", "a/2", "a/2+1", "a/2+2", "a/2+4"],
                                         num_plus=["a/4+2", "5a/4+2"],
                                         den_plus=["3a/4+1", "3a/4+3"]), doubled_at=2)),
                named_degrees=(
                    NamedDegree(2, "pair-", "phi_{64,13}", 64, 13,
                                pexpr(1, 13, num=[6, 8, 12], den=[1, (3, 2)])),
                    NamedDegree(4, "pair+", "phi_{120,25}", 120, 25,
                                pexpr(Fraction(1, 2), 25, num=[8, 10, 12, 18],
                                      den=[1, 3, 4, 6], num_plus=[3, 7],
                                      den_plus=[4, 6])),
                    NamedDegree(4, "pair-", "phi_{105,26}", 105, 26,
                                pexpr(Fraction(1, 2), 25, num=[8, 10, 12, 18, 3, 7],
                                      den=[1, 3, 4, 6, 4, 6])),
                    NamedDegree(8, "pair+", "phi_{210,52}", 210, 52,
                                pexpr(Fraction(1, 2), 52, num=[14, 18, 20, 30],
                                      den=[3, 4, 5, 6], num_plus=[4, 12],
                                      den_plus=[7, 9])),
                    NamedDegree(8, "pair-", "phi_{160,55}", 160, 55,
                                pexpr(Fraction(1, 2), 52, num=[14, 18, 20, 30, 4, 12],
                                      den=[3, 4, 5, 6, 7, 9]))),
                notes=("printed point count lacks the leading q^2-1 numerator factor "
                       "carried by every other count in this row; without it the "
                       "degree falls two short of dim O_a and the group-order "
                       "quotient is missed by exactly q^2-1",
                       "printed degree denominator factor q^(a/4-1)-1 corrected to "
                       "q^(a/4)-1: the printed form vanishes identically at a=4 and "
                       "misses the explicit degrees at a=2 and a=8")),

        _series("e6", "g^2.gQ^2", "20a+20", "5a+4",
                ["A4", "A4", "A4"], ["gl2", "gl3", "sl5"],
                exponents=(2, 0, 0, 2), fundamental_group="mixed",
                pointcount=pexpr(1, "15a/2+6", num=["2"] + e6_pc_core,
                                 den=["3", "a/4", "a/2", "a/2+1"]),
                characters=(
                    CharacterFormula("pair-", L("10a+10"), pexpr(Fraction(1, 2), 0,
                                         num=["3a/4-1", "3a/4", "a+4", "2a-2", "2a+2",
                                              "5a/2+4", "3a+6", "2", "a+2"],
                                         den=["4", "6", "a/4", "a/4+1", "a/2", ("a/2+1", 2),
                                              "a/2+1", "a/2+3"]), doubled_at=2),
                    CharacterFormula("pair+", L("10a+10"), pexpr(Fraction(1, 2), 0,
                                         num=["3a/4-1", "3a/4", "a+4", "2a-2", "2a+2",
                                              "5a/2+4", "3a+6"],
                                         den=["4", "6", "a/4", "a/4+1", "a/2", ("a/2+1", 2)],
                                         num_plus=["2", "a+2"], den_plus=["a/2+1", "a/2+3"]),
                                     doubled_at=2)),
                named_degrees=(
                    NamedDegree(2, "pair-", "phi_{81,6}", 81, 6, None),
                    NamedDegree(4, "pair+", "phi_{420,13}", 420, 13, None),
                    NamedDegree(4, "pair-", "phi_{336,14}", 336, 14, None),
                    NamedDegree(8, "pair+", "phi_{2268,30}", 2268, 30, None),
                    NamedDegree(8, "pair-", "phi_{1296,33}", 1296, 33, None),
                )),

        _series("e6", "g.g3.gQ", "21a+20", "6a+3",
                ["A4+A1", "A4+A1", "A4+A1"], ["T1", "T2", "gl3"],
                exponents=(1, 0, 1, 1), fundamental_group="mixed",
                pointcount=pexpr(1, "15a/2+6", num=["2"] + e6_pc_core, den=["1", "3", "a/4"]),
                characters=(CharacterFormula("pair", L("21a/2+10"), pexpr(Fraction(1, 2), 0,
                                num=["2", "5a/4-2", "3a/2", "3a/2+2", "2a+2", "2a+4",
                                     "5a/2+4", "3a+6"],
                                den=["1", ("3", 2), "a/4", "a/2+1", "a/2+3", "a/2+5",
                                     "3a/2+3"]), doubled_at=2),),
                named_degrees=(
                    NamedDegree(2, "pair", "phi_{60,5}", 60, 5, None),
                    NamedDegree(4, "pair", "phi_{512,11}", 512, 11, None),
                    NamedDegree(4, "pair", "phi_{512,12}", 512, 12, None),
                    NamedDegree(8, "pair", "phi_{4096,26}", 4096, 26, None),
                    NamedDegree(8, "pair", "phi_{4096,27}", 4096, 27, None),
                )),

        _series("e6", "g^2.g3.gQ", "21a+22", "5a+3",
                ["D5(a1)", "D5(a1)", "D5(a1)"], ["T1", "gl2", "sl4"],
                exponents=(2, 0, 1, 1), fundamental_group="mixed",
                pointcount=pexpr(1, "8a+7", num=["2"] + e6_pc_core, den=["3", "a/4", "a/2"]),
                characters=(
                    CharacterFormula("psi", L("21a/2+11"), pexpr(Fraction(1, 2), 0,
                                         num=["a/4+4", "3a/4", "5a/4-2", "3a/2+2", "2a+2",
                                              "2a+4", "5a/2+4", "3a+6"],
                                         den=[("3", 2), "a/4", "a/4+1", "a/2", "a/2+4",
                                              "a/2+8", "3a/4+3"]), doubled_at=2),
                    CharacterFormula("psi'", L("21a/2+11"), pexpr(Fraction(1, 2), 0,
                                         num=["3a/4-1", "5a/4-1", "3a/2", "3a/2+2", "2a+2",
                                              "2a+4", "5a/2+4", "3a+6"],
                                         den=["3", "5", "a/4", "a/2", ("a/2+2", 2), "3a/4",
                                              "3a/2+6"]), doubled_at=2)),
                named_degrees=(
                    NamedDegree(2, "psi", "phi_{64,4}", 64, 4, None),
                    NamedDegree(4, "psi", "phi_{420,10}", 420, 10, None),
                    NamedDegree(4, "psi'", "phi_{336,11}", 336, 11, None),
                    NamedDegree(8, "psi", "phi_{2800,25}", 2800, 25, None),
                    NamedDegree(8, "psi'", "phi_{2100,28}", 2100, 28, None),
                )),

        _series("e6", "g^2.g3^2.gQ^2", "24a+22", "3a+2",
                ["E6(a1)", "E6(a1)", "E6(a1)"], ["0", "T1", "sl3"],
                exponents=(2, 0, 2, 2), fundamental_group="mixed",
                pointcount=pexpr(1, "21a/2+7", num=["2"] + e6_pc_core, den=["3", "a/4"]),
                characters=(
                    CharacterFormula("psi", L("12a+11"), pexpr(Fraction(1, 2), 0,
                                         num=["a/2+2", "3a/4-1", "3a/4", "2a-2", "2a+2",
                                              "2a+4", "5a/2+4", "3a+6"],
                                         den=[("3", 2), "4", "12", "a/4", "a/4+1", "a/2+1",
                                              "a/2+5"]), doubled_at=2),
                    CharacterFormula("psi'", L("12a+11"), pexpr(Fraction(1, 2), 0,
                                         num=["a/2+5", "5a/4-2", "3a/2", "3a/2+2", "2a+2",
                                              "2a+4", "5a/2+4", "3a+6"],
                                         den=["3", "4", ("6", 2), "a/4", "a/2+2", "a/2+4",
                                              "a+10"]), doubled_at=2)),
                named_degrees=(
                    NamedDegree(2, "psi", "phi_{6,1}", 6, 1, None),
                    NamedDegree(4, "psi", "phi_{120,4}", 120, 4, None),
                    NamedDegree(4, "psi'", "phi_{105,5}", 105, 5, None),
                    NamedDegree(8, "psi", "phi_{2800,13}", 2800, 13, None),
                    NamedDegree(8, "psi'", "phi_{2100,16}", 2100, 16, None)),
                notes=("printed psi repeats q^(3a/4)-1 twice; the first copy is "
                       "corrected to q^(3a/4-1)-1 (the same adjacent pair appears in "
                       "the A4-series formula), restoring polynomiality and the "
                       "companion degrees",
                       "printed psi' has prefactor exponent N-21a/2-11 and a "
                       "denominator pair q^(3a/2)-1, q^(3a/2+2)-1 that cancels its "
                       "own numerator; corrected to N-12a-11 with denominator pair "
                       "q^(a/2+2)-1, q^(a/2+4)-1, which reproduces phi_{6,1}, "
                       "phi_{120,4}, phi_{105,5}, phi_{2800,13} and phi_{2100,16} "
                       "exactly",
                       "stabilizer for the a=4 member printed as 0; the radical "
                       "identity forces a one-dimensional torus")),
    ]


# -- the subexceptional, Severi and sub-Severi rows ---------------------------


def _other_rows():
    tor = "subexceptional torus factors restored: the printed tables quote "\
          "only the semisimple type, and the radical identity plus the "\
          "centralizer oracle fix the full reductive centralizer"
    swap = "printed Carter labels and stabilizers of the two Severi series "\
           "are exchanged: the dimension formulas force 2A1 (dim 32) on the "\
           "V line and 2A2 (dim 48) on the VV* line, and the stabilizers "\
           "follow the centralizer oracle"
    return [
        _series("subexceptional", "g", "4a+2", "4a+1",
                ["(11|1)", "(21111)", "(21111|-)", "A1"],
                ["so5", "gl4", "sl2+so8", "so12"],
                notes=("printed h for the sl6 member is sl4(so6); the centralizer is "
                       "gl4 and the identity needs the torus", tor)),
        _series("subexceptional", "gQ", "6a+4", "5a+2",
                ["(21|-)", "(2211)", "(2211|-)", "2A1"],
                ["gl2", "2sl2+T1", "so5+2sl2", "sl2+so9"],
                notes=("printed h for the so12 member is sl2+so5; the centralizer of "
                       "the (2,2,2,2,1,1,1,1) nilpotent is sp4+so4 = so5+2sl2 and the "
                       "radical identity requires dimension 16", tor)),
        _series("subexceptional", "gAP2", "6a+6", "3a+3",
                ["(2|1)", "(222)", "(222|-)", "3A1''"], ["sl2", "sl3", "sp6", "f4"]),
        _series("subexceptional", "gQ^2", "10a+4", "4a",
                ["(3|-)", "(33)", "(33|-)", "2A2"], ["sl2", "sl2", "2sl2", "sl2+g2"]),
        _series("subexceptional", "gAP2^2.gQ", "10a+4", "3a+1",
                ["(1|2)", "(411)", "(411|-)", "A3"], ["sl2", "gl2", "3sl2", "sl2+so7"]),
        _series("subexceptional", "gAP2.g", "10a+6", "3a+2",
                ["(-|21)", "(42)", "(42|-)", "A3+A1''"], ["0", "T1", "2sl2", "so7"]),
        _series("subexceptional", "g^2.gAP2^2.gQ^2", "12a+6", "2a+1",
                ["(-|3)", "(6)", "(6|-)", "A5"], ["0", "0", "sl2", "g2"]),
        _series("subexceptional", "g^2.gQ^2", "12a+4", "3a",
                [None, "(51)", "(51|-)", "A4"], [None, "T1", "T2", "gl3"],
                notes=("printed h column reads 0, 0, sl3; the centralizers are the "
                       "tori S(gl1 x gl1), so2 x so2 and gl3, as the identity requires",
                       tor)),
        _series("subexceptional", "g.gQ", "9a+4", "5a+1",
                [None, "(321)", "(321|-)", "A2+A1"], [None, "T2", "sl2+T2", "gl4"],
                notes=(tor,)),
        _series("subexceptional", "g^2", "8a+2", "4a",
                [None, "(3111)", "(3111|-)", "A2"], [None, "gl3", "co6", "sl6"],
                notes=("printed radical dimension 5a+1 duplicates the line above; "
                       "the stabilizer bookkeeping gives 4a for all three members", tor)),
        _series("severi", "V", "4a", "3a",
                ["(21)", "((21),(21))", "(2211)", "2A1"], ["T1", "T2", "2sl2+T1", "co7"],
                notes=(swap,)),
        _series("severi", "gQ=VV*", "6a", "2a",
                ["(3)", "((3),(3))", "(33)", "2A2"], ["0", "0", "sl2", "g2"],
                notes=(swap,)),
        _series("subseveri", "gQ=W", "4a-2", "a",
                ["(2)", "(3)", "(3|-)", "A~2"], ["0", "0", "sl2", "g2"]),
    ]


# -- assembled registry --------------------------------------------------------


@lru_cache(maxsize=1)
def all_series() -> tuple[SeriesRecord, ...]:
    return tuple(_f4_series() + _e6_series() + _other_rows())


def rows() -> tuple[str, ...]:
    return tuple(_ROWS)


def series_by_row(row: str) -> tuple[SeriesRecord, ...]:
    if row not in rows():
        raise UnknownSeriesError(f"unknown row {row!r}")
    return tuple(r for r in all_series() if r.row == row)


def lookup(row: str, label: str) -> SeriesRecord:
    for r in all_series():
        if r.row == row and r.label == label:
            return r
    raise UnknownSeriesError(f"no series {label!r} in row {row!r}")


# Closure order of the f4-row series, upper covers lower.
HASSE_EDGES_F4 = (
    ("g^2.g2^2.g3^2.gQ^2", "g^2.g2^2.gQ^2"),
    ("g^2.g2^2.gQ^2", "g2^2.gQ^2"),
    ("g2^2.gQ^2", "g^2.g2^2"),
    ("g2^2.gQ^2", "g.g3.gQ^2"),
    ("g^2.g2^2", "g2^2"),
    ("g.g3.gQ^2", "g2^2"),
    ("g2^2", "g.g3"),
    ("g.g3", "g2.gQ"),
    ("g.g3", "g^2.gQ"),
    ("g2.gQ", "g3"),
    ("g2.gQ", "gQ^2"),
    ("g^2.gQ", "g3"),
    ("g3", "g^2"),
    ("gQ^2", "g2"),
    ("g^2", "g2"),
    ("g2", "gQ"),
    ("gQ", "g"),
)


def hasse_edges() -> tuple[tuple[str, str], ...]:
    return HASSE_EDGES_F4
