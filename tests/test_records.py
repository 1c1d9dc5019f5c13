"""The package's record classes behave as frozen dataclasses did: immutable,
equal within a class and hashed as the tuple of their fields, with the same
repr, constructor keywords and constructor errors, and copy and pickle.  The
registry's record types, defined in ``_records``, are still the objects that
``partitions`` and ``rootsystems`` offer, and old pickles naming those load."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import orbitseries
from orbitseries import seriesdb as db
from orbitseries._records import Record
from orbitseries.exactpoly import Cyclo, LinExp, ProductExpr, QPhi, pexpr
from orbitseries.partitions import Family, InvalidPartitionError, Partition, PartitionPair
from orbitseries.rootsystems import (AlgebraType, UnsupportedRankError, WeightedDiagram,
                                     algebra, grading_dims)
from orbitseries.verify import CheckResult, VerificationReport, VerifyConfig

_REC = db.lookup("f4", "g")
_OTHER = db.lookup("f4", "gQ")
_CHECK = CheckResult("dims", "f4:g", "pass", "1", "1")

# (field names in declaration order, a record, a different record of its class)
RECORDS = [
    (("c0", "c1"), LinExp(1, 2), LinExp(1, 3)),
    (("exponent", "sign"), Cyclo(LinExp(2)), Cyclo(LinExp(2), -1)),
    (("d",), QPhi(6), QPhi(2)),
    (("constant", "prefactor_exponent", "factors"),
     pexpr(2, "a", num=[1, "a"]), ProductExpr()),
    (("parts",), Partition((3, 1)), Partition((2, 2))),
    (("kind", "n"), Family("so", 8), Family("sl", 8)),
    (("alpha", "beta"), PartitionPair(Partition((1,)), Partition((3, 1))),
     PartitionPair(Partition((1,)), Partition((3,)))),
    (("family", "rank"), AlgebraType("E", 6), AlgebraType("E", 7)),
    (("algebra", "labels"), WeightedDiagram(AlgebraType("G", 2), (2, 0)),
     WeightedDiagram(AlgebraType("G", 2), (0, 2))),
    (("factors", "torus_rank", "name"), db.reductive("sl2+g2"), db.reductive("T2")),
    (("a", "ambient", "carter", "h", "family"),
     _REC.members[0], _REC.members[1]),
    (("name", "shift", "body", "a_values", "doubled_at"),
     _REC.characters[0], _OTHER.characters[0]),
    (("a", "variant", "label", "weyl_dim", "b_index", "display"),
     *next(r for r in db.all_series() if len(r.named_degrees) > 1).named_degrees[:2]),
    (("row", "label", "dim", "rad", "members", "exponents", "so8_partition", "so8_h",
      "fundamental_group", "folding", "grading_claims", "grading_positive_count",
      "pointcount_Y", "pointcount", "characters", "named_degrees", "notes"),
     _REC, _OTHER),
    (("suite", "subject", "status", "lhs", "rhs", "note"),
     _CHECK, CheckResult("dims", "f4:g", "fail", "1", "2")),
    (("suites", "a_values"), VerifyConfig(), VerifyConfig(("dims",))),
    (("results",), VerificationReport((_CHECK,)), VerificationReport(())),
]
IDS = [type(x).__name__ for _, x, _ in RECORDS]


@pytest.mark.parametrize("fields, x, other", RECORDS, ids=IDS)
def test_fields_are_frozen(fields, x, other):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(other, name))
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("fields, x, other", RECORDS, ids=IDS)
def test_equal_and_hashed_as_the_field_tuple(fields, x, other):
    values = tuple(getattr(x, name) for name in fields)
    positional = type(x)(*values)
    by_keyword = type(x)(**dict(zip(fields, values)))
    for y in (positional, by_keyword):
        assert y == x and not y != x and y is not x
        assert hash(y) == hash(x) == hash(values)
    assert x != other and hash(other) == hash(tuple(getattr(other, n) for n in fields))


@pytest.mark.parametrize("fields, x, other", RECORDS, ids=IDS)
def test_copied_and_pickled_equal(fields, x, other):
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert all(getattr(y, name) == getattr(x, name) for name in fields)


def test_slots_records_are_not_their_field_tuple():
    alpha, beta = Partition((1,)), Partition((3,))
    pair = PartitionPair(alpha, beta)
    assert pair != (alpha, beta) and not pair == (alpha, beta)
    assert len({pair: 0, (alpha, beta): 1}) == 2
    assert Partition((3, 1)) != ((3, 1),) and Family("so", 8) != ("so", 8)


def test_repr_is_the_dataclass_text():
    assert repr(LinExp(1, 2)) == "LinExp(c0=Fraction(1, 1), c1=Fraction(2, 1))"
    assert repr(Partition((3, 1))) == "Partition(parts=(3, 1))"
    assert repr(Family("so", 8)) == "Family(kind='so', n=8)"
    assert str(Family("so", 8)) == repr(Family("so", 8))
    assert repr(PartitionPair(Partition((2, 1)), Partition((1,)))) == (
        "PartitionPair(alpha=Partition(parts=(2, 1)), beta=Partition(parts=(1,)))")
    assert repr(AlgebraType("E", 8)) == "AlgebraType(family='E', rank=8)"


@pytest.mark.parametrize("build, error, message", [
    (lambda: Partition((0,)), ValueError, "parts must be positive"),
    (lambda: Partition(("3",)), ValueError, "parts must be integers"),
    (lambda: Family("xx", 3), ValueError, "unknown family kind 'xx'"),
    (lambda: Family("sp", 3), ValueError, "sp requires even matrix size"),
    (lambda: Family("sl", 2.5), ValueError,
     "matrix size n must be a non-negative integer, not 2.5"),
    (lambda: Family("so", -3), ValueError,
     "matrix size n must be a non-negative integer, not -3"),
    (lambda: Family("sp", "4"), ValueError,
     "matrix size n must be a non-negative integer, not '4'"),
    (lambda: AlgebraType("E", 5), UnsupportedRankError, "E5 does not exist"),
    (lambda: AlgebraType("", 3), UnsupportedRankError, "unknown family ''"),
    (lambda: AlgebraType("AB", 3), UnsupportedRankError, "unknown family 'AB'"),
    (lambda: algebra("e9"), UnsupportedRankError, "E9 does not exist"),
    (lambda: WeightedDiagram(AlgebraType("G", 2), (1,)), ValueError,
     "one label per simple root required"),
    (lambda: WeightedDiagram(AlgebraType("G", 2), (1, -1)), ValueError,
     "labels must be nonnegative"),
    (lambda: PartitionPair(Partition((1,)), Partition((2, 2))), ValueError,
     "beta must have distinct parts"),
    (lambda: ProductExpr(1, LinExp(0), ((Cyclo(LinExp(1)), 0),)), ValueError,
     "factor multiplicity must be nonzero"),
    (lambda: LinExp(0.5), TypeError, "exact arithmetic takes an int or a Fraction, not float"),
    (lambda: ProductExpr(0.5), TypeError,
     "exact arithmetic takes an int or a Fraction, not float"),
], ids=["partition-zero", "partition-str", "family-kind", "family-sp", "family-float",
        "family-negative", "family-str", "algebra-E5",
        "algebra-empty", "algebra-two-letters", "algebra-e9",
        "diagram-count", "diagram-negative", "pair-beta", "product-mult",
        "linexp-float", "product-float"])
def test_constructor_errors(build, error, message):
    with pytest.raises(error) as got:
        build()
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize("name, plain", [
    ("so08", "so8"), ("e08", "e8"), ("sl02", "sl2"), ("spin07", "spin7"), ("g02", "g2"),
    ("sp006", "sp6")])
def test_an_algebra_rank_with_a_leading_zero_is_refused(name, plain):
    with pytest.raises(UnsupportedRankError) as got:
        algebra(name)
    assert str(got.value) == f"unknown algebra {name!r}"
    assert isinstance(algebra(plain), AlgebraType)


def test_a_linexp_entry_is_an_exponent_not_a_pair():
    # a LinExp is a tuple; pexpr must not read it as (exponent, multiplicity)
    expr = pexpr(1, 0, num=[LinExp(1, 1)])
    assert expr.factors == ((Cyclo(LinExp(1, 1), 1), 1),)
    assert pexpr(1, 0, num=[(LinExp(1, 1), 2)]).factors == ((Cyclo(LinExp(1, 1), 1), 2),)


def test_a_list_field_is_stored_as_a_tuple():
    # a list-built record equals and hashes like its tuple-built twin, and
    # the cached gradings and the product take it
    g2 = AlgebraType("G", 2)
    labels = (2, 0)
    diagram, twin = WeightedDiagram(g2, [2, 0]), WeightedDiagram(g2, labels)
    assert diagram.labels == labels and type(diagram.labels) is tuple
    assert diagram == twin and hash(diagram) == hash(twin)
    assert grading_dims(diagram) == grading_dims(twin)
    assert twin.labels is labels
    factors = ((Cyclo(LinExp(1)), 1),)
    expr, twin = ProductExpr(1, LinExp(0), list(factors)), ProductExpr(1, LinExp(0), factors)
    assert expr.factors == factors and type(expr.factors) is tuple
    assert expr == twin and hash(expr) == hash(twin)
    assert expr * pexpr(2) == twin * pexpr(2) == pexpr(2, 0, num=[1])
    assert pexpr(2) * expr == pexpr(2, 0, num=[1])
    assert twin.factors is factors


def test_a_partition_pair_is_not_a_2sl_datum():
    sl_pair = (Partition((3,)), Partition((2, 1)))
    Family("2sl", 3).validate(sl_pair)
    with pytest.raises(InvalidPartitionError):
        Family("2sl", 3).validate(PartitionPair(*sl_pair))


# the records whose constructor normalises or validates
VALIDATED = [
    (LinExp(1, 2), {"c0": 0.5}, TypeError,
     "exact arithmetic takes an int or a Fraction, not float"),
    (pexpr(2, "a", num=[1]), {"constant": 0.5}, TypeError,
     "exact arithmetic takes an int or a Fraction, not float"),
    (pexpr(2, "a", num=[1]), {"factors": ((Cyclo(LinExp(1)), 0),)}, ValueError,
     "factor multiplicity must be nonzero"),
    (AlgebraType("E", 6), {"rank": 5}, UnsupportedRankError, "E5 does not exist"),
    (WeightedDiagram(AlgebraType("G", 2), (2, 0)), {"labels": (1, -1)}, ValueError,
     "labels must be nonnegative"),
]
VALIDATED_IDS = ["linexp-float", "product-float", "product-mult", "algebra-E5",
                 "diagram-negative"]


@pytest.mark.parametrize("x, bad, error, message", VALIDATED, ids=VALIDATED_IDS)
def test_replace_and_make_validate(x, bad, error, message):
    # the constructor is the only way to build a record: there is no
    # _replace or _make to skip it, and no field tuple to feed one
    for name in ("_replace", "_make"):
        assert not hasattr(x, name) and not hasattr(type(x), name)
    with pytest.raises(TypeError):
        iter(x)
    fields = {name: getattr(x, name) for name in x._fields}
    with pytest.raises(error) as got:
        type(x)(**{**fields, **bad})
    assert type(got.value) is error and str(got.value) == message
    assert type(x)(**fields) == x


@pytest.mark.parametrize("x", [pexpr(2, "a", num=[1]), AlgebraType("E", 6),
                               WeightedDiagram(AlgebraType("G", 2), (2, 0))],
                         ids=["ProductExpr", "AlgebraType", "WeightedDiagram"])
def test_no_tuple_concatenation_or_repetition(x):
    ops = [lambda: x + x, lambda: x + (1,), lambda: (1,) + x, lambda: 2 * x]
    if type(x) is not ProductExpr:   # which defines its own product
        ops += [lambda: x * 2, lambda: x * x]
    for op in ops:
        with pytest.raises(TypeError, match="unsupported operand|can only concatenate"):
            op()
    # arithmetic the records define stays
    assert LinExp(1) + LinExp(0, 1) == LinExp(1, 1) and 2 * LinExp(1) == LinExp(2)
    assert pexpr(2) * pexpr(3) == pexpr(6)


def test_product_expression_times_a_number_is_a_type_error():
    # a ProductExpr multiplies and divides only by another ProductExpr, in either order
    x = pexpr(2, "a", num=[1])
    for op in (lambda: x * 2, lambda: 2 * x, lambda: x / 2, lambda: 2 / x):
        with pytest.raises(TypeError):
            op()
    assert x * pexpr(3) == pexpr(6, "a", num=[1]) and x / x == pexpr(1, 0, num=[1], den=[1])


def test_a_record_that_validates_is_a_record_and_no_class_extends_a_named_tuple():
    classes = []
    for info in pkgutil.iter_modules(orbitseries.__path__):
        module = importlib.import_module(f"orbitseries.{info.name}")
        classes += [c for c in vars(module).values()
                    if inspect.isclass(c) and c.__module__ == module.__name__]
    tuples = [c for c in classes if issubclass(c, tuple)]
    assert tuples and all(c.__bases__ == (tuple,) for c in tuples), \
        [c for c in tuples if c.__bases__ != (tuple,)]
    for c in (LinExp, ProductExpr, AlgebraType, WeightedDiagram, Partition, Family,
              PartitionPair):
        assert issubclass(c, Record) and not issubclass(c, tuple)


# -- the registry's record types, defined in _records -------------------------

MOVED = {
    "partitions": ("EMPTY", "Family", "InvalidPartitionError", "NotAdjacentCellsError",
                   "Partition", "PartitionPair", "SizeMismatchError", "pair_to_partition",
                   "partition"),
    "rootsystems": ("AlgebraType", "UnsupportedRankError", "algebra"),
}


@pytest.mark.parametrize("module", sorted(MOVED))
def test_a_moved_name_is_one_object_in_every_module(module):
    records = importlib.import_module("orbitseries._records")
    mod = importlib.import_module(f"orbitseries.{module}")
    for name in MOVED[module]:
        assert getattr(mod, name) is getattr(records, name)
        if name in orbitseries.__all__:
            assert getattr(orbitseries, name) is getattr(records, name)
    assert {"AlgebraType", "Family", "Partition", "PartitionPair", "algebra"} <= set(
        orbitseries.__all__)


def test_a_pickle_that_names_the_partitions_module_still_loads():
    # protocol 0, written out by hand: GLOBAL module\nname, MARK, TUPLE, REDUCE
    p21 = b"corbitseries.partitions\nPartition\n((I2\nI1\nttR"
    p1 = b"corbitseries.partitions\nPartition\n((I1\nttR"
    assert pickle.loads(p21 + b".") == Partition((2, 1))
    assert pickle.loads(b"corbitseries.partitions\nFamily\n(Vso\nI8\ntR.") == Family("so", 8)
    pair = pickle.loads(b"corbitseries.partitions\nPartitionPair\n(" + p21 + p1 + b"tR.")
    assert pair == PartitionPair(Partition((2, 1)), Partition((1,)))
    assert type(pair.alpha) is Partition and pair.alpha._size == 3

