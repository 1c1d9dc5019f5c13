"""A classical member's orbit datum is read from its printed label."""

import pytest

from orbitseries.partitions import EMPTY, Family, Partition, PartitionPair
from orbitseries.seriesdb import Member, all_series, lookup, reductive


def _member(label: str, family: Family | None = Family("sl", 6)) -> Member:
    return Member(1, reductive("sl6"), label, reductive("0"), family)


@pytest.mark.parametrize("label, datum", [
    ("(2211)", Partition((2, 2, 1, 1))),
    ("(6)", Partition((6,))),
    ("(21|1)", PartitionPair(Partition((2, 1)), Partition((1,)))),
    ("(1|2)", PartitionPair(Partition((1,)), Partition((2,)))),
    ("(-|21)", PartitionPair(EMPTY, Partition((2, 1)))),
    ("(21111|-)", PartitionPair(Partition((2, 1, 1, 1, 1)), EMPTY)),
    ("((21),(21))", (Partition((2, 1)), Partition((2, 1)))),
    ("((3),(21))", (Partition((3,)), Partition((2, 1)))),
], ids=["partition", "one-part", "pair", "pair-alpha-first", "pair-empty-alpha",
        "pair-empty-beta", "2sl", "2sl-ordered"])
def test_each_label_shape_reads_as_its_datum(label, datum):
    got = _member(label).datum
    assert got == datum and type(got) is type(datum)


@pytest.mark.parametrize("label", ["A1", "(2|1|1)", "(21", "(2,1)", "((21))", "()",
                                   "(|1)", "(--|1)", "((21),(21),(1))", " (21)"])
def test_a_classical_member_with_any_other_label_is_refused(label):
    with pytest.raises(ValueError, match="is not a partition"):
        _member(label).datum


def test_an_exceptional_member_has_no_datum():
    assert _member("A1", None).datum is None
    assert _member("(21)", None).datum is None


def test_every_classical_label_is_a_datum_of_its_family():
    classical = [(r, m) for r in all_series() for m in r.members if m.family is not None]
    assert len(classical) == 36
    shapes = set()
    for rec, m in classical:
        m.family.validate(m.orbit_datum())
        shapes.add(type(m.datum))
        if m.family.kind in ("so", "sp"):
            assert isinstance(m.datum, PartitionPair), (rec.label, m.a)
    assert shapes == {Partition, PartitionPair, tuple}


def test_registry_pairs_resolve_to_their_partitions():
    # (alpha|beta) gives each alpha part twice and each beta part doubled
    cases = [("gAP2.g", 1, PartitionPair(EMPTY, Partition((2, 1))), (4, 2)),
             ("g", 1, PartitionPair(Partition((1, 1)), Partition((1,))), (2, 1, 1, 1, 1)),
             ("gAP2^2.gQ", 1, PartitionPair(Partition((1,)), Partition((2,))), (4, 1, 1)),
             ("gQ", 4, PartitionPair(Partition((2, 2, 1, 1)), EMPTY),
              (2, 2, 2, 2, 1, 1, 1, 1))]
    for label, a, pair, parts in cases:
        m = lookup("subexceptional", label).member(a)
        assert m.datum == pair and m.orbit_datum() == Partition(parts)
    v = lookup("severi", "V").member(2)
    assert v.family == Family("2sl", 3)
    assert v.orbit_datum() == (Partition((2, 1)), Partition((2, 1)))
