"""The registry reader refuses files that the writer cannot have written."""

import json

import pytest

from orbitseries import serialize
from orbitseries.seriesdb import lookup


def _member_json(row: str, label: str, a: int) -> dict:
    return json.loads(json.dumps(serialize.member_to_json(lookup(row, label).member(a))))


def test_a_member_is_read_back_from_its_five_fields():
    for row, label, a in [("severi", "V", 2), ("severi", "V", 1), ("f4", "g", 1),
                          ("subexceptional", "gAP2.g", 1)]:
        d = _member_json(row, label, a)
        assert serialize.member_from_json(d) == lookup(row, label).member(a)


@pytest.mark.parametrize("row, label, a, keys", [
    # a 2sl pair written under partition instead of sl_pair
    ("severi", "V", 2, {"sl_pair": None, "partition": [2, 1]}),
    # sl3 with the label (21) and a partition of 10
    ("severi", "V", 1, {"partition": [5, 5]}),
    ("severi", "V", 1, {"partition": None}),
    ("severi", "V", 1, {"partition": None, "pair": {"alpha": [], "beta": [2, 1]}}),
    ("subexceptional", "gAP2.g", 1, {"pair": {"alpha": [2, 1], "beta": []}}),
    ("f4", "g", 1, {"partition": [2, 1]}),
], ids=["2sl-as-partition", "sl3-of-10", "missing", "partition-as-pair",
        "pair-swapped", "exceptional-with-datum"])
def test_datum_keys_that_differ_from_the_label_are_refused(row, label, a, keys):
    d = {**_member_json(row, label, a), **keys}
    with pytest.raises(ValueError, match="datum keys differ"):
        serialize.member_from_json(d)


def _eps_minus_json() -> dict:
    # the one f4 character with entries in all four lists
    formula = next(c for c in lookup("f4", "gQ^2").characters if c.name == "eps=-1")
    return json.loads(json.dumps(serialize.character_to_json(formula)))


@pytest.mark.parametrize("key", ["num", "den", "num_plus", "den_plus"])
@pytest.mark.parametrize("mult", [-1, -2, 0, 1.0, True, "1"])
def test_a_multiplicity_below_one_or_not_an_integer_is_refused(key, mult):
    d = _eps_minus_json()
    assert d[key] and all(m >= 1 for _, m in d[key])
    d[key][0][1] = mult
    with pytest.raises(ValueError, match="is not a positive integer"):
        serialize.character_from_json(d)



@pytest.mark.parametrize("spec", ["0sl2", "T0", "0T3"])
def test_a_stabilizer_with_a_count_or_torus_rank_of_zero_is_refused(spec):
    d = _member_json("f4", "g", 1)
    d["h"] = spec
    with pytest.raises(ValueError, match="cannot parse factor"):
        serialize.member_from_json(d)


@pytest.mark.parametrize("spec, message", [
    ("01sl2", "cannot parse factor '01sl2'"), ("T01", "cannot parse factor 'T01'"),
    ("sl02", "unknown algebra 'sl02'"), ("e08", "unknown algebra 'e08'")])
def test_a_stabilizer_with_a_leading_zero_is_refused(spec, message):
    d = _member_json("f4", "g", 1)
    d["h"] = spec
    with pytest.raises(ValueError) as got:
        serialize.member_from_json(d)
    assert str(got.value) == message
