import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitseries import serialize
from orbitseries.exactpoly import Cyclo, LinExp, ProductExpr, QLaurent, QPhi, pexpr
from orbitseries.partitions import Family, Partition, PartitionPair, orbit_dim_classical
from orbitseries.rootsystems import UnsupportedRankError, series_weight_to_diagram
from orbitseries.seriesdb import (MASTER_POINTCOUNT, CharacterFormula, L,
                                  NamedDegree, UnknownSeriesError, _series,
                                  all_series, group_order, hasse_edges, lookup,
                                  reductive, rows, series_by_row)


class TestExponentParser:
    @pytest.mark.parametrize("text,c0,c1", [
        ("3a/2+2", 2, F(3, 2)),
        ("a", 0, 1),
        ("a/4", 0, F(1, 4)),
        ("5a/4-2", -2, F(5, 4)),
        ("11a+8", 8, 11),
        ("2", 2, 0),
        ("21a/2+6", 6, F(21, 2)),
        ("-2a-2", -2, -2),
    ])
    def test_parse(self, text, c0, c1):
        assert L(text) == LinExp(c0, c1)


class TestReductiveSpecs:
    def test_dims(self):
        assert reductive("sl2+g2").dim == 17
        assert reductive("3sl2").dim == 9
        assert reductive("co7").dim == 22
        assert reductive("gl4").dim == 16
        assert reductive("T2").dim == 2
        assert reductive("0").dim == 0
        assert reductive("so5+2sl2").dim == 16

    @pytest.mark.parametrize("text", ["0sl2", "T0", "0T3", "sl2+0g2", "T2+T0"])
    def test_a_count_or_torus_rank_of_zero_is_refused(self, text):
        with pytest.raises(ValueError, match="cannot parse factor"):
            reductive(text)

    @pytest.mark.parametrize("text", ["01sl2", "T01", "00T3", "sl2+T02", "010sl2"])
    def test_a_count_or_torus_rank_with_a_leading_zero_is_refused(self, text):
        with pytest.raises(ValueError, match="cannot parse factor"):
            reductive(text)

    @pytest.mark.parametrize("text, name", [
        ("sl02", "sl02"), ("e08", "e08"), ("2so08", "so08"), ("co07", "so07"),
        ("gl04", "sl04"), ("g2+sp06", "sp06")])
    def test_a_rank_with_a_leading_zero_is_refused(self, text, name):
        with pytest.raises(UnsupportedRankError) as got:
            reductive(text)
        assert str(got.value) == f"unknown algebra {name!r}"

    def test_every_registry_name_still_parses(self):
        specs = {spec for rec in all_series() for m in rec.members for spec in (m.ambient, m.h)}
        assert len(specs) > 30
        for spec in specs:
            assert reductive(spec.name) == spec and str(spec) == spec.name
        for text in ("10sl2", "T10", "sl10", "so10+T10"):
            assert reductive(text).name == text

    def test_group_orders(self):
        sp6 = group_order(reductive("sp6"))
        num, den = sp6.expand(0)
        expect = QLaurent.q_power(9)
        for d in (2, 4, 6):
            expect = expect * (QLaurent.q_power(d) - 1)
        assert num == expect and den == QLaurent.one()

        torus = group_order(reductive("T2"))
        num, den = torus.expand(0)
        assert num == (QLaurent.q_power(1) - 1) ** 2

        e7 = group_order(reductive("e7"))
        assert e7.degree_in_q(0) == 63 + sum((2, 6, 8, 10, 12, 14, 18))

    def test_gl_order_matches_general_linear_group(self):
        # |GL_n(q)| = q^(n(n-1)/2) prod_{i<=n} (q^i - 1)
        gl3 = group_order(reductive("gl3"))
        val = gl3.phi_form(0).value_at(2)
        assert val == 2 ** 3 * (2 - 1) * (4 - 1) * (8 - 1)


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _gl(m: int) -> str:
    return f"gl{m}" if m >= 2 else "T1"


@pytest.mark.parametrize("n", range(1, 9))
def test_nilpotent_count_of_gl_n(n):
    """Fine-Herstein: gl_n(F_q) holds q^(n^2 - n) nilpotent matrices.

    Summed over partitions lambda of n, |GL_n(q)| / |Z_lambda(q)| with
    |Z_lambda(q)| = q^(sum lambda'_i^2 - sum m_i^2) prod |GL_{m_i}(q)|.
    """
    gl_n = group_order(reductive(_gl(n)))
    values = {2: F(0), 3: F(0)}
    total = QLaurent.zero()
    for lam in _partitions(n):
        mults = [lam.count(k) for k in sorted(set(lam))]
        conj = [sum(1 for x in lam if x > i) for i in range(lam[0])]
        unipotent = sum(c * c for c in conj) - sum(m * m for m in mults)
        centralizer = group_order(reductive("+".join(_gl(m) for m in mults)))
        orbit = gl_n / (centralizer * ProductExpr(F(1), LinExp(unipotent), ()))
        for q in values:
            values[q] += orbit.phi_form(0).value_at(q)
        num, den = orbit.reduced(0)
        assert den == QLaurent.one(), lam
        total = total + num
    assert values == {q: F(q) ** (n * n - n) for q in values}
    assert total == QLaurent.q_power(n * n - n)


class TestRegistryShape:
    def test_counts(self):
        assert len(all_series()) == 33
        expected = {"f4": 15, "e6": 5, "subexceptional": 10, "severi": 2,
                    "subseveri": 1}
        for row, count in expected.items():
            assert len(series_by_row(row)) == count

    def test_lookup_examples(self):
        g = lookup("f4", "g")
        assert g.dim == LinExp(10, 6)
        assert [m.h.name for m in g.members] == ["sp6", "sl6", "so12", "e7"]
        assert g.so8_h.name == "3sl2"

        gq2 = lookup("f4", "gQ^2")
        assert gq2.rad == LinExp(0, 8)
        assert gq2.fundamental_group == "mixed"

        w = lookup("subseveri", "gQ=W")
        assert w.dim == LinExp(-2, 4)

    def test_unknown(self):
        with pytest.raises(UnknownSeriesError):
            lookup("f4", "nonsense")
        with pytest.raises(UnknownSeriesError):
            series_by_row("f5")

    def test_five_label_rows_have_so8_data(self):
        with_so8 = {r.label for r in series_by_row("f4")
                    if r.so8_partition is not None}
        assert with_so8 == {"g", "gQ", "g2", "g^2", "g^2.gQ", "g2^2", "g^2.g2^2"}

    def test_master_pointcount_degree(self):
        for a in (1, 2, 4, 8):
            assert MASTER_POINTCOUNT.degree_in_q(a) == 24 * a + 24

    def test_minimal_series_count_reduction(self):
        z = MASTER_POINTCOUNT / lookup("f4", "g").pointcount_Y
        num, den = z.reduced(2)
        assert den == QLaurent.one() and num.is_q_polynomial()
        # frozen from the independent |G|/|K| integer computation
        assert num.eval_at(2) == 5081895
        assert num.eval_at(3) == 32988606560
        num1, den1 = z.reduced(1)
        assert not (num1.is_q_polynomial() and den1 == QLaurent.one())
        assert num1.degree_in_q() - den1.degree_in_q() == 16


class TestRecordOwnsItsDerivedData:
    def test_point_count(self):
        for rec in all_series():
            if rec.pointcount_Y is not None:
                assert rec.point_count == MASTER_POINTCOUNT / rec.pointcount_Y
            else:
                assert rec.point_count == rec.pointcount
            assert (rec.point_count is not None) == (rec.row in ("f4", "e6")), rec.label

    def test_diagram(self):
        for rec in all_series():
            for alg in ("f4", "e6", "e7", "e8"):
                if rec.exponents is None:
                    with pytest.raises(UnknownSeriesError):
                        rec.diagram(alg)
                else:
                    assert rec.diagram(alg) == series_weight_to_diagram(*rec.exponents, alg)

    def test_member_datum_matches_its_family(self):
        for rec in all_series():
            for m in rec.members:
                kind = None if m.family is None else m.family.kind
                if kind is None:
                    assert m.datum is None
                elif kind == "2sl":
                    assert len(m.datum) == 2
                    assert all(isinstance(p, Partition) for p in m.datum)
                else:
                    assert isinstance(m.datum, (Partition, PartitionPair))
                keys = serialize.member_to_json(m)
                assert sum(keys[k] is not None for k in ("pair", "partition", "sl_pair")) \
                    == (m.datum is not None)
                assert serialize.member_from_json(keys) == m


class TestInternalConsistency:
    def test_radical_identity_all_rows(self):
        for rec in all_series():
            for m in rec.members:
                lhs = m.ambient.dim - rec.dim(m.a) - m.h.dim
                assert lhs == rec.rad(m.a), (rec.row, rec.label, m.a)

    def test_so8_column(self):
        for rec in series_by_row("f4"):
            if rec.so8_partition is None:
                continue
            d0 = orbit_dim_classical(rec.so8_partition, Family("so", 8))
            assert d0 == rec.dim.c0
            assert 28 - d0 - rec.so8_h.dim == rec.rad.c0

    def test_classical_members_match_formulas(self):
        for rec in all_series():
            for m in rec.members:
                if m.family is None:
                    continue
                got = orbit_dim_classical(m.orbit_datum(), m.family)
                assert got == rec.dim(m.a), (rec.row, rec.label, m.a)

    def test_hasse_edges_reference_known_series(self):
        labels = {r.label for r in series_by_row("f4")}
        for up, dn in hasse_edges():
            assert up in labels and dn in labels

    def test_hasse_dims_strictly_decrease(self):
        for up, dn in hasse_edges():
            u, d = lookup("f4", up), lookup("f4", dn)
            for a in (1, 2, 4, 8):
                assert u.dim(a) > d.dim(a)


class TestBuilderFields:
    """A one-item tuple field written without its trailing comma is the item
    itself; the builder refuses it, naming the field."""

    _FORMULA = CharacterFormula("principal", L("3a+5"), pexpr(1, 0, num=["2a+4"]))

    def _build(self, **fields):
        return _series("severi", "g", "4a", "3a", ["(21)", None, None, None],
                       ["T1", None, None, None], **fields)

    def test_well_formed_fields_build(self):
        rec = self._build(characters=(self._FORMULA,), notes=("a note",),
                          grading_claims=((1, L("a")),),
                          named_degrees=(NamedDegree(2, "principal", "phi_{1,0}", 1, 0),))
        assert rec.characters == (self._FORMULA,) and rec.notes == ("a note",)

    @pytest.mark.parametrize("name,value,got", [
        ("characters", _FORMULA, "CharacterFormula"),
        ("named_degrees", NamedDegree(2, "principal", "phi_{1,0}", 1, 0), "NamedDegree"),
        ("grading_claims", (1, L("a")), "int"),
        ("notes", "a note", "str"),
        ("characters", [_FORMULA], "list"),
    ])
    def test_item_in_place_of_a_tuple_is_refused(self, name, value, got):
        with pytest.raises(TypeError, match=f"series g: {name} must be a tuple "
                                            f"of .*, got a {got}$"):
            self._build(**{name: value})


quarters = st.integers(-12, 12).map(lambda n: F(n, 4))
lattice = st.builds(LinExp, quarters, quarters)
factors = st.one_of(st.builds(Cyclo, lattice, st.sampled_from((1, -1))),
                    st.builds(QPhi, st.integers(1, 120)))
products = st.builds(
    ProductExpr, st.fractions(min_value=-20, max_value=20, max_denominator=12), lattice,
    st.lists(st.tuples(factors, st.sampled_from((-3, -2, -1, 1, 2, 3))), max_size=6))


class TestSerialization:
    def test_round_trip_exact(self):
        data = serialize.registry_to_json()
        text = json.dumps(data, sort_keys=True)
        back = serialize.registry_from_json(json.loads(text))
        assert back == all_series()

    def test_character_outside_the_list_schema_is_refused(self):
        literal_numerator = ProductExpr(1, LinExp(0), ((QPhi(1), 1),))
        for body in (pexpr(1, "a", num=["a"]), literal_numerator):
            with pytest.raises(ValueError):
                serialize.character_to_json(CharacterFormula("x", L("3a+5"), body))

    def test_reader_refuses_a_sign_other_than_plus_or_minus_1(self):
        data = serialize.product_to_json(pexpr(1, 0, num=[1]))
        data["factors"][0]["sign"] = 2
        with pytest.raises(ValueError, match=r"a Cyclo sign is \+1 or -1"):
            serialize.product_from_json(data)

    def test_reader_refuses_an_unknown_factor_kind(self):
        # a kind other than "cyclo" would be read as a literal factor's value
        for factor in (QPhi(2), Cyclo(LinExp(1))):
            for kind in ("bogus", "Cyclo", "QPhi", None):
                data = serialize.product_to_json(ProductExpr(1, LinExp(0), ((factor, 1),)))
                data["factors"][0]["kind"] = kind
                with pytest.raises(ValueError, match="unknown factor kind"):
                    serialize.product_from_json(data)

    @given(products)
    @example(ProductExpr(F(-7, 3), LinExp(F(-5, 4), F(3, 4)),
                         ((Cyclo(LinExp(F(1, 4), F(-1, 2)), -1), -3), (QPhi(105), 2))))
    @settings(max_examples=150, deadline=None)
    def test_products_round_trip(self, e):
        text = json.dumps(serialize.product_to_json(e))
        assert serialize.product_from_json(json.loads(text)) == e

    def test_json_is_deterministic(self):
        a = json.dumps(serialize.registry_to_json(), sort_keys=True)
        b = json.dumps(serialize.registry_to_json(), sort_keys=True)
        assert a == b
