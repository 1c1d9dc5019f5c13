import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitseries.partitions import (EMPTY, Family, InvalidPartitionError,
                                    NotAdjacentCellsError, Partition,
                                    PartitionPair, SizeMismatchError,
                                    all_partitions, centralizer_oracle,
                                    example1_formula, example2_formula,
                                    extend_by_zeros_dims, magic_dim_formula,
                                    magic_family, orbit_dim_classical,
                                    pair_to_partition, printed_extension_slope,
                                    partition, propagate, propagate_from_so,
                                    regular_so_partition, valid_partitions,
                                    _transpose_square_sum)

parts_strategy = st.lists(st.integers(1, 7), min_size=0, max_size=7)


def _columns(parts):
    """lambda'_j = #{i : lambda_i >= j} for j = 1 .. largest part."""
    return [sum(1 for x in parts if x >= j)
            for j in range(1, max(parts, default=0) + 1)]


class TestPartition:
    @given(parts_strategy)
    @settings(max_examples=80, deadline=None)
    def test_transpose_square_sum_from_parts(self, parts):
        # sum (2i-1) lambda_i over the parts equals sum lambda'_j^2, with
        # lambda'_j counted here column by column
        p = Partition(parts)
        assert _transpose_square_sum(p) == sum(c * c for c in _columns(parts))

    @given(parts_strategy)
    @settings(max_examples=80, deadline=None)
    def test_transpose_involution(self, parts):
        # the column counts form the transpose, whose columns give back p;
        # applied to the transpose the identity reads sum lambda_i^2
        p = Partition(parts)
        t = Partition(_columns(parts))
        assert Partition(_columns(t.parts)) == p
        assert _transpose_square_sum(t) == sum(x * x for x in parts)

    @given(parts_strategy)
    @settings(max_examples=80, deadline=None)
    def test_transpose_part_counts_multiplicities(self, parts):
        p = Partition(parts)
        lam_hat = _columns(p.parts)
        for i in range(1, len(lam_hat) + 1):
            assert lam_hat[i - 1] == sum(p.multiplicity(j)
                                         for j in range(i, max(p.parts) + 1))

    def test_sorted_and_positive(self):
        assert Partition((1, 3, 2)).parts == (3, 2, 1)
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("parts", [(2.5, 1), ("3", 1), (None,)])
    def test_non_integral_parts_rejected(self, parts):
        with pytest.raises(ValueError, match="integers"):
            Partition(parts)


class TestValidity:
    def test_so_rule(self):
        Family("so", 8).validate(partition(2, 2, 1, 1, 1, 1))
        with pytest.raises(InvalidPartitionError):
            Family("so", 8).validate(partition(4, 2, 1, 1))

    def test_sp_rule(self):
        Family("sp", 6).validate(partition(3, 3))
        with pytest.raises(InvalidPartitionError):
            Family("sp", 6).validate(partition(3, 2, 1))

    def test_size_rule(self):
        with pytest.raises(InvalidPartitionError):
            Family("sl", 5).validate(partition(3, 3))

    def test_very_even_flag(self):
        fam = Family("so", 8)
        assert fam.is_very_even(partition(4, 4))
        assert not fam.is_very_even(partition(3, 3, 1, 1))


class TestDimensions:
    @pytest.mark.parametrize("parts,fam,expected", [
        ((2, 2, 1, 1, 1, 1), Family("so", 8), 10),
        ((2, 2, 2), Family("sl", 6), 18),
        ((2, 1), Family("sl", 3), 4),
        ((3, 3), Family("sp", 6), 14),
        ((2, 2, 2, 2), Family("so", 8), 12),
        ((1, 1, 1, 1), Family("sl", 4), 0),
    ])
    def test_closed_forms(self, parts, fam, expected):
        assert orbit_dim_classical(partition(*parts), fam) == expected

    def test_double_sl_cell(self):
        fam = Family("2sl", 3)
        assert orbit_dim_classical((partition(2, 1), partition(2, 1)), fam) == 8

    def test_oracle_trivial_partition(self):
        for fam in (Family("sl", 5), Family("so", 7), Family("sp", 6)):
            ones = Partition((1,) * fam.n)
            assert centralizer_oracle(ones, fam) == 0

    def test_oracle_examples(self):
        assert centralizer_oracle(partition(2, 1), Family("sl", 3)) == 4
        assert centralizer_oracle(partition(3, 1, 1, 1, 1), Family("so", 7)) == \
            orbit_dim_classical(partition(3, 1, 1, 1, 1), Family("so", 7))

    @pytest.mark.parametrize("kind,n", [("sl", n) for n in range(1, 13)] +
                             [("so", n) for n in range(2, 13)] +
                             [("sp", n) for n in range(2, 13, 2)])
    def test_oracle_matches_closed_form(self, kind, n):
        fam = Family(kind, n)
        for p in valid_partitions(fam):
            assert centralizer_oracle(p, fam) == orbit_dim_classical(p, fam)

    def test_oracle_double_sl_cell(self):
        fam = Family("2sl", 5)
        pair = (partition(3, 2), partition(2, 1, 1, 1))
        assert centralizer_oracle(pair, fam) == orbit_dim_classical(pair, fam) == 24

    @pytest.mark.parametrize("kind", ["sl", "so", "2sl"])
    def test_oracle_refuses_matrix_size_13(self, kind):
        p = Partition((1,) * 13)
        with pytest.raises(InvalidPartitionError, match="<= 12"):
            centralizer_oracle((p, p) if kind == "2sl" else p, Family(kind, 13))


class TestPairs:
    def test_to_partition_examples(self):
        assert pair_to_partition(PartitionPair(partition(3), EMPTY), 6).parts == (3, 3)
        assert pair_to_partition(PartitionPair(EMPTY, partition(3)), 6).parts == (6,)
        assert pair_to_partition(PartitionPair(partition(1, 1), partition(1)),
                                 6).parts == (2, 1, 1, 1, 1)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            pair_to_partition(PartitionPair(partition(3), EMPTY), 8)

    def test_distinct_parts_enforced(self):
        with pytest.raises(ValueError):
            PartitionPair(EMPTY, partition(2, 2))


class TestMagicSquare:
    def test_family_map(self):
        assert magic_family(1, 1, 5) == Family("so", 5)
        assert magic_family(2, 1, 5) == magic_family(1, 2, 5) == Family("sl", 5)
        assert magic_family(4, 1, 5) == Family("sp", 10)
        assert magic_family(2, 2, 5) == Family("2sl", 5)
        assert magic_family(4, 2, 5) == Family("sl", 10)
        assert magic_family(4, 4, 5) == Family("so", 20)

    def test_propagation_steps(self):
        p = partition(3, 1, 1, 1, 1, 1, 1)   # so9-valid, n=9
        sp = propagate(propagate(p, (1, 1), (2, 1), 9), (2, 1), (4, 1), 9)
        assert sp.parts == (3, 3) + (1,) * 12
        pair = propagate(partition(2, 1), (2, 1), (2, 2), 3)
        assert pair == (partition(2, 1), partition(2, 1))
        merged = propagate(pair, (2, 2), (2, 4), 3)
        assert merged.parts == (2, 2, 1, 1)

    def test_identity_and_errors(self):
        p = partition(2, 1)
        assert propagate(p, (2, 1), (2, 1), 3) == p
        with pytest.raises(NotAdjacentCellsError):
            propagate(p, (1, 1), (4, 1), 3)
        with pytest.raises(NotAdjacentCellsError):
            magic_family(3, 1, 5)

    def test_identity_step_checks_the_cell(self):
        with pytest.raises(NotAdjacentCellsError):
            propagate(partition(2, 1), (3, 3), (3, 3), 3)
        with pytest.raises(NotAdjacentCellsError):
            propagate_from_so(partition(3), (3, 1), 3)

    @pytest.mark.parametrize("datum,from_cell,to_cell", [
        (partition(5), (1, 1), (2, 1)),            # not a partition of 3
        (partition(2, 1), (1, 1), (1, 2)),         # even part 2 once in so_3
        (partition(2, 1), (4, 1), (4, 1)),         # sp_6 needs size 6
        (partition(2, 1), (2, 2), (2, 4)),         # 2sl needs a pair
    ])
    def test_datum_validated_against_source_cell(self, datum, from_cell, to_cell):
        with pytest.raises(InvalidPartitionError):
            propagate(datum, from_cell, to_cell, 3)

    def test_formula_specializes_to_so_and_sl(self):
        for n in range(4, 9):
            for p in valid_partitions(Family("so", n)):
                assert magic_dim_formula(p, 1, 1) == \
                    orbit_dim_classical(p, Family("so", n))
                assert magic_dim_formula(p, 2, 1) == \
                    orbit_dim_classical(p, Family("sl", n))

    def test_formula_equals_propagated_dims(self):
        for n in range(4, 9):
            for p in valid_partitions(Family("so", n)):
                for a in (1, 2, 4):
                    for b in (1, 2, 4):
                        datum = propagate_from_so(p, (a, b), n)
                        fam = magic_family(a, b, n)
                        assert magic_dim_formula(p, a, b) == \
                            orbit_dim_classical(datum, fam)

    def test_example2(self):
        for n in (5, 8, 12):
            p = Partition((3,) + (1,) * (n - 3))
            for a, b in ((1, 1), (2, 4), (4, 4)):
                assert magic_dim_formula(p, a, b) == example2_formula(n, a, b)

    def test_example1_disagrees(self):
        # printed closed form for the regular orbit does not match the
        # bilinear route even at a = b = 1
        p = regular_so_partition(7)
        assert example1_formula(7, 1, 1) != magic_dim_formula(p, 1, 1)


class TestExtension:
    def test_sl_case_exact(self):
        dims = extend_by_zeros_dims(partition(2, 1), Family("sl", 3), [0, 1, 2, 3])
        assert dims == [4, 6, 8, 10]
        slope = printed_extension_slope(partition(2, 1), Family("sl", 3))
        assert dims[1] - dims[0] == slope == 2

    def test_so_case_linear_but_printed_slope_off(self):
        p = partition(2, 2, 1, 1, 1)
        dims = extend_by_zeros_dims(p, Family("so", 7), [0, 1, 2])
        assert dims == [8, 10, 12]
        assert printed_extension_slope(p, Family("so", 7)) != dims[1] - dims[0]

    def test_sp_case_linear(self):
        p = partition(2, 2, 1, 1)
        dims = extend_by_zeros_dims(p, Family("sp", 6), [0, 1, 2])
        assert dims[1] - dims[0] == dims[2] - dims[1]
        assert printed_extension_slope(p, Family("sp", 6)) != dims[1] - dims[0]

    def test_t_zero_is_identity(self):
        p = partition(3, 1)
        assert extend_by_zeros_dims(p, Family("sl", 4), [0]) == \
            [orbit_dim_classical(p, Family("sl", 4))]


def test_all_partitions_count():
    assert sum(1 for _ in all_partitions(8)) == 22
    assert [p.parts for p in all_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
