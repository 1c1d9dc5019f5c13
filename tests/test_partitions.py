import copy
import pickle
from fractions import Fraction

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
                                    regular_so_partition, valid_partitions)

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
        assert p._tsq == sum(c * c for c in _columns(parts))

    @given(parts_strategy)
    @settings(max_examples=80, deadline=None)
    def test_transpose_involution(self, parts):
        # the column counts form the transpose, whose columns give back p;
        # applied to the transpose the identity reads sum lambda_i^2
        p = Partition(parts)
        t = Partition(_columns(parts))
        assert Partition(_columns(t.parts)) == p
        assert t._tsq == sum(x * x for x in parts)

    @given(parts_strategy)
    @settings(max_examples=80, deadline=None)
    def test_transpose_part_counts_multiplicities(self, parts):
        p = Partition(parts)
        lam_hat = _columns(p.parts)
        for i in range(1, len(lam_hat) + 1):
            assert lam_hat[i - 1] == sum(p.multiplicity(j)
                                         for j in range(i, max(p.parts) + 1))

    @given(parts_strategy)
    @settings(max_examples=80, deadline=None)
    def test_invariants_equal_a_recomputation(self, parts):
        p = Partition(parts)
        assert _invariants(p) == _recomputed(parts)

    @given(parts_strategy)
    @settings(max_examples=80, deadline=None)
    def test_repeat_twice_is_the_doubled_partition(self, parts):
        twice = Partition(parts).repeat_twice()
        built = Partition(parts + parts)
        assert twice == built and twice.parts == built.parts
        assert _invariants(twice) == _invariants(built) == _recomputed(parts + parts)

    def test_sorted_and_positive(self):
        assert Partition((1, 3, 2)).parts == (3, 2, 1)
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("parts", [(2.5, 1), ("3", 1), (None,)])
    def test_non_integral_parts_rejected(self, parts):
        with pytest.raises(ValueError, match="integers"):
            Partition(parts)


def _invariants(p):
    return p._size, p._tsq, p._odd, p._odd_mult


def _recomputed(parts):
    """(size, Σλ'², odd parts, (some even part, some odd part) with odd
    multiplicity), counted from the parts without the Partition's fields."""
    mults = {d: parts.count(d) for d in parts}
    return (sum(parts), sum(c * c for c in _columns(parts)),
            sum(m for d, m in mults.items() if d % 2),
            tuple(any(d % 2 == parity and m % 2 for d, m in mults.items())
                  for parity in (0, 1)))


def _first_message(p, fam):
    """The message of the first rule p breaks in fam (None if it breaks none),
    counted from the parts one distinct part at a time, in set order, without
    the Partition's fields."""
    if sum(p.parts) != fam.n:
        return f"partition of {sum(p.parts)} is not a partition of {fam.n}"
    parity = int(fam.kind == "sp")
    for i in set(p.parts):
        if fam.kind in ("so", "sp") and i % 2 == parity and p.parts.count(i) % 2:
            return (f"{p} invalid for {fam.kind}_{fam.n}: "
                    f"{('even', 'odd')[parity]} part {i} with odd multiplicity")
    return None


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

    @pytest.mark.parametrize("kind", ["sl", "so", "sp"])
    def test_messages_on_every_partition(self, kind):
        # every partition of n <= 12 against the families of size n - 1 .. n + 1
        for n in range(13):
            for p in all_partitions(n):
                for size in (n - 1, n, n + 1):
                    if size < 0 or kind == "sp" and size % 2:
                        continue
                    fam = Family(kind, size)
                    want = _first_message(p, fam)
                    if want is None:
                        fam.validate(p)
                        continue
                    with pytest.raises(InvalidPartitionError) as got:
                        fam.validate(p)
                    assert str(got.value) == want

    @pytest.mark.parametrize("fam, datum", [
        (Family("so", 4), (partition(2, 2),)),
        (Family("sl", 3), (3,)),
        (Family("sp", 2), "x"),
        (Family("2sl", 3), (partition(3), "x")),
        (Family("2sl", 3), ((3,), partition(3))),
    ])
    def test_a_datum_that_is_no_partition_is_refused(self, fam, datum):
        with pytest.raises(InvalidPartitionError, match="is not a partition$"):
            fam.validate(datum)

    def test_2sl_messages(self):
        fam = Family("2sl", 3)
        for datum in (partition(2, 1), (partition(3),), [partition(3), partition(3)]):
            with pytest.raises(InvalidPartitionError,
                               match="^2sl expects an ordered pair of partitions$"):
                fam.validate(datum)
        with pytest.raises(InvalidPartitionError,
                           match="^partition of 4 is not a partition of 3$"):
            fam.validate((partition(3), partition(2, 2)))

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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_oracle_on_doubled_partitions(self, n):
        # a second route for the invariants repeat_twice derives: every
        # multiplicity of a doubled partition is even, so it is admissible
        # for sp_2n and so_2n
        for fam in (Family("sp", 2 * n), Family("so", 2 * n)):
            for p in all_partitions(n):
                twice = p.repeat_twice()
                assert centralizer_oracle(twice, fam) == orbit_dim_classical(twice, fam)

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

    @pytest.mark.parametrize("a_first", [True, False])
    def test_propagate_from_so_is_the_composed_steps(self, a_first):
        # a second route for the derived path table: single propagate steps,
        # whose kinds come from magic_family, along the a-first and the
        # b-first path give the same data, not only the same dimensions
        for n in range(1, 11):
            for p in valid_partitions(Family("so", n)):
                for a in (1, 2, 4):
                    for b in (1, 2, 4):
                        assert propagate_from_so(p, (a, b), n) == \
                            _walk(p, a, b, n, a_first), (p, a, b)

    def test_repeat_twice_is_kept(self):
        p = partition(3, 1, 1)
        assert p.repeat_twice() is p.repeat_twice()
        assert p.repeat_twice().repeat_twice() is p.repeat_twice().repeat_twice()

    def test_kept_double_is_not_a_field(self):
        p, fresh = partition(3, 1, 1), partition(3, 1, 1)
        before = repr(p), hash(p)
        p.repeat_twice()
        assert (repr(p), hash(p)) == before == (repr(fresh), hash(fresh))
        assert p == fresh and fresh == p
        for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert clone == p and repr(clone) == repr(p) and hash(clone) == hash(p)
            assert clone.repeat_twice() == p.repeat_twice()

    def test_list_cell(self):
        p = partition(3, 1, 1)
        assert propagate_from_so(p, [4, 4], 5) == propagate_from_so(p, (4, 4), 5)
        assert propagate_from_so(p, [4, 4], 5).parts == (3,) * 4 + (1,) * 8

    @pytest.mark.parametrize("cell", [(3, 1), (8, 8)])
    def test_propagate_from_so_refuses_cells_outside_the_square(self, cell):
        with pytest.raises(NotAdjacentCellsError, match="must lie in"):
            propagate_from_so(partition(3, 1, 1), cell, 5)
        # the datum is validated before the cell
        with pytest.raises(InvalidPartitionError):
            propagate_from_so(partition(2, 1), cell, 3)

    def test_example2(self):
        for n in (5, 8, 12):
            p = Partition((3,) + (1,) * (n - 3))
            for a, b in ((1, 1), (2, 4), (4, 4)):
                assert magic_dim_formula(p, a, b) == example2_formula(n, a, b)

    @pytest.mark.parametrize("a,b", [(3, 1), (8, 8)])
    def test_formula_refuses_cells_outside_the_square(self, a, b):
        # magic_family and propagate refuse the same cells
        with pytest.raises(NotAdjacentCellsError):
            magic_dim_formula(partition(3, 1, 1), a, b)
        # the cell is checked before the datum
        with pytest.raises(NotAdjacentCellsError):
            magic_dim_formula(partition(2, 1), a, b)
        with pytest.raises(NotAdjacentCellsError):
            magic_family(a, b, 5)

    @pytest.mark.parametrize("x", [1.0, True, Fraction(1)])
    def test_a_coordinate_that_is_no_int_is_refused(self, x):
        # x hashes as 1 does, so neither the cell table nor the cached int
        # cell may answer for it
        p = partition(3, 1, 1)
        assert magic_family(1, 2, 5) == Family("sl", 5)
        for call in (lambda: magic_dim_formula(p, x, 2), lambda: magic_dim_formula(p, 2, x),
                     lambda: propagate_from_so(p, (x, 2), 5),
                     lambda: propagate_from_so(p, [2, x], 5),
                     lambda: magic_family(x, 2, 5), lambda: propagate(p, (x, 1), (2, 1), 5)):
            with pytest.raises(NotAdjacentCellsError, match="must lie in"):
                call()

    def test_example1_disagrees(self):
        # printed closed form for the regular orbit does not match the
        # bilinear route even at a = b = 1
        p = regular_so_partition(7)
        assert example1_formula(7, 1, 1) != magic_dim_formula(p, 1, 1)


def _outcome(call, *args):
    """("value", what call(*args) returns), or the type and message of the
    ValueError it raises."""
    try:
        return "value", call(*args)
    except ValueError as e:
        return type(e), str(e)


def _refusal(kind, size, p):
    """None if Family(kind, size) accepts the partition p, else the type and
    message of the refusal: the constructor's, or _first_message's."""
    try:
        fam = Family(kind, size)
    except ValueError as e:
        return type(e), str(e)
    message = _first_message(p, fam)
    return message and (InvalidPartitionError, message)


def _carried(p, a, b):
    """The cell-(a, b) datum of an so_n partition, written from its parts:
    the pair (p, p) in 2sl_n, else each part once, twice or four times."""
    if (a, b) == (2, 2):
        return p, p
    return Partition(p.parts * {1: 1, 2: 1, 4: 2, 8: 2, 16: 4}[a * b])


def _partitions(datum):
    """The partitions of an orbit datum: one, or a 2sl pair."""
    return datum if isinstance(datum, tuple) else (datum,)


def _dim(datum, fam):
    """The closed-form orbit dimension (Collingwood–McGovern §6.1), with
    Σλ'² and the odd parts counted from the parts."""
    m = fam.n
    if fam.kind == "2sl":
        return sum(_dim(q, Family("sl", m)) for q in datum)
    tsq = sum(c * c for c in _columns(datum.parts))
    odd = sum(x % 2 for x in datum.parts)
    return {"sl": m * m - tsq, "so": (m * m - tsq - m + odd) // 2,
            "sp": (m * m + m - tsq - odd) // 2}[fam.kind]


CELLS = [(a, b) for a in (1, 2, 4) for b in (1, 2, 4)]


class TestFastPaths:
    """propagate_from_so, magic_dim_formula and orbit_dim_classical accept a
    datum on its kept flags. On every partition of n <= 10 and every size
    n - 1 .. n + 1, each returns the value written from the parts or raises
    what Family and validate raise, as _refusal counts it (validate's
    messages equal _first_message's: TestValidity)."""

    def test_propagate_from_so(self):
        for n in range(11):
            for p in all_partitions(n):
                for size in (n - 1, n, n + 1):
                    refused = _refusal("so", size, p)
                    for a, b in CELLS:
                        got = _outcome(propagate_from_so, p, (a, b), size)
                        if refused:
                            assert got == refused, (p, size, a, b)
                            continue
                        want = _carried(p, a, b)
                        assert got == ("value", want), (p, size, a, b)
                        assert list(map(_invariants, _partitions(got[1]))) == \
                            list(map(_invariants, _partitions(want)))

    def test_magic_dim_formula(self):
        for n in range(11):
            for p in all_partitions(n):
                refused = _refusal("so", n, p)
                for a, b in CELLS:
                    want = refused or ("value", _dim(_carried(p, a, b), magic_family(a, b, n)))
                    assert _outcome(magic_dim_formula, p, a, b) == want, (p, a, b)

    @pytest.mark.parametrize("kind", ["sl", "so", "sp"])
    def test_orbit_dim_classical(self, kind):
        for n in range(11):
            for p in all_partitions(n):
                for size in (n - 1, n, n + 1):
                    if size < 0 or kind == "sp" and size % 2:
                        continue
                    fam = Family(kind, size)
                    want = _refusal(kind, size, p) or ("value", _dim(p, fam))
                    assert _outcome(orbit_dim_classical, p, fam) == want, (p, fam)

    def test_orbit_dim_classical_2sl(self):
        for n in range(7):
            for p in all_partitions(n):
                for size in (n - 1, n, n + 1):
                    if size < 0:
                        continue
                    fam = Family("2sl", size)
                    assert _outcome(orbit_dim_classical, p, fam) == \
                        (InvalidPartitionError, "2sl expects an ordered pair of partitions")
                    for q in all_partitions(n):
                        want = (_refusal("sl", size, p) or _refusal("sl", size, q)
                                or ("value", _dim((p, q), fam)))
                        assert _outcome(orbit_dim_classical, (p, q), fam) == want, (p, q, fam)

    def test_a_datum_that_is_no_partition_is_refused(self):
        for datum in ((partition(2, 2),), (2, 2), "x"):
            for call in (lambda: propagate_from_so(datum, (1, 1), 4),
                         lambda: magic_dim_formula(datum, 1, 1),
                         lambda: orbit_dim_classical(datum, Family("so", 4))):
                with pytest.raises(InvalidPartitionError, match="is not a partition$"):
                    call()


def _walk(p, a, b, n, a_first):
    """p carried from (1, 1) to (a, b) by single propagate steps, doubling a
    first or b first."""
    here, datum = (1, 1), p
    while here != (a, b):
        ca, cb = here
        nxt = (2 * ca, cb) if ca < a and (a_first or cb == b) else (ca, 2 * cb)
        datum, here = propagate(datum, here, nxt, n), nxt
    return datum


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

    @pytest.mark.parametrize("p,family,message", [
        (partition(2, 1), Family("2sl", 3), "^extension defined for sl, so, sp only$"),
        (partition(5, 1), Family("sl", 3), "^partition of 6 is not a partition of 3$"),
    ], ids=["2sl", "wrong-size"])
    def test_printed_slope_refuses_what_the_extension_refuses(self, p, family, message):
        with pytest.raises(InvalidPartitionError, match=message):
            extend_by_zeros_dims(p, family, [0, 1])
        with pytest.raises(InvalidPartitionError, match=message):
            printed_extension_slope(p, family)


def _reference_partitions(n, largest=None):
    """The parts of every partition of n with no part above largest, first
    part first and largest first: reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _reference_partitions(n - first, first):
            yield (first,) + rest


def test_all_partitions_count():
    assert sum(1 for _ in all_partitions(8)) == 22
    assert [p.parts for p in all_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    for n in range(16):
        assert [p.parts for p in all_partitions(n)] == list(_reference_partitions(n))


@pytest.mark.parametrize("kind", ["sl", "so", "sp", "2sl"])
def test_valid_partitions_are_the_filtered_partitions(kind):
    """The generated partitions are those the sorting constructor builds from
    every partition of n and validate accepts, in the same order."""
    for n in range(21):
        if kind == "sp" and n % 2:
            continue
        fam = Family(kind, n)
        want = []
        for p in map(Partition, _reference_partitions(n)):
            try:
                fam.validate(p)
            except InvalidPartitionError:
                continue
            want.append(p)
        got = list(valid_partitions(fam))
        assert [p.parts for p in got] == [p.parts for p in want]
        assert [_invariants(p) for p in got] == [_invariants(p) for p in want]
