from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitseries.rootsystems import (AdjointNotFundamentalError, AlgebraType,
                                     UnsupportedRankError, WeightedDiagram,
                                     _i, algebra, desing_dims,
                                     grading_dims, minimal_orbit_diagram,
                                     orbit_dim_from_diagram, root_system,
                                     series_weight_to_diagram, sigma1_diagram,
                                     sigma3_diagram, zero_diagram)

ALL_TYPES = (["a%d" % n for n in range(1, 9)] + ["b%d" % n for n in range(2, 9)] +
             ["c%d" % n for n in range(2, 9)] + ["d%d" % n for n in range(4, 9)] +
             ["g2", "f4", "e6", "e7", "e8"])


class TestConstruction:
    @pytest.mark.parametrize("name,n_pos", [
        ("f4", 24), ("e6", 36), ("e7", 63), ("e8", 120),
        ("c3", 9), ("a5", 15), ("d6", 30),
    ])
    def test_positive_root_counts(self, name, n_pos):
        assert root_system(name).N == n_pos

    def test_dimensions(self):
        assert root_system("e8").dimension == 248
        assert root_system("f4").dimension == 52
        assert algebra("so13").dimension == 78

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_cartan_matrix_entries(self, name):
        rs = root_system(name)
        for i, row in enumerate(rs.cartan_matrix):
            for j, entry in enumerate(row):
                if i == j:
                    assert entry == 2
                else:
                    assert entry in (0, -1, -2, -3)

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_rho_pairs_to_one(self, name):
        rs = root_system(name)
        for alpha in rs.simple_roots:
            assert rs.pair_coroot(rs.rho, alpha) == 1

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_roots_closed_under_simple_reflections(self, name):
        rs = root_system(name)
        roots = set(rs.positive_roots) | {tuple(-x for x in r)
                                          for r in rs.positive_roots}
        for beta in rs.positive_roots:
            for alpha in rs.simple_roots:
                coef = rs.pair_coroot(beta, alpha)
                refl = tuple(b - coef * a for b, a in zip(beta, alpha))
                assert refl in roots

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_degree_table_consistent_with_n(self, name):
        rs = root_system(name)
        assert sum(d - 1 for d in rs.invariant_degrees) == rs.N

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_kostant_height_partition(self, name):
        # Kostant: #{positive roots of height k} = #{exponents d_i - 1 >= k}
        rs = root_system(name)
        degrees = algebra(name).invariant_degrees
        for k in range(1, max(degrees)):
            count = sum(1 for r in rs.positive_roots if sum(r) == k)
            assert count == sum(1 for d in degrees if d - 1 >= k), k

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_highest_root_matches_plates(self, name):
        plates = {"g2": (3, 2), "f4": (2, 3, 4, 2), "e6": (1, 2, 2, 3, 2, 1),
                  "e7": (2, 2, 3, 4, 3, 2, 1), "e8": (2, 3, 4, 6, 5, 4, 3, 2)}
        alg = algebra(name)
        n = alg.rank
        closed = {"A": (1,) * n, "B": (1,) + (2,) * (n - 1),
                  "C": (2,) * (n - 1) + (1,), "D": (1,) + (2,) * (n - 3) + (1, 1)}
        want = plates[name] if name in plates else closed[alg.family]
        assert root_system(name).highest_root == want

    def test_unsupported(self):
        with pytest.raises(UnsupportedRankError):
            AlgebraType("E", 9)
        with pytest.raises(UnsupportedRankError):
            algebra("a13")

    def test_aliases(self):
        assert algebra("spin7") == algebra("so7") == AlgebraType("B", 3)
        assert algebra("sl6") == AlgebraType("A", 5)
        assert algebra("sp6") == AlgebraType("C", 3)


class TestGradings:
    def test_zero_diagram(self):
        wd = zero_diagram(algebra("f4"))
        assert grading_dims(wd) == {0: 52}
        assert orbit_dim_from_diagram(wd) == 0

    def test_minimal_e8(self):
        rs = root_system("e8")
        wd = minimal_orbit_diagram(rs)
        g = grading_dims(wd)
        assert g[1] == 56 and g[2] == 1
        # dim O = g(1) + 2 g(2), the five-step grading of the minimal orbit
        assert orbit_dim_from_diagram(wd) == g[1] + 2 * g[2] == 58

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_grading_symmetric_and_sums(self, name):
        rs = root_system(name)
        wd = minimal_orbit_diagram(rs)
        g = grading_dims(wd)
        assert sum(g.values()) == rs.dimension
        for i, d in g.items():
            assert g[-i] == d

    @given(st.sampled_from(["f4", "e6", "b4", "c3", "d5", "g2"]),
           st.lists(st.integers(0, 3), min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_grading_properties_for_arbitrary_labels(self, name, raw):
        rs = root_system(name)
        wd = WeightedDiagram(rs.algebra, tuple(raw[: rs.rank]))
        g = grading_dims(wd)
        assert sum(g.values()) == rs.dimension
        assert all(g[-i] == d for i, d in g.items())
        # the formula is defined for any labels; base >= fiber always
        base, fiber = desing_dims(wd)
        assert base >= fiber >= 0

    def test_returned_dict_is_the_callers_own(self):
        wd = series_weight_to_diagram(0, 0, 0, 1, "e7")
        first = grading_dims(wd)
        want = dict(first)
        first[1] = -1
        first.clear()
        assert grading_dims(wd) == want and grading_dims(wd) is not grading_dims(wd)

    def test_gq_series_on_e7(self):
        wd = series_weight_to_diagram(0, 0, 0, 1, "e7")
        g = grading_dims(wd)
        assert g[1] == 32 and g[2] == 10   # 8a and a+6 at a=4

    def test_desing(self):
        assert desing_dims(zero_diagram(algebra("f4"))) == (0, 0)
        wd = series_weight_to_diagram(2, 0, 0, 0, "e8")
        assert wd.is_even()
        base, fiber = desing_dims(wd)
        assert (base, fiber) == (57, 57)
        assert base + fiber == orbit_dim_from_diagram(wd) == 114
        wd = series_weight_to_diagram(0, 0, 0, 1, "e7")
        base, fiber = desing_dims(wd)
        assert base + fiber == orbit_dim_from_diagram(wd) == 52


class TestDiagrams:
    def test_example_quadruple(self):
        expect = {"f4": "1,0,1,2", "e6": "2,1,0,1,2/1",
                  "e7": "1,0,1,0,2,0/0", "e8": "2,0,0,0,1,0,1/0"}
        for name, s in expect.items():
            wd = series_weight_to_diagram(1, 0, 1, 2, name)
            assert wd.as_string() == s

    def test_zero_weights(self):
        for name in ("f4", "e6", "e7", "e8"):
            assert series_weight_to_diagram(0, 0, 0, 0, name) == \
                zero_diagram(algebra(name))

    def test_example_orbit_dim(self):
        wd = WeightedDiagram(algebra("f4"), (1, 0, 1, 2))
        assert orbit_dim_from_diagram(wd) == 42

    def test_rejects_classical(self):
        with pytest.raises(UnsupportedRankError):
            series_weight_to_diagram(1, 0, 0, 0, "c3")

    def test_labels_validation(self):
        with pytest.raises(ValueError):
            WeightedDiagram(algebra("f4"), (1, 0, 1))
        with pytest.raises(ValueError):
            WeightedDiagram(algebra("f4"), (1, 0, 1, -1))


class TestUniversalOrbits:
    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_minimal_orbit_dimension(self, name):
        rs = root_system(name)
        wd = minimal_orbit_diagram(rs)
        assert orbit_dim_from_diagram(wd) == 2 * rs.dual_coxeter() - 2

    @pytest.mark.parametrize("name,value", [("e8", 30), ("f4", 9), ("a1", 2),
                                            ("g2", 4), ("e6", 12), ("e7", 18)])
    def test_dual_coxeter(self, name, value):
        assert root_system(name).dual_coxeter() == value

    @pytest.mark.parametrize("name", [t for t in ALL_TYPES if t[0] in "abcd"])
    def test_dual_coxeter_closed_forms(self, name):
        alg = algebra(name)
        n = alg.rank
        want = {"A": n + 1, "B": 2 * n - 1, "C": n + 1, "D": 2 * n - 2}[alg.family]
        assert root_system(name).dual_coxeter() == want

    def test_sigma1(self):
        assert orbit_dim_from_diagram(sigma1_diagram(root_system("e8"))) == 112
        assert orbit_dim_from_diagram(sigma1_diagram(root_system("f4"))) == 28
        labels = sigma1_diagram(root_system("e8")).labels
        assert labels == (0, 0, 0, 0, 0, 0, 1, 0)

    def test_sigma1_requires_fundamental_adjoint(self):
        for name in ("a3", "c3", "a1"):
            with pytest.raises(AdjointNotFundamentalError):
                sigma1_diagram(root_system(name))

    def test_sigma3_matches_doubled_adjoint_marks(self):
        rs = root_system("a3")
        assert sigma3_diagram(rs).labels == (2, 0, 2)
        rs = root_system("f4")
        assert sigma3_diagram(rs).labels == (2, 0, 0, 0)


def test_non_integer_pairing_raises():
    # an explicit raise, where an assert under -O would let int() truncate 7/2 to 3
    with pytest.raises(ArithmeticError, match="7/2 is not an integer"):
        _i(Fraction(7, 2))
    assert _i(Fraction(-6, 2)) == -3
