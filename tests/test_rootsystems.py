from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitseries import rootsystems
from orbitseries.rootsystems import (AdjointNotFundamentalError, AlgebraType,
                                     UnsupportedRankError, WeightedDiagram,
                                     algebra, build_root_system, desing_dims,
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
    # an explicit raise, where an assert under -O would let // truncate 7/2 to 3;
    # in A1, <u alpha, (k alpha)^vee> = 2u/k
    rs = root_system("a1")
    with pytest.raises(ArithmeticError, match="7/2 is not an integer"):
        rs._pair((7,), (4,))
    assert rs._pair((-6,), (4,)) == -3
    assert rs.pair_coroot((7,), (4,)) == Fraction(7, 2)


# -- a second route: roots as the Weyl orbit of the simple roots ---------------

SUPPORTED_TYPES = ([AlgebraType("A", n) for n in range(1, 13)] +
                   [AlgebraType(f, n) for f in "BC" for n in range(2, 13)] +
                   [AlgebraType("D", n) for n in range(3, 13)] +
                   [AlgebraType("G", 2), AlgebraType("F", 4)] +
                   [AlgebraType("E", n) for n in (6, 7, 8)])


@lru_cache(maxsize=None)
def _positive_roots_by_reflections(alg):
    """Close the simple roots under s_i(beta) = beta - <beta, alpha_i^vee> alpha_i,
    with <beta, alpha_i^vee> = sum_k beta_k A_ki; keep the positive roots,
    by height then coordinates.  Every root is W-conjugate to a simple one."""
    cartan = build_root_system(alg).cartan_matrix
    n = len(cartan)
    todo = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(todo)
    while todo:
        beta = todo.pop()
        for i in range(n):
            c = sum(b * cartan[k][i] for k, b in enumerate(beta))
            image = beta[:i] + (beta[i] - c,) + beta[i + 1:]
            if image not in roots:
                roots.add(image)
                todo.append(image)
    return sorted((r for r in roots if min(r) >= 0), key=lambda r: (sum(r), r))


def _grading_by_roots(wd):
    """dim g(i) as a sum over the roots, one <beta, labels> at a time."""
    dims = Counter({0: wd.algebra.rank})
    for beta in _positive_roots_by_reflections(wd.algebra):
        v = sum(b * l for b, l in zip(beta, wd.labels))
        dims[v] += 1
        dims[-v] += 1
    return dict(dims)


def _assert_grading_by_roots(wd):
    g = grading_dims(wd)
    assert g == _grading_by_roots(wd), wd
    assert list(g) == sorted(g)


class TestSecondRoute:
    @pytest.mark.parametrize("alg", SUPPORTED_TYPES, ids=str)
    def test_positive_roots_are_the_weyl_orbit(self, alg):
        rs = build_root_system(alg)
        assert rs.positive_roots == tuple(_positive_roots_by_reflections(alg))
        assert rs.N == alg.num_positive_roots

    @pytest.mark.parametrize("alg", SUPPORTED_TYPES, ids=str)
    def test_integer_pairings_match_the_fraction_route(self, alg):
        rs = build_root_system(alg)
        theta = rs.highest_root
        assert rs.adjoint_marks() == tuple(rs.pair_coroot(theta, a) for a in rs.simple_roots)
        assert minimal_orbit_diagram(rs).labels == tuple(
            rs.pair_coroot(a, theta) for a in rs.simple_roots)
        assert rs.dual_coxeter() == 1 + rs.pair_coroot(rs.rho, theta)

    def test_gradings_of_every_diagram_run_all_uses(self, monkeypatch):
        from orbitseries.verify import run_all
        seen = set()

        def recording(wd):
            seen.add(wd)
            return grading_dims(wd)
        monkeypatch.setattr(rootsystems, "grading_dims", recording)
        run_all()
        assert len(seen) >= 100
        for wd in seen:
            _assert_grading_by_roots(wd)

    @given(st.sampled_from(SUPPORTED_TYPES),
           st.lists(st.integers(0, 4), min_size=12, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_gradings_for_drawn_labels(self, alg, raw):
        _assert_grading_by_roots(WeightedDiagram(alg, tuple(raw[: alg.rank])))
