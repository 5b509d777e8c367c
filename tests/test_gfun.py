from fractions import Fraction as F

import pytest

from heredit.crg import (
    CRG,
    crg_from_compact,
    embeds,
    enumerate_crgs,
    gray_crg,
    sub_crgs,
    swap_colors,
)
from heredit.errors import ValidationError
from heredit.gfun import (
    build_matrix,
    closed_form_gray,
    core_regime,
    core_structured,
    full_support_value,
    g_value,
    is_p_core,
    weight_stats,
)
from heredit.graphs import build_family
from oracle_utils import g_value_fraction, is_p_core_brute

BB_WHITE_EDGE = CRG(("B", "B"), ("W",))


class TestBuildMatrix:
    def test_k11(self):
        m = build_matrix(gray_crg(1, 1), F(1, 3))
        assert m.entries == ((F(1, 3), F(0)), (F(0), F(2, 3)))

    def test_k20_any_p(self):
        for p in (F(0), F(1, 4), F(1)):
            m = build_matrix(gray_crg(2, 0), p)
            assert m.entries == ((p, F(0)), (F(0), p))

    def test_black_pair_white_edge(self):
        m = build_matrix(BB_WHITE_EDGE, F(1, 4))
        assert m.entries == ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))

    def test_rejects_bad_p(self):
        with pytest.raises(ValidationError):
            build_matrix(gray_crg(1, 1), F(5, 3))


class TestGValue:
    def test_k11_interior_optimum(self):
        res = g_value(gray_crg(1, 1), F(1, 3))
        assert res.value == F(2, 9)
        assert res.weights == (F(2, 3), F(1, 3))
        assert res.support == (0, 1)

    def test_white_edge_pair_low_p(self):
        res = g_value(BB_WHITE_EDGE, F(1, 4))
        assert res.value == F(1, 2)
        assert res.weights == (F(1, 2), F(1, 2))

    def test_white_edge_pair_high_p_corner(self):
        res = g_value(BB_WHITE_EDGE, F(2, 3))
        assert res.value == F(1, 3)
        assert res.support == (0,)  # deterministic tie-break to vertex 0
        assert res.weights == (F(1), F(0))

    def test_weights_certify_value(self):
        for k in enumerate_crgs(3):
            for p in (F(0), F(1, 3), F(1, 2), F(7, 8), F(1)):
                res = g_value(k, p)
                entries = build_matrix(k, p).entries
                direct = sum(
                    entries[i][j] * res.weights[i] * res.weights[j]
                    for i in range(k.m)
                    for j in range(k.m)
                )
                assert direct == res.value
                assert sum(res.weights) == 1
                assert all(w >= 0 for w in res.weights)
                assert res.support == tuple(i for i, w in enumerate(res.weights) if w > 0)

    def test_value_bounded_by_singletons(self):
        for k in enumerate_crgs(3):
            for p in (F(1, 8), F(1, 2), F(3, 4)):
                entries = build_matrix(k, p).entries
                res = g_value(k, p)
                assert F(0) <= res.value <= min(entries[i][i] for i in range(k.m))

    def test_oracle_agreement_gray(self):
        # closed form and quadratic program agree exactly on K(r, s)
        for r in range(0, 5):
            for s in range(0, 5 - r):
                if r + s < 1:
                    continue
                for num in range(0, 17):
                    p = F(num, 16)
                    assert g_value(gray_crg(r, s), p).value == closed_form_gray(r, s, p)

    def test_monotone_under_sub_crgs(self):
        for k in enumerate_crgs(3):
            for p in (F(1, 4), F(1, 2), F(5, 6)):
                gk = g_value(k, p).value
                for sub in sub_crgs(k):
                    assert g_value(sub, p).value >= gk

    def test_swap_duality(self):
        for k in enumerate_crgs(3):
            for num in range(0, 9):
                p = F(num, 8)
                assert g_value(swap_colors(k), 1 - p).value == g_value(k, p).value

    def test_json_serialization(self):
        res = g_value(gray_crg(1, 1), F(1, 3))
        assert res.as_json_dict() == {
            "value": "2/9",
            "weights": ["2/3", "1/3"],
            "support": [0, 1],
        }

    def test_rejects_oversize(self):
        with pytest.raises(ValidationError):
            g_value(gray_crg(7, 6), F(1, 2))


class TestFractionOracle:
    """The integer solver with its p-core filter returns exactly the GResult
    (value, weights and support) of the unfiltered Fraction solver."""

    POINTS = tuple(
        F(q)
        for q in (
            "0", "1/8", "1/5", "1/4", "1/3", "3/7", "1/2",
            "4/7", "2/3", "3/4", "33/64", "7/8", "1",
        )
    )

    def test_every_class_up_to_four_vertices(self):
        for k in enumerate_crgs(4):
            for p in self.POINTS:
                assert g_value(k, p) == g_value_fraction(k, p), (k, p)

    def test_c4_free_classes_on_five_vertices(self):
        c4 = build_family("cycle", 4)
        classes = [k for k in enumerate_crgs(5) if k.m == 5 and not embeds(c4, k)[0]]
        assert len(classes) == 482
        pruned = enumerate_crgs(5, keep=lambda k: not embeds(c4, k)[0])
        assert classes == [k for k in pruned if k.m == 5]
        for k in classes:
            for p in (F(1, 3), F(45, 64)):
                assert g_value(k, p) == g_value_fraction(k, p), (k, p)


class TestClosedFormGray:
    def test_k20_is_half_p(self):
        for num in range(0, 16):
            p = F(num, 16)
            assert closed_form_gray(2, 0, p) == p / 2

    def test_k12_at_third(self):
        assert closed_form_gray(1, 2, F(1, 3)) == F(1, 6)

    def test_k03_is_third_of_coP(self):
        for num in range(1, 17):
            p = F(num, 16)
            assert closed_form_gray(0, 3, p) == (1 - p) / 3

    def test_degenerate_corners_match_program(self):
        # 0/0 corners take the continuous extension, which is what g gives
        assert closed_form_gray(0, 3, F(0)) == F(1, 3) == g_value(gray_crg(0, 3), F(0)).value
        assert closed_form_gray(2, 0, F(1)) == F(1, 2) == g_value(gray_crg(2, 0), F(1)).value

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            closed_form_gray(0, 0, F(1, 2))


class TestIsPCore:
    def test_k20_at_third(self):
        assert is_p_core(gray_crg(2, 0), F(1, 3))

    def test_white_edge_pair(self):
        assert is_p_core(BB_WHITE_EDGE, F(1, 4))
        assert not is_p_core(BB_WHITE_EDGE, F(2, 3))

    def test_singular_full_support(self):
        # at p = 1 a black vertex costs nothing, so N is zero and the
        # bordered system on both vertices is singular
        k = crg_from_compact("BB:G")
        assert core_structured(k, core_regime(F(1)))
        assert full_support_value(k, F(1)) is None
        assert not is_p_core(k, F(1))
        assert not is_p_core_brute(k, F(1))

    def test_negative_full_support_weight(self):
        # the stationary point on all three vertices is (2/3, 2/3, -1/3):
        # the vertex on both white edges gets a negative weight
        k = crg_from_compact("BBB:GWW")
        p = F(3, 8)
        assert core_structured(k, core_regime(p))
        assert full_support_value(k, p) is None
        assert not is_p_core(k, p)
        assert not is_p_core_brute(k, p)

    def test_size_bound(self):
        with pytest.raises(ValidationError):
            is_p_core(gray_crg(13, 0), F(1, 2))

    def test_matches_every_sub_crg_check(self):
        # the K - v shortcut agrees with the definition on every class, m <= 4
        classes = list(enumerate_crgs(4))
        assert len(classes) == 772
        for p in (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)):
            for k in classes:
                assert is_p_core(k, p) == is_p_core_brute(k, p), (k, p)

    def test_structure_of_low_p_cores(self):
        # at p = 1/3 a p-core has no black edges and white edges only
        # between black vertices
        p = F(1, 3)
        cores = [k for k in enumerate_crgs(3) if is_p_core(k, p)]
        assert cores
        for k in cores:
            for i in range(k.m):
                for j in range(i + 1, k.m):
                    color = k.edge_color(i, j)
                    assert color != "B"
                    if color == "W":
                        assert k.vcolors[i] == k.vcolors[j] == "B"


class TestWeightStats:
    def test_k12_identities(self):
        k = gray_crg(1, 2)
        p = F(1, 3)
        res = g_value(k, p)
        stats = weight_stats(k, res)
        g = res.value
        white = [v for v in range(3) if k.vcolors[v] == "W"][0]
        assert res.weights[white] == g / p == F(1, 2)
        for v in range(3):
            if k.vcolors[v] == "B":
                assert res.weights[v] <= g / (1 - p)
                assert res.weights[v] == F(1, 4)

    def test_degrees_sum_to_one(self):
        for k in enumerate_crgs(3):
            res = g_value(k, F(2, 5))
            for vs in weight_stats(k, res).vertices:
                assert vs.gray_weight + vs.white_weight + vs.black_weight == 1

    def test_singleton_black(self):
        k = gray_crg(0, 1)
        stats = weight_stats(k, g_value(k, F(1, 2)))
        vs = stats.vertices[0]
        assert vs.gray_weight == 0
        assert vs.black_weight == 1  # own weight counts with its color class
        assert vs.gray_degree == 0

    def test_optimal_weight_identities_on_cores(self):
        # on every small p-core: white weights equal g/p and black gray
        # degrees follow the affine identity in the vertex weight (p <= 1/2)
        p = F(1, 3)
        for k in enumerate_crgs(3):
            if not is_p_core(k, p):
                continue
            res = g_value(k, p)
            stats = weight_stats(k, res)
            g = res.value
            for v in range(k.m):
                if k.vcolors[v] == "W":
                    assert res.weights[v] == g / p
                else:
                    assert res.weights[v] <= g / (1 - p)
                    expected = (p - g) / p + (1 - 2 * p) / p * res.weights[v]
                    assert stats.vertices[v].gray_weight == expected

    def test_codegree_example(self):
        # in all-gray K(1,2) every pair has the third vertex as common gray
        # neighbour
        k = gray_crg(1, 2)
        res = g_value(k, F(1, 3))
        stats = weight_stats(k, res)
        for (v, w), count in stats.gray_codegree_count.items():
            assert count == 1
            other = ({0, 1, 2} - {v, w}).pop()
            assert stats.gray_codegree_weight[(v, w)] == res.weights[other]

    def test_rejects_dimension_mismatch(self):
        res = g_value(gray_crg(1, 1), F(1, 2))
        with pytest.raises(ValidationError):
            weight_stats(gray_crg(1, 2), res)
