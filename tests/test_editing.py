import random
from fractions import Fraction as F

import pytest

from heredit.editing import (
    DEFAULT_NODE_LIMIT,
    _flip,
    edit_distance,
    max_dist_estimate,
    sample_graph,
)
from heredit.errors import BudgetError, ValidationError
from heredit.graphs import Graph, build_family, graph_from_graph6, graph_to_graph6, has_induced
from oracle_utils import bfs_edit_distance, edit_distance_reference, random_graph

K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
P3 = build_family("path", 3)
P4 = build_family("path", 4)
C5 = build_family("cycle", 5)
C8 = build_family("cycle", 8)


def _symmetric_difference(a: Graph, b: Graph) -> int:
    return sum((ra ^ rb).bit_count() for ra, rb in zip(a.adj, b.adj)) // 2


class TestEditDistance:
    def test_flip_matches_validated_graph(self):
        rng = random.Random(11)
        for n in range(2, 8):
            for _ in range(5):
                g = random_graph(rng, n)
                edges = set(g.edges())
                for u in range(n):
                    for v in range(n):
                        if u != v:
                            toggled = edges ^ {(min(u, v), max(u, v))}
                            assert _flip(g, u, v) == Graph.from_edges(n, toggled)

    def test_complete_graph_is_p3_free(self):
        res = edit_distance(K4, P3)
        assert res.edits == 0
        assert res.normalized == 0
        assert res.witness == K4

    def test_c5_to_cluster_graphs(self):
        res = edit_distance(C5, P3)
        assert res.edits == 3
        assert res.normalized == F(3, 10)

    def test_single_flip_kills_spanning_cycle(self):
        res = edit_distance(C8, C8)
        assert res.edits == 1
        assert res.normalized == F(1, 28)

    def test_witness_is_sound(self):
        for g, pattern in ((C5, P3), (C8, C8), (K4, P3)):
            res = edit_distance(g, pattern)
            assert not has_induced(res.witness, pattern)[0]
            assert _symmetric_difference(g, res.witness) == res.edits

    def test_zero_iff_already_free(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 7))
            res = edit_distance(g, P4)
            assert (res.edits == 0) == (not has_induced(g, P4)[0])

    def test_applying_witness_gives_distance_zero(self):
        res = edit_distance(C5, P3)
        assert edit_distance(res.witness, P3).edits == 0

    def test_agrees_with_bfs_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(4, 7)
            g = random_graph(rng, n)
            pattern = build_family("path", rng.choice([3, 4]))
            assert edit_distance(g, pattern).edits == bfs_edit_distance(g, pattern)

    def test_budget_error_carries_upper_bound(self):
        with pytest.raises(BudgetError) as exc:
            edit_distance(C8, P3, node_limit=3)
        assert exc.value.best_bound == 8  # emptying C8 is always enough
        assert "at depth 1; the distance lies in [1, 8]" in str(exc.value)
        with pytest.raises(BudgetError) as exc:
            edit_distance(C8, P3, node_limit=30)
        assert "at depth 3; the distance lies in [3, 8]" in str(exc.value)

    def test_matches_reference_result(self):
        # whole results, witness graph included, against the search that
        # called the recursive kernel at every node and no memo reuse
        claw = graph_from_graph6("Cs")  # K_{1,3}, centre 0
        patterns = (P3, P4, build_family("cycle", 4), claw)
        rng = random.Random(17)
        for index in range(200):
            g = random_graph(rng, rng.randrange(4, 9))
            pattern = patterns[index % len(patterns)]
            want = edit_distance_reference(g, pattern, DEFAULT_NODE_LIMIT)
            assert edit_distance(g, pattern) == want

    def test_budget_error_parity(self):
        # the node at which the budget runs out is unchanged, so both
        # searches raise for exactly the same limits, with the same bound;
        # the full searches below take 15, 34 and 37 nodes, and the last
        # revisits a failed graph at the depth it failed at
        cases = (
            (build_family("cycle", 6), P4),
            (build_family("ctilde", 6), P4),
            (graph_from_graph6("ElBw"), P3),
        )
        for g, pattern in cases:
            for limit in range(1, 41):
                try:
                    want = edit_distance_reference(g, pattern, limit)
                except BudgetError as exc:
                    with pytest.raises(BudgetError) as got:
                        edit_distance(g, pattern, node_limit=limit)
                    assert got.value.best_bound == exc.best_bound
                else:
                    assert edit_distance(g, pattern, node_limit=limit) == want

    def test_size_gate(self):
        with pytest.raises(ValidationError):
            edit_distance(build_family("path", 11), P3)
        with pytest.raises(ValidationError):
            edit_distance(C5, Graph.from_edges(1, []))


class TestSampleGraph:
    def test_exact_edge_count(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randrange(2, 9)
            want = rng.randrange(0, n * (n - 1) // 2 + 1)
            assert sample_graph(n, want, rng).edge_count() == want

    def test_deterministic_per_seed(self):
        a = sample_graph(7, 10, random.Random(99))
        b = sample_graph(7, 10, random.Random(99))
        assert a == b


class TestMaxDistEstimate:
    def test_empty_density_is_free(self):
        res = max_dist_estimate(5, F(0), P3, samples=5, seed=1)
        assert res.max_normalized == 0

    def test_full_density_k5_is_p3_free(self):
        res = max_dist_estimate(5, F(1), P3, samples=5, seed=1)
        assert res.max_normalized == 0

    def test_pinned_regression_value(self):
        # frozen output of the documented sampler (MT19937 + partial
        # Fisher-Yates); any change in sampling or the oracle shows up here
        res = max_dist_estimate(6, F(1, 2), P4, samples=50, seed=7)
        assert res.max_normalized == F(2, 15)
        assert graph_to_graph6(res.witness) == "Eqd_"
        assert res.skipped == 0

    def test_deterministic(self):
        a = max_dist_estimate(6, F(1, 2), P4, samples=20, seed=3)
        b = max_dist_estimate(6, F(1, 2), P4, samples=20, seed=3)
        assert a == b

    def test_witness_attains_reported_distance(self):
        res = max_dist_estimate(6, F(1, 2), P4, samples=10, seed=2)
        assert edit_distance(res.witness, P4).normalized == res.max_normalized

    def test_validation(self):
        with pytest.raises(ValidationError):
            max_dist_estimate(10, F(1, 2), P3, samples=5, seed=0)
        with pytest.raises(ValidationError):
            max_dist_estimate(5, F(1, 2), P3, samples=0, seed=0)
