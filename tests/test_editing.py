import random
from fractions import Fraction as F

import pytest

from heredit import editing
from heredit.editing import (
    DEFAULT_NODE_LIMIT,
    _flip,
    _flip_search,
    _sample_rows,
    _survivor_commons,
    _table_copy_search,
    _vertex_pairs,
    _vertex_table,
    edit_distance,
    max_dist_estimate,
    sample_graph,
)
from heredit.errors import BudgetError, ValidationError
from heredit.graphs import (
    Graph,
    _pattern_search,
    build_family,
    graph_from_graph6,
    graph_to_graph6,
    has_induced,
)
from oracle_utils import (
    bfs_edit_distance,
    edit_distance_reference,
    max_dist_estimate_reference,
    random_graph,
    sample_graph_reference,
)

K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
P3 = build_family("path", 3)
P4 = build_family("path", 4)
C5 = build_family("cycle", 5)
P5 = build_family("path", 5)
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
                            flipped = Graph(n, _flip(g.adj, u, v))
                            assert flipped == Graph.from_edges(n, toggled)

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

    def test_budget_error_parity_at_every_limit_on_random_graphs(self):
        # a node with two flips left skips the children its pass rules out
        # but still counts each with its pairs, so both searches raise at
        # exactly the same limits; the 24 full searches here take
        # from 1 to 302 nodes, 8 of them more than 20
        claw = graph_from_graph6("Cs")
        rng = random.Random(29)
        for n in (7, 8):
            for pattern in (P4, build_family("cycle", 4), claw):
                for _ in range(4):
                    g = random_graph(rng, n)
                    self._check_parity_up_to(g, pattern, 200)

    @staticmethod
    def _check_parity_up_to(g, pattern, top):
        want = None
        for limit in range(1, top + 1):
            # the reference visits the same nodes at every limit, so once
            # it fits in a limit it returns the same result at every larger one
            if want is None:
                try:
                    want = edit_distance_reference(g, pattern, limit)
                except BudgetError as exc:
                    with pytest.raises(BudgetError) as got:
                        edit_distance(g, pattern, node_limit=limit)
                    assert got.value.best_bound == exc.best_bound
                    continue
            assert edit_distance(g, pattern, node_limit=limit) == want

    def test_budget_error_parity_at_every_limit_for_five_vertex_patterns(self):
        # C5 and P5, which the test above does not cover, on hosts at least
        # two flips from free, so nodes with two flips left rule children
        # out by the survivor pass; the three fixed P5 hosts are three flips
        # from free and take 229 to 316 nodes, past the largest limit
        rng = random.Random(41)
        for pattern, fixed in ((C5, ()), (P5, ("GBYULO", "GAiVOw", "GhMKmC"))):
            hosts = [graph_from_graph6(text) for text in fixed]
            while len(hosts) < len(fixed) + 4:
                g = random_graph(rng, 8, rng.choice((0.3, 0.5, 0.7)))
                if edit_distance(g, pattern).edits >= 2:
                    hosts.append(g)
            for g in hosts:
                self._check_parity_by_bisection(g, pattern, 200)

    @staticmethod
    def _check_parity_by_bisection(g, pattern, top):
        """Parity at every limit 1..top, running the reference only to find
        the smallest limit it fits in: it visits the same nodes at every
        limit, so it raises at exactly the limits below that one."""
        fits, hi = 1, top + 1
        while fits < hi:
            mid = (fits + hi) // 2
            try:
                edit_distance_reference(g, pattern, mid)
            except BudgetError:
                fits = mid + 1
            else:
                hi = mid
        want = edit_distance_reference(g, pattern, fits) if fits <= top else None
        for limit in range(1, top + 1):
            if limit < fits:
                with pytest.raises(BudgetError) as got:
                    edit_distance(g, pattern, node_limit=limit)
                assert got.value.best_bound == g.edge_count()  # emptying g
            else:
                assert edit_distance(g, pattern, node_limit=limit) == want

    def test_copy_free_host_settled_at_one_node(self):
        # no separate induced-copy test runs first: the depth-1 root of the
        # search settles a copy-free host, so a limit of one node suffices,
        # also for hosts without pairs and for patterns larger than the host
        k2 = Graph.from_edges(2, [(0, 1)])
        k10 = Graph.from_edges(10, [(i, j) for i in range(10) for j in range(i + 1, 10)])
        k55 = Graph.from_edges(10, [(i, j) for i in range(5) for j in range(5, 10)])
        cases = (
            (Graph.from_edges(0, []), P3),
            (Graph.from_edges(1, []), k2),
            (Graph.from_edges(2, []), k2),
            (k10, P3),
            (k55, P4),
            (P3, P4),
            (k10, build_family("path", 17)),
        )
        for host, pattern in cases:
            res = edit_distance(host, pattern, node_limit=1)
            assert (res.edits, res.normalized, res.witness) == (0, 0, host)

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

    def test_order_above_the_cap_refused_before_the_pairs_are_built(self, monkeypatch):
        def unbuilt(n):
            raise AssertionError(f"built the {n}-vertex pair list")

        monkeypatch.setattr(editing, "_vertex_pairs", unbuilt)
        rng = random.Random(1)
        state = rng.getstate()
        for n in (4097, 10 ** 30, -1):
            with pytest.raises(ValidationError, match=f"vertex count {n} outside 0..4096"):
                sample_graph(n, 3, rng)
        assert rng.getstate() == state

    def test_rows_are_the_reference_draws(self):
        """The estimate's unvalidated rows, ``sample_graph`` and the
        reference sampler give one graph and leave ``rng`` in one state."""
        for seed in range(8):
            draws = [random.Random(seed) for _ in range(3)]
            for n in range(10):
                for edge_count in (0, n * (n - 1) // 4, n * (n - 1) // 2):
                    rows = _sample_rows(n, _vertex_pairs(n), edge_count, draws[0])
                    assert rows == sample_graph(n, edge_count, draws[1]).adj
                    assert rows == sample_graph_reference(n, edge_count, draws[2]).adj
            assert len({rng.random() for rng in draws}) == 1


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


@pytest.mark.parametrize("limit", [0, -3])
def test_node_limit_below_one_refused_before_any_search(monkeypatch, limit):
    def forbidden(*args, **kwargs):
        raise AssertionError("search started before the node limit was refused")

    for name in ("_flip_search", "_sample_rows"):
        monkeypatch.setattr(editing, name, forbidden)
    with pytest.raises(ValidationError, match=f"node limit must be at least 1, got {limit}"):
        edit_distance(C5, P3, node_limit=limit)
    with pytest.raises(ValidationError, match=f"node limit must be at least 1, got {limit}"):
        max_dist_estimate(6, F(1, 2), P4, samples=5, seed=1, node_limit=limit)


def _spy_on_runs(monkeypatch) -> list[str]:
    """Record, in order, how each exact run and each maximum check ends.

    Exact runs log ``exact`` or ``exact-over`` (node limit exceeded); a
    check that exceeds the node limit logs ``check-over``.
    """
    events: list[str] = []
    real_exact, real_search = editing.edit_distance, editing._flip_search
    inside_exact = False

    def exact(*args, **kwargs):
        nonlocal inside_exact
        inside_exact = True
        try:
            result = real_exact(*args, **kwargs)
        except BudgetError:
            events.append("exact-over")
            raise
        finally:
            inside_exact = False
        events.append("exact")
        return result

    def flip_search(*args):
        run = real_search(*args)
        if inside_exact:
            return run

        def check(adj, depths):
            try:
                yield from run(adj, depths)
            except BudgetError:
                events.append("check-over")
                raise

        return check

    monkeypatch.setattr(editing, "edit_distance", exact)
    monkeypatch.setattr(editing, "_flip_search", flip_search)
    return events


class TestEstimateAgainstReference:
    PATTERNS = (P3, P4, build_family("cycle", 4))
    DENSITIES = (F(1, 3), F(1, 2), F(2, 3))

    def test_whole_result_at_default_limit(self):
        for n in range(5, 9):
            for pattern in self.PATTERNS:
                for p in self.DENSITIES:
                    for seed in (1, 2, 3):
                        args = (n, p, pattern, 25, seed)
                        assert max_dist_estimate(*args) == max_dist_estimate_reference(*args)

    def test_maximum_kept_and_skipped_never_larger_at_small_limits(self):
        cases = ((6, P3, 1), (7, P4, 2), (7, build_family("cycle", 4), 3), (8, P4, 4))
        for n, pattern, seed in cases:
            for limit in range(5, 161, 5):
                args = (n, F(1, 2), pattern, 12, seed, limit)
                try:
                    want = max_dist_estimate_reference(*args)
                except BudgetError:
                    # the check needs a maximum, so until one exists every
                    # sample gets the same exact run as in the reference
                    with pytest.raises(BudgetError):
                        max_dist_estimate(*args)
                    continue
                got = max_dist_estimate(*args)
                assert got.max_normalized == want.max_normalized
                assert got.witness == want.witness
                assert got.skipped <= want.skipped


def _spy_on_copy_searches(monkeypatch) -> tuple[list, list]:
    """Record each kernel the edit search fetches, as ``(name, pattern)``,
    and in one list the rows of each call of a fetched kernel: the
    first-copy search (``editing._table_copy_search``) and the survivor
    pass (``editing._survivor_commons``)."""
    fetched: list = []
    searched: list = []

    def spy(name):
        real = getattr(editing, name)

        def fetch(pattern):
            kernel = real(pattern)
            fetched.append((name, pattern))

            def counted(adj, n, vb):
                searched.append(adj)
                return kernel(adj, n, vb)

            return counted

        monkeypatch.setattr(editing, name, fetch)

    spy("_table_copy_search")
    spy("_survivor_commons")
    return fetched, searched


class TestEstimateCheck:
    def test_check_at_zero_is_one_induced_search(self, monkeypatch):
        _, calls = _spy_on_copy_searches(monkeypatch)
        # every edgeless sample is P3-free: the first gets the exact run,
        # whose depth-1 root finds it free with one first-copy search, and
        # each later sample is settled by a depth-0 check that searches its
        # rows once
        res = max_dist_estimate(6, F(0), P3, samples=5, seed=1)
        assert res.max_normalized == 0
        assert calls == [(0,) * 6] * 5
        calls.clear()
        # a sample that contains a copy fails the depth-0 check at its root
        assert list(_flip_search(5, P3, DEFAULT_NODE_LIMIT)(C5.adj, [0])) == [None]
        assert calls == [C5.adj]

    def test_one_flip_left_searches_each_child_once(self, monkeypatch):
        _, searched = _spy_on_copy_searches(monkeypatch)
        # two disjoint P3s: no single flip clears both copies, so the root
        # and each of the three children of its first copy search once,
        # the children in copy order
        two_p3 = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert list(_flip_search(6, P3, 4)(two_p3.adj, [1])) == [None]
        copy = has_induced(two_p3, P3)[1]
        children = [_flip(two_p3.adj, copy[i], copy[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert searched == [two_p3.adj, *children]
        # the root and three children need four nodes
        with pytest.raises(BudgetError):
            list(_flip_search(6, P3, 3)(two_p3.adj, [1]))

    def test_two_flips_left_rules_out_children_without_searching_them(
        self, monkeypatch
    ):
        _, searched = _spy_on_copy_searches(monkeypatch)
        # three disjoint P3s: each flip inside the first leaves the copies
        # of the other two, which share no vertex, so all three children
        # fail at one flip left and only the root runs a kernel, its
        # survivor pass
        three_p3 = Graph.from_edges(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)])
        assert list(_flip_search(9, P3, 13)(three_p3.adj, [2])) == [None]
        assert searched == [three_p3.adj]
        # each ruled-out child still counts as itself and its three
        # children: the root and 3 * (1 + 3) nodes need a limit of 13
        with pytest.raises(BudgetError):
            list(_flip_search(9, P3, 12)(three_p3.adj, [2]))
        # a ruled-out child is remembered as failed at one flip left only:
        # at depth 3 of the same run the root's first child, ruled out at
        # depth 2, has two flips left and runs its own survivor pass, and
        # three flips suffice
        searched.clear()
        run = _flip_search(9, P3, DEFAULT_NODE_LIMIT)
        witnesses = list(run(three_p3.adj, [2, 3]))
        assert witnesses[0] is None and witnesses[1] is not None
        copy = has_induced(three_p3, P3)[1]
        child = _flip(three_p3.adj, copy[0], copy[1])
        assert searched[:3] == [three_p3.adj, three_p3.adj, child]
        # one run remembers its ruled-out children across its nodes: two
        # siblings in the P3 search of 'DFw' (distance 4) rule out the same
        # child, which costs 1 + 3 nodes the first time and 1 the second,
        # so the run needs 67 nodes where forgetting it would take 70
        host = graph_from_graph6("DFw")
        with pytest.raises(BudgetError):
            list(_flip_search(5, P3, 66)(host.adj, range(1, 5)))
        assert list(_flip_search(5, P3, 67)(host.adj, range(1, 5)))[3] is not None

    def test_copy_searches_of_the_benchmark_estimate(self, monkeypatch):
        # a work pin: every node the memo does not settle makes one kernel
        # call, a first-copy search or, with two flips left, a survivor pass
        _, searched = _spy_on_copy_searches(monkeypatch)
        res = max_dist_estimate(8, F(1, 2), P4, 800, 7)
        assert (res.max_normalized, graph_to_graph6(res.witness), res.skipped) == (
            F(5, 28), "G|AYUK", 0
        )
        assert len(searched) == 12_042

    def test_search_fetched_once_per_search_object(self, monkeypatch):
        fetched, searched = _spy_on_copy_searches(monkeypatch)
        # C8 is three flips from P4-free: deepen to it in one run, then ask
        # again at depth 3 in a second run of the same search object
        run = _flip_search(8, P4, DEFAULT_NODE_LIMIT)
        witnesses = list(run(C8.adj, range(4)))
        assert witnesses[:3] == [None] * 3 and witnesses[3] is not None
        assert list(run(C8.adj, [3])) == witnesses[3:]
        assert fetched == [("_table_copy_search", P4), ("_survivor_commons", P4)]
        assert len(searched) > 1

    def test_one_estimate_fetches_each_kernel_once_for_all_its_checks(self, monkeypatch):
        # the checks share the estimate's one search object, so every fetch
        # after the first is an exact run's own
        exact = []
        real = editing.edit_distance

        def counted(*args, **kwargs):
            exact.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(editing, "edit_distance", counted)
        cached = (_table_copy_search, _survivor_commons, _vertex_table)
        for f in cached:
            f.cache_clear()
        max_dist_estimate(8, F(1, 2), P4, 200, 7)
        assert 1 < len(exact) < 200
        for f in cached:
            info = f.cache_info()
            assert (info.misses, info.hits) == (1, len(exact))

    def test_pattern_larger_than_the_host_builds_no_search(self):
        path17 = build_family("path", 17)
        cached = (_pattern_search, _table_copy_search, _survivor_commons, _vertex_table)
        before = [(f.cache_info().misses, f.cache_info().currsize) for f in cached]
        args = (8, F(1, 2), path17, 3, 7)
        assert max_dist_estimate(*args) == max_dist_estimate_reference(*args)
        after = [(f.cache_info().misses, f.cache_info().currsize) for f in cached]
        assert after == before
        rows = C8.adj
        assert next(_flip_search(8, path17, 1)(rows, [0])) is rows

    def test_first_sample_over_budget_next_still_exact(self, monkeypatch):
        events = _spy_on_runs(monkeypatch)
        res = max_dist_estimate(6, F(1, 2), P4, samples=6, seed=3, node_limit=8)
        assert events[:2] == ["exact-over", "exact"]
        assert res.skipped == events.count("exact-over")
        assert res == max_dist_estimate_reference(6, F(1, 2), P4, 6, 3, 8)

    def test_check_over_budget_falls_through_to_exact_run(self, monkeypatch):
        events = _spy_on_runs(monkeypatch)
        res = max_dist_estimate(6, F(1, 2), P3, samples=6, seed=5, node_limit=75)
        assert events == ["exact", "exact", "check-over", "exact"]
        assert res.skipped == 0
        assert res == max_dist_estimate_reference(6, F(1, 2), P3, 6, 5, 75)
