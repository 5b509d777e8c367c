import os
import random
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heredit
from heredit.editing import (
    MAX_ORACLE_VERTICES,
    _survivor_commons,
    _table_copy_search,
    _vertex_table,
    max_dist_estimate,
)
from heredit.errors import BudgetError, FormatError, ValidationError
from heredit.graphs import (
    Graph,
    _bits,
    _induced_plan,
    _pattern_search,
    build_family,
    complement,
    graph_from_graph6,
    graph_to_graph6,
    has_induced,
    parse_graph_spec,
    path_cycle_profile,
)
from heredit.limits import MAX_EMBED_PATTERN
from oracle_utils import (
    has_induced_brute,
    has_induced_recursive,
    induced_copies_brute,
    induced_copies_recursive,
    is_connected,
    max_path_closes,
    paths_and_cycles_recursive,
    random_graph,
)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return Graph.from_edges(n, edges)


class TestFamilies:
    def test_path_edges(self):
        g = build_family("path", 4)
        assert g.edges() == ((0, 1), (1, 2), (2, 3))

    def test_c2nstar_has_long_chord(self):
        g = build_family("c2nstar", 8)
        assert g.edge_count() == 9
        assert g.has_edge(0, 4)

    def test_ctilde_has_short_chord(self):
        g = build_family("ctilde", 9)
        assert g.edge_count() == 10
        assert g.has_edge(0, 2)

    @pytest.mark.parametrize("family,n,count", [
        ("path", 7, 6),
        ("cycle", 8, 8),
        ("ctilde", 11, 12),
        ("c2nstar", 10, 11),
    ])
    def test_edge_counts(self, family, n, count):
        assert build_family(family, n).edge_count() == count

    @pytest.mark.parametrize("family,n", [
        ("path", 0), ("cycle", 2), ("ctilde", 3), ("c2nstar", 7), ("c2nstar", 4),
        # above the graph cap: the edges are generated lazily, so a 30-digit
        # order is refused before any is built
        ("path", 10 ** 30), ("cycle", 4097), ("c2nstar", 10 ** 30), ("ctilde", 4098),
    ])
    def test_rejects_bad_orders(self, family, n):
        with pytest.raises(ValidationError):
            build_family(family, n)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValidationError):
            build_family("wheel", 5)


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(3, [(0, 3)])

    @given(graphs())
    def test_complement_is_involution(self, g):
        assert complement(complement(g)) == g

    def test_complement_examples(self):
        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert complement(k3).edge_count() == 0
        assert complement(build_family("path", 3)).edges() == ((0, 2),)
        c5 = build_family("cycle", 5)
        assert complement(complement(c5)) == c5


class TestHasInduced:
    def test_c5_contains_p4(self):
        found, witness = has_induced(build_family("cycle", 5), build_family("path", 4))
        assert found
        p4 = build_family("path", 4)
        host = build_family("cycle", 5)
        for u in range(4):
            for v in range(u + 1, 4):
                assert host.has_edge(witness[u], witness[v]) == p4.has_edge(u, v)

    def test_complete_graph_has_no_p3(self):
        k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert has_induced(k4, build_family("path", 3)) == (False, None)

    def test_c8star_has_no_induced_c8(self):
        # the only 8-vertex subset carries the chord, so the cycle is not induced
        found, _ = has_induced(build_family("c2nstar", 8), build_family("cycle", 8))
        assert not found

    def test_self_and_single_vertex(self):
        for g in (build_family("path", 5), build_family("ctilde", 6)):
            assert has_induced(g, g)[0]
            assert has_induced(g, Graph.from_edges(1, []))[0]
        assert not has_induced(Graph.from_edges(0, []), Graph.from_edges(1, []))[0]

    def test_pattern_larger_than_host(self):
        # decided before any search is built, so also above the search's cap
        for host, pattern in [("path:3", "path:4"), ("path:5", "path:17"),
                              ("cycle:20", "path:40")]:
            assert has_induced(parse_graph_spec(host), parse_graph_spec(pattern)) == (False, None)

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(40):
            host = random_graph(rng, rng.randrange(1, 7))
            pattern = random_graph(rng, rng.randrange(1, 5))
            assert has_induced(host, pattern)[0] == has_induced_brute(host, pattern)

    def test_matches_networkx_on_random_pairs(self):
        rng = random.Random(23)
        for _ in range(40):
            host = random_graph(rng, rng.randrange(1, 8))
            pattern = random_graph(rng, rng.randrange(1, 6))
            nx_host = nx.Graph([(u, v) for u, v in host.edges()])
            nx_host.add_nodes_from(range(host.n))
            nx_pattern = nx.Graph([(u, v) for u, v in pattern.edges()])
            nx_pattern.add_nodes_from(range(pattern.n))
            matcher = nx.algorithms.isomorphism.GraphMatcher(nx_host, nx_pattern)
            assert has_induced(host, pattern)[0] == matcher.subgraph_is_isomorphic()

    def test_witness_matches_recursive_reference(self):
        # the edit search branches on the witness, so the bitset kernel must
        # return the recursive search's first copy, not just any copy
        rng = random.Random(41)
        for _ in range(2500):
            host = random_graph(rng, rng.randrange(0, 11), rng.random())
            density = rng.choice((0.0, 1.0, rng.random()))
            pattern = random_graph(rng, rng.randrange(0, 6), density)
            assert has_induced(host, pattern) == has_induced_recursive(host, pattern)

    def test_witness_matches_recursive_reference_on_larger_hosts(self):
        # above the oracle's 10-vertex cap, where the table kernels never run
        rng = random.Random(43)
        found = 0
        for _ in range(200):
            host = random_graph(rng, rng.randrange(11, 41), rng.choice((0.1, 0.5, 0.9)))
            density = rng.choice((0.0, 1.0, rng.random()))
            pattern = random_graph(rng, rng.randrange(1, 9), density)
            want = has_induced_recursive(host, pattern)
            assert has_induced(host, pattern) == want
            found += want[0]
        assert 0 < found < 200

    def test_witness_matches_recursive_reference_on_large_sparse_hosts(self):
        # non-edge rows are built only for the host vertices the search
        # places; each host holds a copy, so the search stops early
        rng = random.Random(47)
        patterns = [build_family("path", 4), build_family("path", 3),
                    build_family("cycle", 5), Graph(3, (0,) * 3)]
        for n in (200, 1000, 4096):
            edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}
            host = Graph.from_edges(n, edges)
            for pattern in patterns:
                want = has_induced_recursive(host, pattern)
                assert want[0]
                assert has_induced(host, pattern) == want

    def test_witness_matches_recursive_reference_on_twin_rich_hosts(self):
        # hosts whose vertices fall into few classes of twins: the search
        # is given no twin classes, so it must still place every vertex
        def cliques(*sizes):
            edges, start = [], 0
            for size in sizes:
                edges += [(start + i, start + j) for j in range(size) for i in range(j)]
                start += size
            return Graph.from_edges(start, edges)

        def bipartite(a, b):
            return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])

        hosts = [Graph(12, (0,) * 12), cliques(12), bipartite(4, 8), bipartite(6, 6),
                 cliques(3, 4, 5), cliques(2, 2, 2, 2, 2, 2)]
        patterns = [Graph(3, (0,) * 3), cliques(4), cliques(2, 1), bipartite(2, 3),
                    bipartite(3, 3), cliques(3, 3), build_family("path", 3),
                    build_family("cycle", 4), build_family("cycle", 5),
                    build_family("c2nstar", 8), cliques(4, 4), bipartite(4, 4)]
        found = 0
        for host in hosts:
            for pattern in patterns:
                want = has_induced_recursive(host, pattern)
                assert has_induced(host, pattern) == want
                found += want[0]
        assert 0 < found < len(hosts) * len(patterns)

    def test_exhausted_search_is_false_not_over_budget(self):
        # the search is unbounded: K(20, 20) holds no induced C5, and proving
        # it takes more placements than a small budget allows
        host = Graph.from_edges(40, [(i, 20 + j) for i in range(20) for j in range(20)])
        pattern = build_family("cycle", 5)
        assert has_induced(host, pattern) == (False, None)
        full = (1 << host.n) - 1
        non = [full ^ row ^ (1 << v) for v, row in enumerate(host.adj)]
        with pytest.raises(BudgetError, match="budget of 10000 placements exceeded"):
            _pattern_search(pattern)(host.adj, non, full, (), 10_000)


def _first_copy_on_every_path(host, pattern):
    """The first copy of ``pattern`` in ``host`` (``None`` if there is none),
    after checking that ``has_induced``'s witness, the oracle's table kernel
    on hosts of at most ``MAX_ORACLE_VERTICES`` vertices and the recursive
    reference are the same one."""
    found, first = has_induced(host, pattern)
    assert found is (first is not None)
    assert first == has_induced_recursive(host, pattern)[1]
    if host.n <= MAX_ORACLE_VERTICES:
        assert _table_copy_search(pattern)(host.adj, host.n, _vertex_table(host.n)) == first
    return first


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestInducedCopies:
    PATTERNS = (
        build_family("path", 3),
        build_family("path", 4),
        build_family("cycle", 4),
        graph_from_graph6("Cs"),  # K_{1,3}, centre 0
        build_family("c2nstar", 6),
    )

    def test_every_copy_against_brute_force(self):
        rng = random.Random(23)
        for pattern in self.PATTERNS:
            order = _induced_plan(pattern)[0]
            hosts = 12 if pattern.n == 6 else 40
            for _ in range(hosts):
                host = random_graph(rng, rng.randrange(pattern.n - 1, 9), rng.random())
                first = _first_copy_on_every_path(host, pattern)
                # search order: ascending host vertex at each pattern step,
                # so the first copy is the least of all copies in that order
                copies = induced_copies_brute(host, pattern)
                assert first == min(copies, key=lambda c: [c[v] for v in order], default=None)

    def test_both_loop_forms_up_to_the_oracle_cap(self):
        # the pattern search and the oracle's table loops, which run on
        # hosts of up to MAX_ORACLE_VERTICES vertices
        rng = random.Random(37)
        for pattern in self.PATTERNS:
            found = 0
            for _ in range(30):
                n = rng.randrange(pattern.n, MAX_ORACLE_VERTICES + 1)
                host = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
                found += _first_copy_on_every_path(host, pattern) is not None
            assert 0 < found < 30

    @pytest.mark.parametrize("k", [MAX_EMBED_PATTERN - 1, MAX_EMBED_PATTERN])
    def test_patterns_around_the_compiled_size(self, k):
        # the largest patterns the search takes, where brute force is too
        # slow: the first copy is an induced copy, and the recursive
        # reference's first
        rng = random.Random(k)
        for family in ("path", "cycle"):
            pattern = build_family(family, k)
            # the pattern plus three vertices, joined by random chords that
            # touch one of the three, so the pattern's own copies survive.
            # For the path also the cycle on k + 3 vertices.
            hosts = []
            for chords in range(4):
                edges = set(pattern.edges())
                for _ in range(chords):
                    u, v = rng.randrange(k, k + 3), rng.randrange(k + 3)
                    if u != v:
                        edges.add((min(u, v), max(u, v)))
                hosts.append(Graph.from_edges(k + 3, edges))
            if family == "path":
                hosts.append(build_family("cycle", k + 3))
            for host in hosts:
                host = _relabelled(host, rng)
                first = _first_copy_on_every_path(host, pattern)
                assert all(
                    pattern.has_edge(i, j) == host.has_edge(first[i], first[j])
                    for i in range(k) for j in range(i + 1, k)
                )


class TestSurvivorCommons:
    PATTERNS = (
        build_family("path", 3),
        build_family("path", 4),
        build_family("cycle", 4),
        graph_from_graph6("Cs"),  # the claw K_{1,3}, centre 0
        build_family("cycle", 5),
        build_family("path", 5),
    )

    def test_against_every_copy_and_every_single_flip(self):
        """The pass returns the reference's first copy and, per pair of it,
        agrees with the common vertices of the listed copies that survive
        the pair's flip; a ruled-out child holds a copy that no single flip
        clears.  A host with no copy gives ``None``."""
        rng = random.Random(43)
        for pattern in self.PATTERNS:
            k = pattern.n
            pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
            wide = _survivor_commons(pattern)
            for n in range(MAX_ORACLE_VERTICES + 1):
                # every pattern here has an edge and a non-edge
                for free in (Graph(n, (0,) * n), complement(Graph(n, (0,) * n))):
                    assert wide(free.adj, n, _vertex_table(n)) is None
            outcomes = set()
            hosts = 0
            while hosts < 25:
                host = random_graph(rng, rng.randrange(5, 10), rng.choice((0.3, 0.5, 0.7)))
                listed = list(induced_copies_recursive(host, pattern))
                got = wide(host.adj, host.n, _vertex_table(host.n))
                if not listed:
                    assert got is None
                    continue
                hosts += 1
                first, flags = got
                assert first == listed[0]
                copies = [set(copy) for copy in listed]
                assert len(flags) == len(pairs)
                for (i, j), open_child in zip(pairs, flags):
                    u, v = first[i], first[j]
                    survivors = [c for c in copies if not {u, v} <= c]
                    narrow = bool(survivors) and len(set.intersection(*survivors)) <= 1
                    assert open_child is not narrow
                    outcomes.add(narrow)
                    if narrow:
                        child = _toggled(host, u, v)
                        assert has_induced(child, pattern)[0]
                        assert all(
                            has_induced(_toggled(child, a, b), pattern)[0]
                            for a in range(host.n) for b in range(a + 1, host.n)
                        )
            assert outcomes == {False, True}


def _toggled(g: Graph, u: int, v: int) -> Graph:
    """``g`` with the pair {u, v} flipped, rebuilt from its edge list."""
    return Graph.from_edges(g.n, set(g.edges()) ^ {(min(u, v), max(u, v))})


class TestCompiledCopies:
    KERNELS = (_pattern_search, _table_copy_search, _survivor_commons)

    def test_one_kernel_per_pattern_in_an_estimate(self):
        # the edit search's two table-form kernels; the exact runs' roots
        # use them too, so the pattern search is never built
        for kernel in self.KERNELS:
            kernel.cache_clear()
        max_dist_estimate(8, Fraction(1, 2), build_family("path", 4), 50, 7)
        for kernel in self.KERNELS:
            info = kernel.cache_info()
            assert (info.misses, info.currsize) == ((0, 0) if kernel is _pattern_search else (1, 1))

    def test_one_estimate_builds_one_table_and_one_of_each_kernel(self):
        for cached in (*self.KERNELS, _vertex_table):
            cached.cache_clear()
        max_dist_estimate(8, Fraction(1, 2), build_family("path", 4), 50, 7)
        for cached in (*self.KERNELS, _vertex_table):
            info = cached.cache_info()
            assert (info.misses, info.currsize) == ((0, 0) if cached is _pattern_search else (1, 1))
        assert len(_vertex_table(8)) == 256
        # another pattern on the same host order shares the table
        max_dist_estimate(8, Fraction(1, 2), build_family("cycle", 4), 50, 7)
        assert _vertex_table.cache_info().misses == 1

    def test_vertex_table_lists_each_mask_in_ascending_order(self):
        for n in range(MAX_ORACLE_VERTICES + 1):
            vb = _vertex_table(n)
            assert vb == tuple(
                tuple((v, 1 << v) for v in _bits(c)) for c in range(1 << n)
            )
        with pytest.raises(ValidationError, match="vertex table capped at 10 vertices"):
            _vertex_table(MAX_ORACLE_VERTICES + 1)

    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_kernels_build_at_the_cap(self, family):
        # CPython refuses more than 20 nested blocks, and the loops of a
        # 21-step pattern no longer compile, so the cap keeps clear of it:
        # at 16 the pattern search and both oracle kernels build.  A host
        # of the table's size holds no copy of them.
        pattern = build_family(family, MAX_EMBED_PATTERN)
        search = _pattern_search(pattern)
        assert search.__name__ == "search"
        assert _pattern_search(build_family(family, MAX_EMBED_PATTERN)) is search
        assert has_induced(pattern, pattern)[0]
        host = build_family(family, MAX_ORACLE_VERTICES)
        vb = _vertex_table(host.n)
        assert _table_copy_search(pattern).__name__ == "first_copy"
        assert _table_copy_search(pattern)(host.adj, host.n, vb) is None
        assert _survivor_commons(pattern).__name__ == "wide"
        assert _survivor_commons(pattern)(host.adj, host.n, vb) is None

    def test_larger_pattern_refused(self):
        large = build_family("path", MAX_EMBED_PATTERN + 1)
        with pytest.raises(ValidationError, match="capped at 16 vertices"):
            _pattern_search(large)
        with pytest.raises(ValidationError, match="^induced-copy pattern capped at 16 vertices$"):
            has_induced(build_family("cycle", 20), large)

    @pytest.mark.parametrize("k", [MAX_EMBED_PATTERN + 1, 21])
    def test_every_kernel_refuses_a_larger_pattern(self, k):
        # 21 steps is where the loops would stop compiling (SyntaxError)
        for kernel in self.KERNELS:
            with pytest.raises(ValidationError, match="capped at 16 vertices"):
                kernel(build_family("path", k))

    def test_import_compiles_nothing(self):
        src = os.path.dirname(os.path.dirname(heredit.__file__))
        code = (
            "import heredit.cli, heredit.graphs as g, heredit.editing as e;"
            " print(*(f.cache_info().misses for f in"
            " (g._pattern_search, e._table_copy_search, e._survivor_commons, e._vertex_table)))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert out.stdout == "0 0 0 0\n"


class TestPathCycleProfile:
    def test_examples(self):
        assert path_cycle_profile(build_family("path", 5)) == (5, frozenset(), False)
        assert path_cycle_profile(build_family("cycle", 5)) == (5, frozenset({5}), True)
        # computed by the independent recursive enumerator as well
        profile = path_cycle_profile(build_family("c2nstar", 8))
        assert profile == (8, frozenset({5, 8}), True)

    def test_agrees_with_recursive_enumeration(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 8))
            longest, lengths = paths_and_cycles_recursive(g)
            profile = path_cycle_profile(g)
            assert profile.longest_path_order == longest
            assert profile.cycle_lengths == frozenset(lengths)
            assert profile.hamiltonian == (g.n >= 3 and g.n in lengths)

    def test_rejects_large_graphs(self):
        with pytest.raises(ValidationError):
            path_cycle_profile(build_family("path", 17))

    def test_closing_max_path_implies_hamiltonian(self):
        # a maximum-length path with adjacent endpoints makes a connected
        # graph Hamiltonian; checked on random connected graphs
        rng = random.Random(7)
        checked = 0
        for _ in range(120):
            g = random_graph(rng, rng.randrange(2, 8), density=0.45)
            if not is_connected(g):
                continue
            if max_path_closes(g):
                checked += 1
                assert path_cycle_profile(g).hamiltonian
        assert checked > 10


class TestGraph6:
    def test_known_vectors(self):
        k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert graph_to_graph6(k4) == "C~"
        assert graph_to_graph6(build_family("path", 4)) == "Ch"
        assert graph_to_graph6(build_family("cycle", 5)) == "Dhc"

    @given(graphs(max_n=12))
    @settings(max_examples=60)
    def test_roundtrip_byte_identical(self, g):
        text = graph_to_graph6(g)
        assert graph_to_graph6(graph_from_graph6(text)) == text
        assert graph_from_graph6(text) == g

    def test_long_form_roundtrip(self):
        g = build_family("path", 100)
        text = graph_to_graph6(g)
        assert text.startswith("~")
        assert graph_from_graph6(text) == g

    def test_matches_networkx(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(0, 15))
            nx_g = nx.Graph()
            nx_g.add_nodes_from(range(g.n))  # label order matters for graph6
            nx_g.add_edges_from(g.edges())
            assert graph_to_graph6(g) == nx.to_graph6_bytes(nx_g, header=False).decode().strip()

    def test_accepts_header(self):
        assert graph_from_graph6(">>graph6<<Ch") == build_family("path", 4)

    @pytest.mark.parametrize("bad", ["", "C", "Ch_", "C\x20", "~???"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            graph_from_graph6(bad)

    def test_rejects_nonzero_padding(self):
        # P3 is "Bg"; flipping a padding bit must be rejected
        assert graph_from_graph6("Bg") == build_family("path", 3)
        with pytest.raises(FormatError):
            graph_from_graph6("Bh")


class TestGraphSpec:
    def test_family_specs(self):
        assert parse_graph_spec("path:7") == build_family("path", 7)
        assert parse_graph_spec("c2nstar:8") == build_family("c2nstar", 8)
        assert parse_graph_spec("ctilde:9") == build_family("ctilde", 9)

    def test_graph6_fallback(self):
        assert parse_graph_spec("Dhc") == build_family("cycle", 5)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValidationError):
            parse_graph_spec("clique:4")
