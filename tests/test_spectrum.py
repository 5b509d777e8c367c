import itertools
import random
from fractions import Fraction as F

import pytest

from heredit import spectrum
from heredit.errors import ValidationError
from heredit.gfun import closed_form_gray
from heredit.graphs import Graph, build_family, graph_from_graph6
from heredit.spectrum import clique_spectrum, gamma
from oracle_utils import clique_spectrum_widening, extreme_points_reference, random_graph


def _labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pq for i, pq in enumerate(pairs) if mask >> i & 1])


def _random_graphs(count, seed, orders=(6, 13)):
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(*orders), rng.random()) for _ in range(count)]


def _assert_matches_references(h, boxes=None):
    """The walk against the widening scan started from each box, and its
    extreme points against the pairwise reference."""
    spect = clique_spectrum(h)
    for r_max, s_max in boxes or ((None, None), (1, 1), (2, 5), (h.n + 2, 1)):
        assert spect == clique_spectrum_widening(h, r_max, s_max)
    assert spect.extreme_points() == extreme_points_reference(spect.members)


def _tested_pairs(monkeypatch):
    """The (r, s) of every K(r, s) that ``clique_spectrum`` tests, in order."""
    tested = []
    real = spectrum.embeds

    def counted(h, k, *args, **kwargs):
        tested.append((k.vcolors.count("W"), k.vcolors.count("B")))
        return real(h, k, *args, **kwargs)

    monkeypatch.setattr(spectrum, "embeds", counted)
    return tested


class TestMembership:
    def test_c8star_boundary_white_count(self):
        spect = clique_spectrum(build_family("c2nstar", 8))
        assert max(r for r, s in spect.members if s == 0) == 2

    def test_p6_points(self):
        spect = clique_spectrum(build_family("path", 6))
        assert (1, 1) in spect.members
        assert (1, 2) not in spect.members

    def test_ctilde9_points(self):
        spect = clique_spectrum(build_family("ctilde", 9))
        assert (0, 3) in spect.members
        assert (0, 4) not in spect.members

    def test_downward_closed(self):
        for family, n in (("c2nstar", 8), ("path", 7), ("ctilde", 9)):
            spect = clique_spectrum(build_family(family, n))
            for r, s in spect.members:
                for rr in range(r + 1):
                    for ss in range(s + 1):
                        if rr + ss >= 1:
                            assert (rr, ss) in spect.members

    def test_members_stay_inside_box(self):
        # the spectrum command's table, 0 <= r, s <= |V(H)|, holds every member
        h = build_family("cycle", 7)
        spect = clique_spectrum(h)
        assert spect.members and all(r + s < h.n for r, s in spect.members)

    @pytest.mark.parametrize(
        ("family", "n"),
        [("c2nstar", 8), ("path", 5), ("path", 7), ("cycle", 6), ("ctilde", 9)],
    )
    def test_one_pass_matches_widening_oracle(self, family, n):
        _assert_matches_references(build_family(family, n), (
            (None, None), (1, 1), (1, 2), (2, 1), (3, 4), (5, 5), (1, n + 2), (n + 2, 1),
        ))

    def test_walk_matches_widening_oracle_above_the_old_target_cap(self):
        # 14-16 vertices: the walk may test targets of 13-15 vertices
        graphs = _random_graphs(40, 29, (14, 16))
        graphs += [Graph.from_edges(n, []) for n in (14, 15, 16)]
        for h in graphs:
            _assert_matches_references(h, ((None, None),))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_walk_matches_widening_oracle_on_every_small_graph(self, n):
        for h in _labelled_graphs(n):
            _assert_matches_references(h)

    def test_walk_matches_widening_oracle_on_random_graphs(self):
        for h in _random_graphs(60, 7):
            _assert_matches_references(h)

    def test_rejects_empty_graph(self):
        from heredit.graphs import Graph

        with pytest.raises(ValidationError):
            clique_spectrum(Graph.from_edges(0, []))

    def test_rejects_graph_above_embedding_cap(self):
        # the walk never tests a target above |V(h)| - 1 vertices, so only
        # the pattern cap of embeds refuses a graph
        assert clique_spectrum(build_family("path", 14)).extreme_points() == ((1, 4), (0, 6))
        with pytest.raises(ValidationError) as exc:
            clique_spectrum(build_family("path", 17))
        assert str(exc.value) == "embedding pattern capped at 16 vertices"
        # the empty graph on 14 vertices needs 14 cliques, so the walk tests K(0, 13)
        empty = clique_spectrum(graph_from_graph6("M????????????????"))
        assert empty.extreme_points() == ((0, 13),)


class TestWalk:
    def test_c8star_tests_one_pair_per_step(self, monkeypatch):
        tested = _tested_pairs(monkeypatch)
        clique_spectrum(build_family("c2nstar", 8))
        # row 0 up to K(0, 4), then down the frontier 4, 3, 1, 0
        assert tested == [
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 2), (2, 2), (2, 1), (2, 0), (3, 0)
        ]

    def test_at_most_twice_the_order_tests_and_no_target_of_the_order(self, monkeypatch):
        tested = _tested_pairs(monkeypatch)
        graphs = [g for n in range(1, 6) for g in _labelled_graphs(n)] + _random_graphs(60, 11)
        graphs += _random_graphs(20, 13, (14, 16))
        for h in graphs:
            tested.clear()
            clique_spectrum(h)
            assert len(tested) <= 2 * h.n
            assert len(set(tested)) == len(tested)
            assert all(r + s < h.n for r, s in tested)

    @pytest.mark.parametrize("family", ["cycle", "path", "ctilde"])
    def test_families_at_the_pattern_cap(self, family, monkeypatch):
        tested = _tested_pairs(monkeypatch)
        h = build_family(family, 16)
        spect = clique_spectrum(h)
        assert len(tested) <= 2 * h.n
        assert max(r + s for r, s in tested) <= 8
        assert spect.extreme_points() == extreme_points_reference(spect.members)


class TestExtremePoints:
    def test_c8star(self):
        spect = clique_spectrum(build_family("c2nstar", 8))
        assert spect.extreme_points() == ((2, 0), (1, 2), (0, 3))

    def test_p7(self):
        spect = clique_spectrum(build_family("path", 7))
        assert spect.extreme_points() == ((1, 1), (0, 3))

    def test_ctilde10(self):
        spect = clique_spectrum(build_family("ctilde", 10))
        assert spect.extreme_points() == ((2, 0), (1, 2), (0, 4))

    def test_boundary_profile_matches_members(self):
        spect = clique_spectrum(build_family("path", 8))
        profile = dict(spect.boundary_profile())
        for r, s in spect.members:
            assert profile[r] >= s
        for r, s in profile.items():
            assert (r, s) in spect.members


class TestGamma:
    def test_c8star_values(self):
        g = build_family("c2nstar", 8)
        assert gamma(g, F(1, 3)) == F(1, 6)
        assert gamma(g, F(1, 2)) == F(1, 6)

    def test_endpoints(self):
        g = build_family("path", 6)
        assert gamma(g, F(0)) == 0
        assert gamma(g, F(1)) == 0  # some extreme point has s >= 1

    def test_extreme_point_minimum_equals_full_minimum(self):
        for family, n in (("c2nstar", 8), ("path", 7), ("ctilde", 9)):
            h = build_family(family, n)
            spect = clique_spectrum(h)
            for num in range(0, 9):
                p = F(num, 8)
                brute = min(closed_form_gray(r, s, p) for r, s in spect.members)
                assert gamma(h, p, spectrum=spect) == brute

    def test_midpoint_concavity(self):
        h = build_family("path", 5)
        spect = clique_spectrum(h)
        values = {p: gamma(h, p, spectrum=spect) for p in (F(k, 16) for k in range(17))}
        points = sorted(values)
        for i, p1 in enumerate(points):
            for p3 in points[i + 2 :]:
                mid = (p1 + p3) / 2
                if mid in values:
                    assert 2 * values[mid] >= values[p1] + values[p3]
