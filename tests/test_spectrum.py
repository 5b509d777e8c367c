from fractions import Fraction as F

import pytest

from heredit.errors import ValidationError
from heredit.gfun import closed_form_gray
from heredit.graphs import build_family
from heredit.spectrum import clique_spectrum, gamma


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
        spect = clique_spectrum(build_family("cycle", 7))
        assert all(r < spect.r_max and s < spect.s_max for r, s in spect.members)

    def test_small_bounds_widen_automatically(self):
        g = build_family("c2nstar", 8)
        spect = clique_spectrum(g, r_max=1, s_max=1)
        # (2, 0) is a member, so the box cannot stay at r_max=1
        assert (2, 0) in spect.members
        assert spect.r_max >= 3

    def test_rejects_empty_graph(self):
        from heredit.graphs import Graph

        with pytest.raises(ValidationError):
            clique_spectrum(Graph.from_edges(0, []))


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
