import functools
import math
from fractions import Fraction as F

import pytest

from heredit import curves, gfun
from heredit.crg import (
    canonical_form,
    crg_compact,
    embeds,
    enumerate_crgs,
    gray_crg,
    swap_colors,
)
from heredit.curves import (
    bounded_min_g,
    closed_form_curve,
    core_curve,
    core_min_g,
    curve_scan,
    family_graph,
    gamma_curve,
    search_curve,
    valid_interval,
)
from heredit.errors import RangeError, ValidationError
from heredit.gfun import core_regime, core_structured
from heredit.graphs import Graph, build_family, complement, parse_graph_spec
from heredit.rationals import parse_grid
from heredit.spectrum import clique_spectrum

from oracle_utils import bounded_min_g_reference

GRID16 = parse_grid("1/16")


def curve_values(curve):
    return [v for _, v in curve.samples]


class TestClosedFormCurve:
    def test_c8star_midpoint(self):
        curve = closed_form_curve("c8star", 8, [F(1, 2)])
        assert curve.samples == ((F(1, 2), F(1, 6)),)

    def test_path5_midpoint(self):
        curve = closed_form_curve("path", 5, [F(1, 2)])
        assert curve.samples == ((F(1, 2), F(1, 4)),)

    def test_ctilde9_midpoint(self):
        curve = closed_form_curve("ctilde", 9, [F(1, 2)])
        assert curve.samples == ((F(1, 2), F(1, 6)),)

    def test_cycle_parities(self):
        # odd cycles carry the extra p/2 term and are stated on all of [0,1]
        odd = closed_form_curve("cycle", 9, [F(1, 16)])
        assert odd.samples == ((F(1, 16), F(1, 32)),)  # p/2 is the active term
        assert valid_interval("cycle", 7) == (F(0), F(1))
        # even cycles are stated only from 1/ceil(n/3)
        assert valid_interval("cycle", 8) == (F(1, 3), F(1))
        even = closed_form_curve("cycle", 8, [p for p in GRID16 if p >= F(1, 3)])
        assert all(0 <= v <= 1 for v in curve_values(even))

    def test_tail_is_linear_term(self):
        # on [1/2, 1] each curve equals (1-p)/c for its family constant
        cases = [
            ("c8star", 8, 3),
            ("ctilde", 9, 3),
            ("ctilde", 11, 4),
            ("path", 7, 3),
            ("cycle", 9, 4),
            ("cycle", 8, 3),
        ]
        for family, n, c in cases:
            points = [p for p in GRID16 if p >= F(1, 2)]
            curve = closed_form_curve(family, n, points)
            for p, value in curve.samples:
                assert value == (1 - p) / c, (family, n, p)

    def test_out_of_interval_points_are_refused(self):
        with pytest.raises(RangeError):
            closed_form_curve("path", 7, [F(1, 4)])
        with pytest.raises(RangeError):
            closed_form_curve("cycle", 8, [F(1, 8)])

    def test_rejects_bad_family_or_order(self):
        with pytest.raises(ValidationError):
            closed_form_curve("c8star", 10, [F(1, 2)])
        with pytest.raises(ValidationError):
            closed_form_curve("ctilde", 8, [F(1, 2)])

    def test_lipschitz_bound_on_dense_grid(self):
        grid = parse_grid("1/64")
        for family, n in (("c8star", 8), ("ctilde", 9)):
            curve = closed_form_curve(family, n, grid)
            for (p1, v1), (p2, v2) in zip(curve.samples, curve.samples[1:]):
                assert abs(v2 - v1) <= 2 * (p2 - p1)


class TestEqualityOfSources:
    def test_c8star_three_way_on_coarse_grid(self):
        h = family_graph("c8star", 8)
        assert curve_values(closed_form_curve("c8star", 8, GRID16)) == \
            curve_values(gamma_curve(h, GRID16)) == \
            curve_values(search_curve(h, 3, GRID16))

    def test_p7_three_way_on_upper_half(self):
        h = family_graph("path", 7)
        points = [p for p in GRID16 if p >= F(1, 2)]
        assert curve_values(closed_form_curve("path", 7, points)) == \
            curve_values(gamma_curve(h, points)) == \
            curve_values(search_curve(h, 3, points))


class TestBoundedMinG:
    def test_c8star_examples(self):
        h = build_family("c2nstar", 8)
        low = bounded_min_g(h, 3, F(1, 3))
        assert low.value == F(1, 6)
        compact = [crg_compact(k) for k in low.witnesses]
        assert crg_compact(canonical_form(gray_crg(2, 0))) in compact
        assert crg_compact(canonical_form(gray_crg(1, 2))) in compact
        high = bounded_min_g(h, 3, F(3, 4))
        assert high.value == F(1, 12)
        assert [crg_compact(k) for k in high.witnesses] == [
            crg_compact(canonical_form(gray_crg(0, 3)))
        ]

    def test_p5_small_bound(self):
        assert bounded_min_g(build_family("path", 5), 2, F(1, 2)).value == F(1, 4)

    def test_pattern_admitted_everywhere_is_refused(self):
        # one vertex embeds in every CRG, so no class is left to minimize over
        single = Graph.from_edges(1, [])
        with pytest.raises(ValidationError, match="every CRG class admits"):
            bounded_min_g(single, 2, F(1, 2))
        with pytest.raises(ValidationError, match="every CRG class admits"):
            search_curve(single, 2, [F(0), F(1)])

    def test_antitone_in_m_and_below_gamma(self):
        h = build_family("c2nstar", 8)
        spect = clique_spectrum(h)
        from heredit.spectrum import gamma

        for p in (F(1, 8), F(1, 3), F(5, 8)):
            values = [bounded_min_g(h, m, p).value for m in (1, 2, 3, 4)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert values[2] <= gamma(h, p, spectrum=spect)

    def test_witnesses_attain_value(self):
        h = build_family("ctilde", 9)
        res = bounded_min_g(h, 3, F(2, 5))
        from heredit.gfun import g_value

        for k in res.witnesses:
            assert g_value(k, F(2, 5)).value == res.value

    def test_size_gate(self):
        h = build_family("path", 5)
        # m = 5 runs: the enumeration cap is the only size bound
        assert bounded_min_g(h, 5, F(1, 2)).value == F(1, 4)
        for m in (0, 6):
            with pytest.raises(ValidationError):
                bounded_min_g(h, m, F(1, 2))


@functools.cache
def _h_free_classes(h, m):
    return tuple(enumerate_crgs(m, keep=lambda k: not embeds(h, k)[0]))


@functools.cache
def _reference(h, m, p):
    """``bounded_min_g_reference`` over the classes on at most m vertices
    that do not admit h.  Cached: ``TestCoreSearch`` and ``TestCoreMinG``
    compare against the same references."""
    return bounded_min_g_reference(_h_free_classes(h, m), p)


class TestCoreSearch:
    """The staged search against the loop that solves every class: whole
    ``SearchResult``s, value and witnesses in order, for one point at a
    time (``bounded_min_g``) and for the whole grid at once
    (``search_curve``, which grows from every point's attaining cores)."""

    @staticmethod
    def assert_matches_reference(h, m, points, one_point):
        """``search_curve`` over ``points`` and ``bounded_min_g`` at each of
        ``one_point`` against the reference."""
        expected = {p: _reference(h, m, p) for p in points}
        curve = search_curve(h, m, points)
        assert curve.samples == tuple((p, expected[p].value) for p in points), m
        assert curve.witnesses == tuple(
            tuple(crg_compact(k) for k in expected[p].witnesses) for p in points
        ), m
        for p in one_point:
            assert bounded_min_g(h, m, p) == expected[p], (m, p)

    @pytest.mark.parametrize("name", ["cycle:4", "path:4"])
    def test_every_point_of_1_64_up_to_m4(self, name):
        h = parse_graph_spec(name)
        grid = parse_grid("1/64")
        for m in (1, 2, 3, 4):
            # one point at a time on every point up to m = 3, on 1/8 at m = 4
            self.assert_matches_reference(h, m, grid, grid if m < 4 else grid[::8])

    def test_c8star_m4_on_1_16(self):
        self.assert_matches_reference(build_family("c2nstar", 8), 4, GRID16, GRID16[::4])

    def test_cycle4_m5_at_three_points(self):
        points = [F(1, 3), F(1, 2), F(45, 64)]
        self.assert_matches_reference(build_family("cycle", 4), 5, points, points)

    def test_solves_only_core_structured_classes(self, monkeypatch):
        """One support solve per regime core and point, on the core's full
        support, and none in the growth pass: 89 on p = k/4, where solving
        ``g_value`` on every core took 759."""
        h = build_family("c2nstar", 8)
        classes = _h_free_classes(h, 4)
        assert len(classes) == 651
        grid = parse_grid("1/4")
        solved = []
        real = gfun._solve_support

        def counted(n, support):
            solved.append((n, support))
            return real(n, support)

        monkeypatch.setattr(gfun, "_solve_support", counted)
        search_curve(h, 4, grid)
        assert solved == [
            (gfun._scaled_matrix(k, p)[1], tuple(range(k.m)))
            for p in grid
            for k in classes
            if core_structured(k, core_regime(p))
        ]
        assert len(solved) == 89

    @pytest.mark.parametrize("name", ["c2nstar:8", "cycle:4", "path:4"])
    def test_duality(self, name):
        """g_K(p) = g_swap(K)(1 - p), and H embeds in K exactly when the
        complement of H embeds in swap(K), so the search for H at p and the
        search for the complement at 1 - p agree up to ``swap_colors``."""
        h = parse_graph_spec(name)
        co_h = complement(h)
        points = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]
        for m in (1, 2, 3, 4):
            for p in points:
                res = bounded_min_g(h, m, p)
                co_res = bounded_min_g(co_h, m, 1 - p)
                assert res.value == co_res.value, (m, p)
                swapped = {canonical_form(swap_colors(k)) for k in res.witnesses}
                assert swapped == set(co_res.witnesses), (m, p)
                assert len(co_res.witnesses) == len(res.witnesses)


class TestCoreMinG:
    """The core pass alone against the loop that solves every class: the
    value, and as witnesses the reference's attaining classes that are
    core-structured at p, in the same order."""

    @staticmethod
    def assert_matches_reference(h, m, points):
        for p, res in zip(points, core_min_g(h, m, points), strict=True):
            expected = _reference(h, m, p)
            assert res.value == expected.value, (m, p)
            regime = core_regime(p)
            assert res.witnesses == tuple(
                k for k in expected.witnesses if core_structured(k, regime)
            ), (m, p)

    @pytest.mark.parametrize("name", ["c2nstar:8", "path:4", "cycle:4"])
    def test_every_point_of_1_64_up_to_m4(self, name):
        h = parse_graph_spec(name)
        for m in (1, 2, 3, 4):
            self.assert_matches_reference(h, m, parse_grid("1/64"))

    def test_cycle4_m5_at_three_points(self):
        self.assert_matches_reference(
            build_family("cycle", 4), 5, [F(1, 3), F(1, 2), F(45, 64)]
        )

    @pytest.mark.parametrize("name", ["c2nstar:8", "ctilde:9", "path:7"])
    def test_paper_families_m5_on_1_16(self, name):
        """The whole ``SearchResult``s at m = 5 against one ``g_value`` per
        core of the point's regime."""
        h = parse_graph_spec(name)
        cores = {
            r: tuple(enumerate_crgs(
                5, keep=lambda k: core_structured(k, r) and not embeds(h, k)[0]
            ))
            for r in range(3)
        }
        assert core_min_g(h, 5, GRID16) == [
            bounded_min_g_reference(cores[core_regime(p)], p) for p in GRID16
        ]

    def test_no_core_is_refused(self):
        # path:1 embeds in every CRG, so no class is left to solve
        h = build_family("path", 1)
        for run in (core_min_g, search_curve):
            with pytest.raises(ValidationError, match="every CRG class admits"):
                run(h, 3, [F(1, 2)])

    def test_core_curve_has_the_search_values(self):
        h = build_family("c2nstar", 8)
        curve = core_curve(h, 3, GRID16)
        assert curve.samples == search_curve(h, 3, GRID16).samples
        assert curve.witnesses == tuple(
            tuple(crg_compact(k) for k in res.witnesses) for res in core_min_g(h, 3, GRID16)
        )


class TestOneEnumerationPerCall:
    def test_search_curve_enumerates_once(self, monkeypatch):
        """One core pass and one growth pass per call, whatever the grid."""
        calls = []
        real = curves.enumerate_crgs

        def counted(*args, **kwargs):
            calls.append((args, "roots" in kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(curves, "enumerate_crgs", counted)
        h = build_family("c2nstar", 8)
        grid = parse_grid("1/4")
        assert len(grid) == 5
        passes = [((3,), False), ((3,), True)]
        first = search_curve(h, 3, grid)
        assert calls == passes
        # nothing is kept between calls: a repeat enumerates again
        assert search_curve(h, 3, grid) == first
        assert calls == passes * 2
        # a direct call enumerates for itself and agrees point by point
        for (p, value), wits in zip(first.samples, first.witnesses):
            res = bounded_min_g(h, 3, p)
            assert res.value == value
            assert tuple(crg_compact(k) for k in res.witnesses) == wits
        assert calls == passes * 7

    def test_empty_grid_still_checks_m(self):
        with pytest.raises(ValidationError):
            search_curve(build_family("path", 5), 6, [])


class TestSieveWork:
    def test_search_m5_counts(self, monkeypatch):
        """The ``search-m5`` job (cycle:4, m = 5, p = 45/64) in process.
        Without ``enumerate_crgs``'s three-vertex sieve it canonicalized
        8,043 children and ran ``embeds`` 4,777 times; extending each parent
        by every block, not only the twin-sorted ones, made 1,548 keys."""
        from heredit import crg

        keys, tested = [0], []
        real_key, real_embeds = crg._canonical_key, curves.embeds

        def counted_key(rows):
            keys[0] += 1
            return real_key(rows)

        def counted_embeds(h, k, *args):
            tested.append(k)
            return real_embeds(h, k, *args)

        monkeypatch.setattr(crg, "_canonical_key", counted_key)
        monkeypatch.setattr(curves, "embeds", counted_embeds)
        result = bounded_min_g(parse_graph_spec("cycle:4"), 5, F(45, 64))
        assert (result.value, len(result.witnesses)) == (F(855, 4096), 396)
        assert keys[0] == 1_358
        assert len(tested) == 446
        # two passes, each asking keep at most once per three-vertex class
        triples = [canonical_form(k) for k in tested if k.m == 3]
        assert max(triples.count(k) for k in triples) <= 2


class TestCurveScan:
    def test_c8star_peak_brackets_known_maximum(self):
        curve = closed_form_curve("c8star", 8, parse_grid("1/128"))
        analysis = curve_scan(curve)
        assert abs(float(analysis.d_star) - (3 - 2 * math.sqrt(2))) <= 1e-3
        assert abs(float(analysis.p_star) - (math.sqrt(2) - 1)) <= 1 / 128
        assert analysis.concavity_violations == ()

    def test_gamma_curve_concave(self):
        h = build_family("path", 5)
        curve = gamma_curve(h, parse_grid("1/64"))
        assert curve_scan(curve).concavity_violations == ()

    def test_constant_zero_curve(self):
        from heredit.curves import Curve

        samples = tuple((p, F(0)) for p in (F(0), F(1, 2), F(1)))
        curve = Curve(samples, "closed_form", ((),) * 3)
        analysis = curve_scan(curve)
        assert analysis.d_star == 0
        assert analysis.p_star == F(0)  # leftmost argmax on ties

    def test_needs_three_points(self):
        curve = closed_form_curve("c8star", 8, [F(0), F(1)])
        with pytest.raises(ValidationError):
            curve_scan(curve)

    def test_detects_violations(self):
        from heredit.curves import Curve

        samples = ((F(0), F(0)), (F(1, 2), F(0)), (F(1), F(1)))
        curve = Curve(samples, "closed_form", ((),) * 3)
        assert curve_scan(curve).concavity_violations == ((F(0), F(1, 2), F(1)),)
