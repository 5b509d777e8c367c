"""Structural property suites over enumerated CRGs.

These check, at exhaustive small scale, the structure forced on all-black
white/gray-edged CRGs that avoid a family graph: forbidden gray cycle
lengths for the chorded cycles, forbidden gray path orders for paths, and
the degree/codegree bounds that hold for any hypothetical CRG beating the
gamma bound (expected to hold vacuously: no such CRG exists).
"""

import itertools
from fractions import Fraction as F

from heredit.crg import embeds, enumerate_crgs
from heredit.gfun import g_value, is_p_core, weight_stats
from heredit.graphs import build_family, path_cycle_profile
from heredit.spectrum import clique_spectrum, gamma
from oracle_utils import black_white_gray


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def black_wg_crgs(max_size: int):
    return enumerate_crgs(max_size, keep=black_white_gray)


class TestGrayCycleSuite:
    def test_avoiding_ctilde_forbids_midrange_gray_cycles(self):
        # an all-black W/G CRG without the chorded n-cycle has no gray cycle
        # of length between ceil((n-1)/2) and n-1
        for n in (9, 10):
            h = build_family("ctilde", n)
            banned = set(range(_ceil_div(n - 1, 2), n))
            for k in black_wg_crgs(5):
                if embeds(h, k)[0]:
                    continue
                profile = path_cycle_profile(k.gray_subgraph())
                assert not (profile.cycle_lengths & banned), (n, k)

    def test_gray_cycle_in_range_forces_embedding(self):
        # contrapositive spot check: a gray cycle of a banned length embeds
        # the chorded cycle around it
        h = build_family("ctilde", 9)
        hits = 0
        for k in black_wg_crgs(5):
            profile = path_cycle_profile(k.gray_subgraph())
            if profile.cycle_lengths & {4, 5}:
                hits += 1
                assert embeds(h, k)[0]
        assert hits > 5


class TestGrayPathSuite:
    def test_avoiding_path_bounds_gray_paths(self):
        # an all-black W/G CRG without P_n has no gray path on ceil(n/2)
        # or more vertices
        for n in (9, 10):
            h = build_family("path", n)
            cap = _ceil_div(n, 2)
            for k in black_wg_crgs(5):
                if embeds(h, k)[0]:
                    continue
                profile = path_cycle_profile(k.gray_subgraph())
                assert profile.longest_path_order < cap, (n, k)

    def test_long_gray_path_forces_embedding(self):
        h = build_family("path", 9)
        hits = 0
        for k in black_wg_crgs(5):
            if path_cycle_profile(k.gray_subgraph()).longest_path_order >= 5:
                hits += 1
                assert embeds(h, k)[0]
        assert hits > 5


class TestDegreeBoundSuite:
    def test_beating_gamma_forces_gray_degrees(self):
        # any p-core all-black W/G CRG with g below gamma would need large
        # gray degrees and positive codegrees; at this scale the premise
        # never holds, and the implication is checked rather than assumed
        for family, n in (("ctilde", 9), ("path", 9)):
            h = build_family(family, n)
            spect = clique_spectrum(h)
            third = _ceil_div(n - 1, 3)
            premise_hits = 0
            for k in black_wg_crgs(4):
                if embeds(h, k)[0]:
                    continue
                for num in range(4, 8):
                    p = F(num, 16)
                    if p < F(1, third):
                        continue
                    if not is_p_core(k, p):
                        continue
                    res = g_value(k, p)
                    if res.value >= gamma(h, p, spectrum=spect):
                        continue
                    premise_hits += 1
                    stats = weight_stats(k, res)
                    for v in range(k.m):
                        assert stats.vertices[v].gray_degree >= third
                    for v, w in itertools.combinations(range(k.m), 2):
                        assert stats.gray_codegree_count[(v, w)] >= 1
            assert premise_hits == 0  # the published bound is never beaten


class TestTriangleBoundSuite:
    def test_no_gray_triangle_bounds_g(self):
        ps = [F(num, 16) for num in range(1, 8)]
        for k in black_wg_crgs(4):
            gray = k.gray_subgraph()
            if 3 in path_cycle_profile(gray).cycle_lengths:
                continue
            for p in ps:
                assert g_value(k, p).value > p / 2

    def test_triangle_without_c4plus_bounds_g(self):
        ps = [F(num, 16) for num in range(1, 8)]
        for k in black_wg_crgs(4):
            profile = path_cycle_profile(k.gray_subgraph())
            if 3 not in profile.cycle_lengths:
                continue
            if _has_gray_c4plus(k):
                continue
            for p in ps:
                assert g_value(k, p).value >= min(2 * p / 3, (1 - p) / 3)


def _has_gray_c4plus(k) -> bool:
    """Four vertices spanning at least five gray pairs."""
    for quad in itertools.combinations(range(k.m), 4):
        grays = sum(
            1 for a, b in itertools.combinations(quad, 2) if k.edge_color(a, b) == "G"
        )
        if grays >= 5:
            return True
    return False
