"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; most comparisons are
exact rational equality.
"""

import itertools
import math
import time
from fractions import Fraction as F

from heredit.crg import embeds, enumerate_crgs, gray_crg, sub_crgs, swap_colors
from heredit.curves import (
    bounded_min_g,
    closed_form_curve,
    curve_scan,
    family_graph,
    gamma_curve,
    search_curve,
)
from heredit.editing import edit_distance
from heredit.gfun import closed_form_gray, g_value, is_p_core, weight_stats
from heredit.graphs import Graph, build_family, has_induced, path_cycle_profile
from heredit.rationals import parse_grid
from heredit.spectrum import clique_spectrum, gamma
from oracle_utils import bfs_edit_distance, black_white_gray


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _report(number: int, name: str, started: float, budget_s: float, ok: bool, detail: str = ""):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s / budget {budget_s:.0f}s) {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s:.0f}s budget"


def test_criterion_1_spectrum_reproduction():
    started = time.time()
    cases = []
    for order in (8, 12):
        n = order // 2
        cases.append((
            "c2nstar", order,
            {(2, 0), (1, _ceil_div(2 * n - 1, 3) - 1), (0, n - 1)},
        ))
    for n in (9, 10, 11, 12):
        cases.append((
            "ctilde", n,
            {(2, 0), (1, _ceil_div(n - 1, 3) - 1), (0, _ceil_div(n - 3, 2))},
        ))
    for n in range(5, 11):
        cases.append((
            "path", n,
            {(1, _ceil_div(n - 1, 3) - 1), (0, _ceil_div(n, 2) - 1)},
        ))
    failures = []
    for family, n, expected in cases:
        points = set(clique_spectrum(build_family(family, n)).extreme_points())
        if points != expected:
            failures.append((family, n, points, expected))
    _report(1, "spectrum extreme points", started, 120, not failures, str(failures))


def test_criterion_2_qp_matches_closed_form():
    started = time.time()
    mismatches = 0
    for r in range(0, 7):
        for s in range(0, 7 - r):
            if r + s < 1:
                continue
            k = gray_crg(r, s)
            for num in range(0, 17):
                p = F(num, 16)
                if g_value(k, p).value != closed_form_gray(r, s, p):
                    mismatches += 1
    _report(2, "g_value equals gray closed form (r+s<=6)", started, 60,
            mismatches == 0, f"{mismatches} mismatches")


def test_criterion_3_c8star_end_to_end():
    started = time.time()
    grid = parse_grid("1/64")
    h = family_graph("c8star", 8)
    closed = [v for _, v in closed_form_curve("c8star", 8, grid).samples]
    gam = [v for _, v in gamma_curve(h, grid).samples]
    sea = [v for _, v in search_curve(h, 3, grid).samples]
    ok = closed == gam == sea
    _report(3, "c8star closed form = gamma = search(m=3) on {k/64}", started, 300, ok)


def test_criterion_4_ctilde_and_path_end_to_end():
    started = time.time()
    grid = parse_grid("1/64")
    h9 = family_graph("ctilde", 9)
    closed = [v for _, v in closed_form_curve("ctilde", 9, grid).samples]
    gam = [v for _, v in gamma_curve(h9, grid).samples]
    sea = [v for _, v in search_curve(h9, 3, grid).samples]
    ok_ctilde = closed == gam == sea

    upper = [p for p in grid if p >= F(1, 2)]
    h7 = family_graph("path", 7)
    closed = [v for _, v in closed_form_curve("path", 7, upper).samples]
    gam = [v for _, v in gamma_curve(h7, upper).samples]
    sea = [v for _, v in search_curve(h7, 3, upper).samples]
    ok_path = closed == gam == sea
    _report(4, "ctilde:9 and path:7 three-way equality (m=3)", started, 300,
            ok_ctilde and ok_path, f"ctilde={ok_ctilde} path={ok_path}")


def test_criterion_5_curve_analysis():
    started = time.time()
    curve = closed_form_curve("c8star", 8, parse_grid("1/128"))
    analysis = curve_scan(curve)
    d_err = abs(float(analysis.d_star) - (3 - 2 * math.sqrt(2)))
    p_err = abs(float(analysis.p_star) - (math.sqrt(2) - 1))
    ok = d_err <= 1e-3 and p_err <= 1 / 128 and not analysis.concavity_violations
    _report(5, "c8star peak location and value", started, 60, ok,
            f"d_err={d_err:.2e} p_err={p_err:.2e}")


def test_criterion_6_pcore_structure_suite():
    started = time.time()
    crgs = list(enumerate_crgs(4))
    violations = []

    low, high = F(1, 3), F(2, 3)
    for k in crgs:
        if is_p_core(k, low):
            for i in range(k.m):
                for j in range(i + 1, k.m):
                    color = k.edge_color(i, j)
                    if color == "B" or (color == "W" and "W" in (k.vcolors[i], k.vcolors[j])):
                        violations.append(("structure-low", k))
            res = g_value(k, low)
            stats = weight_stats(k, res)
            g = res.value
            for v in range(k.m):
                x = res.weights[v]
                if k.vcolors[v] == "W":
                    if x != g / low:
                        violations.append(("white-weight", k, v))
                else:
                    if x > g / (1 - low):
                        violations.append(("black-weight-bound", k, v))
                    expected = (low - g) / low + (1 - 2 * low) / low * x
                    if stats.vertices[v].gray_weight != expected:
                        violations.append(("black-gray-degree", k, v))
        if is_p_core(k, high):
            for i in range(k.m):
                for j in range(i + 1, k.m):
                    color = k.edge_color(i, j)
                    if color == "W" or (color == "B" and "B" in (k.vcolors[i], k.vcolors[j])):
                        violations.append(("structure-high", k))
    _report(6, "p-core structure and weight identities (m<=4)", started, 600,
            not violations, f"{len(violations)} violations")


def test_criterion_7_triangle_free_bound_suite():
    started = time.time()
    ps = [F(num, 16) for num in range(1, 8)]
    checked_a = checked_b = 0
    violations = []
    for k in enumerate_crgs(5, keep=black_white_gray):
        profile = path_cycle_profile(k.gray_subgraph())
        has_triangle = 3 in profile.cycle_lengths
        if not has_triangle:
            checked_a += 1
            for p in ps:
                if not g_value(k, p).value > p / 2:
                    violations.append(("a", k, p))
        elif not _has_gray_c4plus(k):
            checked_b += 1
            for p in ps:
                if not g_value(k, p).value >= min(2 * p / 3, (1 - p) / 3):
                    violations.append(("b", k, p))
    ok = not violations and checked_a > 0 and checked_b > 0
    _report(7, "triangle-free gray bounds (all-black W/G, m<=5)", started, 1800,
            ok, f"checked a={checked_a} b={checked_b}, {len(violations)} violations")


def _has_gray_c4plus(k) -> bool:
    for quad in itertools.combinations(range(k.m), 4):
        grays = sum(
            1 for a, b in itertools.combinations(quad, 2) if k.edge_color(a, b) == "G"
        )
        if grays >= 5:
            return True
    return False


def test_criterion_8_oracle_suite():
    started = time.time()
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    p3 = build_family("path", 3)
    c8 = build_family("cycle", 8)
    cases = [
        (k4, p3, 0),
        (build_family("cycle", 5), p3, 3),
        (c8, c8, 1),
    ]
    ok = True
    details = []
    for g, pattern, expected in cases:
        res = edit_distance(g, pattern)
        sound = (
            res.edits == expected
            and not has_induced(res.witness, pattern)[0]
            and _symmetric_difference(g, res.witness) == res.edits
        )
        if g.n <= 6:
            sound = sound and bfs_edit_distance(g, pattern) == expected
        ok = ok and sound
        details.append(f"{res.edits}")
    _report(8, "edit oracle examples + BFS cross-check", started, 60, ok,
            "edits=" + ",".join(details))


def _symmetric_difference(a: Graph, b: Graph) -> int:
    return sum((ra ^ rb).bit_count() for ra, rb in zip(a.adj, b.adj)) // 2


def test_criterion_9_invariant_batteries():
    started = time.time()
    violations = []
    crgs4 = list(enumerate_crgs(4))
    ps8 = [F(num, 8) for num in range(0, 9)]

    # battery 1: embedding monotone under sub-CRGs
    patterns = [build_family("path", 5), build_family("cycle", 5), build_family("ctilde", 6)]
    emb_cache: dict = {}

    def emb(h, k):
        key = (id(h), k)
        if key not in emb_cache:
            emb_cache[key] = embeds(h, k)[0]
        return emb_cache[key]

    for k in crgs4:
        for h in patterns:
            in_k = emb(h, k)
            if in_k:
                continue
            for sub in sub_crgs(k):
                if emb(h, sub):
                    violations.append(("embed-monotone", h.n, k))

    # battery 2: swap-color duality of g
    for k in crgs4:
        for p in ps8:
            if g_value(swap_colors(k), 1 - p).value != g_value(k, p).value:
                violations.append(("swap-duality", k, p))

    # battery 3: spectrum downward closure
    for family, n in (("c2nstar", 8), ("ctilde", 9), ("path", 7)):
        spect = clique_spectrum(build_family(family, n))
        for r, s in spect.members:
            for rr in range(r + 1):
                for ss in range(s + 1):
                    if rr + ss >= 1 and (rr, ss) not in spect.members:
                        violations.append(("downward-closure", family, n, (rr, ss)))

    # battery 4: gamma midpoint concavity on {k/64}
    grid = parse_grid("1/64")
    for family, n in (("c2nstar", 8), ("ctilde", 9), ("path", 7)):
        h = build_family(family, n)
        spect = clique_spectrum(h)
        values = {p: gamma(h, p, spectrum=spect) for p in grid}
        points = sorted(values)
        for i, p1 in enumerate(points):
            for p3 in points[i + 2 :]:
                mid = (p1 + p3) / 2
                if mid in values and 2 * values[mid] < values[p1] + values[p3]:
                    violations.append(("gamma-concavity", family, n, (p1, mid, p3)))

    # battery 5: bounded search antitone in m (and never above gamma once
    # the extreme CRGs fit)
    h = family_graph("c8star", 8)
    spect = clique_spectrum(h)
    for p in (F(1, 8), F(1, 3), F(1, 2), F(3, 4)):
        values = [bounded_min_g(h, m, p).value for m in (1, 2, 3, 4)]
        if any(a < b for a, b in zip(values, values[1:])):
            violations.append(("antitone", p, values))
        if values[2] > gamma(h, p, spectrum=spect):
            violations.append(("search-above-gamma", p))

    _report(9, "invariant batteries", started, 600, not violations,
            f"{len(violations)} violations")
