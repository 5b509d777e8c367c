import itertools
import random

import pytest

from heredit.crg import (
    CRG,
    EmbeddingWitness,
    canonical_form,
    crg_compact,
    crg_from_compact,
    crg_from_text,
    crg_to_text,
    embeds,
    enumerate_crgs,
    gray_crg,
    restrict,
    sub_crgs,
    swap_colors,
    validate_witness,
)
from heredit.errors import BudgetError, FormatError, ValidationError
from heredit.graphs import build_family, complement, parse_graph_spec
from oracle_utils import black_white_gray, burnside_crg_count, embeds_brute, random_graph


class TestGrayCrg:
    def test_k20(self):
        k = gray_crg(2, 0)
        assert k.vcolors == ("W", "W")
        assert k.ecolors == ("G",)

    def test_k01_single_black(self):
        assert gray_crg(0, 1) == CRG(("B",), ())

    def test_k12_all_gray(self):
        k = gray_crg(1, 2)
        assert sorted(k.vcolors) == ["B", "B", "W"]
        assert k.ecolors == ("G", "G", "G")

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            gray_crg(0, 0)


class TestSwapColors:
    def test_gray_crg_swaps_counts(self):
        assert canonical_form(swap_colors(gray_crg(2, 1))) == canonical_form(gray_crg(1, 2))

    def test_involution(self):
        for k in enumerate_crgs(3):
            assert swap_colors(swap_colors(k)) == k

    def test_black_pair_white_edge(self):
        k = CRG(("B", "B"), ("W",))
        assert swap_colors(k) == CRG(("W", "W"), ("B",))


class TestSubCrgs:
    def test_two_vertex_crg_has_two_singletons(self):
        subs = list(sub_crgs(gray_crg(1, 1)))
        assert sorted(s.vcolors for s in subs) == [("B",), ("W",)]

    def test_three_vertex_crg_has_six_subs(self):
        subs = list(sub_crgs(gray_crg(1, 2)))
        assert len(subs) == 6
        assert sum(1 for s in subs if s.m == 1) == 3
        assert sum(1 for s in subs if s.m == 2) == 3

    def test_k03_subs(self):
        subs = list(sub_crgs(gray_crg(0, 3)))
        assert all(s == gray_crg(0, s.m) for s in subs)

    def test_singleton_has_no_proper_subs(self):
        assert list(sub_crgs(gray_crg(1, 0))) == []


class TestEmbeds:
    def test_c8star_into_gray_crgs(self):
        c8s = build_family("c2nstar", 8)
        for (r, s), expect in [((3, 0), True), ((2, 1), True), ((2, 0), False),
                               ((1, 2), False), ((0, 3), False)]:
            found, witness = embeds(c8s, gray_crg(r, s))
            assert found == expect, (r, s)
            if found:
                assert validate_witness(c8s, gray_crg(r, s), witness)

    def test_p3_examples_cross_checked(self):
        p3 = build_family("path", 3)
        assert not embeds(p3, gray_crg(0, 1))[0]
        assert embeds(p3, gray_crg(0, 2))[0]
        assert embeds_brute(p3, gray_crg(0, 1)) is False
        assert embeds_brute(p3, gray_crg(0, 2)) is True

    def test_matches_brute_force_on_random_inputs(self):
        rng = random.Random(31)
        crgs = list(enumerate_crgs(3))
        for _ in range(60):
            h = random_graph(rng, rng.randrange(1, 5))
            k = rng.choice(crgs)
            found, witness = embeds(h, k)
            assert found == embeds_brute(h, k)
            if found:
                assert validate_witness(h, k, witness)

    def test_budget_error_is_explicit(self):
        with pytest.raises(BudgetError):
            embeds(build_family("c2nstar", 12), gray_crg(1, 3), budget=10)

    def test_size_caps(self):
        with pytest.raises(ValidationError):
            embeds(build_family("path", 17), gray_crg(1, 1))

    def test_monotone_under_sub_crgs(self):
        hs = [build_family("path", 5), build_family("cycle", 5), build_family("ctilde", 6)]
        for k in enumerate_crgs(3):
            up = [embeds(h, k)[0] for h in hs]
            for sub in sub_crgs(k):
                for h, embeds_in_k in zip(hs, up):
                    if embeds(h, sub)[0]:
                        assert embeds_in_k

    def test_swap_complement_duality(self):
        hs = [build_family("path", 5), build_family("cycle", 5), build_family("ctilde", 6)]
        for k in enumerate_crgs(3):
            for h in hs:
                assert embeds(h, k)[0] == embeds(complement(h), swap_colors(k))[0]

    def test_rejects_invalid_witness(self):
        p3 = build_family("path", 3)
        assert not validate_witness(p3, gray_crg(0, 2), EmbeddingWitness((0, 0, 0)))


class TestEnumeration:
    def test_class_counts_match_burnside(self):
        per_size = {m: 0 for m in range(1, 5)}
        for k in enumerate_crgs(4):
            per_size[k.m] += 1
        for m in range(1, 5):
            assert per_size[m] == burnside_crg_count(m)
        assert per_size[1] == 2
        assert per_size[2] == 9

    def test_restricted_counts_are_graph_counts(self):
        # all-black vertices with white/gray edges are exactly plain graphs
        per_size = {m: 0 for m in range(1, 6)}
        for k in enumerate_crgs(5, keep=black_white_gray):
            per_size[k.m] += 1
        assert [per_size[m] for m in range(1, 6)] == [1, 2, 4, 11, 34]

    def test_no_two_classes_isomorphic(self):
        classes = [k for k in enumerate_crgs(4) if k.m == 4]
        by_counts = {}
        for k in classes:
            key = (tuple(sorted(k.vcolors)), tuple(sorted(k.ecolors)))
            by_counts.setdefault(key, []).append(k)
        for group in by_counts.values():
            for a, b in itertools.combinations(group, 2):
                assert not _color_isomorphic(a, b)

    def test_deterministic_order(self):
        assert list(enumerate_crgs(3)) == list(enumerate_crgs(3))

    def test_filter_example(self):
        c8s = build_family("c2nstar", 8)
        kept = list(enumerate_crgs(3, keep=lambda k: not embeds(c8s, k)[0]))
        assert canonical_form(gray_crg(1, 2)) in kept
        assert canonical_form(gray_crg(0, 3)) in kept
        assert canonical_form(gray_crg(3, 0)) not in kept

    @pytest.mark.parametrize("spec", ["c2nstar:8", "cycle:4", "path:4"])
    def test_pruned_enumeration_equals_filtered(self, spec):
        # "does not admit h" is hereditary, so pruning the parents loses nothing
        h = parse_graph_spec(spec)

        def keep(k):
            return not embeds_brute(h, k)

        assert list(enumerate_crgs(4, keep=keep)) == [
            k for k in enumerate_crgs(4) if keep(k)
        ]

    def test_pruned_color_restriction_equals_filtered(self):
        assert list(enumerate_crgs(4, keep=black_white_gray)) == [
            k for k in enumerate_crgs(4) if black_white_gray(k)
        ]

    def test_canonical_form_is_class_invariant(self):
        rng = random.Random(41)
        for k in list(enumerate_crgs(3))[:20]:
            perm = list(range(k.m))
            rng.shuffle(perm)
            shuffled = CRG(
                tuple(k.vcolors[perm[i]] for i in range(k.m)),
                tuple(
                    k.edge_color(perm[i], perm[j])
                    for j in range(k.m)
                    for i in range(j)
                ),
            )
            assert canonical_form(shuffled) == canonical_form(k)

    def test_rejects_oversize(self):
        with pytest.raises(ValidationError):
            list(enumerate_crgs(6))


def _color_isomorphic(a: CRG, b: CRG) -> bool:
    if a.m != b.m:
        return False
    for perm in itertools.permutations(range(a.m)):
        if all(a.vcolors[v] == b.vcolors[perm[v]] for v in range(a.m)) and all(
            a.edge_color(i, j) == b.edge_color(perm[i], perm[j])
            for i in range(a.m)
            for j in range(i + 1, a.m)
        ):
            return True
    return False


class TestSerialization:
    def test_text_format_exact(self):
        k = CRG(("W", "B", "B"), ("G", "W", "B"))
        text = crg_to_text(k)
        assert text == "crg v1\nvertices: WBB\nGW\nB\n"
        assert crg_from_text(text) == k

    def test_text_roundtrip_all_small(self):
        for k in enumerate_crgs(4):
            text = crg_to_text(k)
            assert crg_to_text(crg_from_text(text)) == text

    def test_single_vertex_text(self):
        k = CRG(("B",), ())
        assert crg_to_text(k) == "crg v1\nvertices: B\n"
        assert crg_from_text(crg_to_text(k)) == k

    @pytest.mark.parametrize("bad", [
        "",
        "crg v2\nvertices: W\n",
        "crg v1\nvertices: X\n",
        "crg v1\nvertices: WB\nQ\n",
        "crg v1\nvertices: WB\n",
        "crg v1\nvertices: WB\nGG\n",
        "crg v1\nvertices: WBB\nGG\nG\nG\n",
    ])
    def test_rejects_malformed_text(self, bad):
        with pytest.raises(FormatError):
            crg_from_text(bad)

    def test_compact_roundtrip(self):
        for k in enumerate_crgs(3):
            assert crg_from_compact(crg_compact(k)) == k

    def test_compact_rejects_malformed(self):
        for bad in ["", "WB", "WB:QQ", "WB:GG", "X:"]:
            with pytest.raises(FormatError):
                crg_from_compact(bad)
