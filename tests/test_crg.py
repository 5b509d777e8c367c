import functools
import itertools
import random
from fractions import Fraction

import pytest

from heredit.crg import (
    CRG,
    DEFAULT_EMBED_BUDGET,
    EDGE_COLORS,
    VERTEX_COLORS,
    EmbeddingWitness,
    _canonical_key,
    _color_rows,
    _equiv_classes,
    _refined_cells,
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
from heredit.gfun import core_regime, core_structured, g_value
from heredit.graphs import build_family, complement, parse_graph_spec
from heredit.limits import MAX_EMBED_CRG, MAX_EMBED_PATTERN
from oracle_utils import (
    _refined_cells_reference,
    black_white_gray,
    burnside_crg_count,
    canonical_form_reference,
    canonical_key_brute,
    embeds_brute,
    embeds_reference,
    enumerate_crgs_reference,
    equiv_classes_reference,
    random_graph,
)


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
        with pytest.raises(BudgetError) as exc:
            embeds(build_family("c2nstar", 12), gray_crg(1, 3), budget=10)
        assert "at pattern step 4 of 12" in str(exc.value)

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


def _random_crgs(seed: int) -> list[CRG]:
    """Six seeded random CRGs on each of 4..7 vertices."""
    rng = random.Random(seed)
    return [
        CRG(
            tuple(rng.choice(VERTEX_COLORS) for _ in range(m)),
            tuple(rng.choice(EDGE_COLORS) for _ in range(m * (m - 1) // 2)),
        )
        for m in range(4, 8)
        for _ in range(6)
    ]


@functools.cache
def _twin_targets() -> list[CRG]:
    """Every 40th class on 5 vertices, and every K(r, s) up to
    ``MAX_EMBED_CRG`` vertices with its vertices shuffled, so that twin
    classes are not runs of consecutive vertices."""
    rng = random.Random(31)
    targets = [k for k in _classes_with_parents(5)[0] if k.m == 5][::40]
    for r, s in itertools.product(range(MAX_EMBED_CRG + 1), repeat=2):
        if 1 <= r + s <= MAX_EMBED_CRG:
            perm = list(range(r + s))
            rng.shuffle(perm)
            targets.append(_relabel(gray_crg(r, s), perm))
    return targets


def _embed_outcome(embed, h, k, budget):
    """``(found, witness)``, or the ``BudgetError`` message."""
    try:
        return embed(h, k, budget)
    except BudgetError as exc:
        return str(exc)


class TestEmbedsAgainstReference:
    """``embeds`` runs a search compiled per pattern; ``embeds_reference`` is
    the recursive search that asked the pattern pair by pair.  Both must
    agree on the result, the witness and the ``BudgetError`` text."""

    BUDGETS = (1, 3, 10, 40, DEFAULT_EMBED_BUDGET)
    TARGETS = (
        list(enumerate_crgs(3))
        + [gray_crg(r, s) for r in range(4) for s in range(4) if r + s]
        + _random_crgs(7)
    )

    def _check(self, patterns, targets=TARGETS, budgets=BUDGETS):
        kinds = set()
        for h in patterns:
            for k in targets:
                for budget in budgets:
                    got = _embed_outcome(embeds, h, k, budget)
                    assert got == _embed_outcome(embeds_reference, h, k, budget), (
                        h, k, budget
                    )
                    kinds.add(got if isinstance(got, str) else got[0])
        return kinds

    @pytest.mark.parametrize("spec", [
        "path:4", "path:5", "path:7", "cycle:4", "cycle:5", "c2nstar:8",
        "ctilde:6", "ctilde:9",
    ])
    def test_named_patterns(self, spec):
        kinds = self._check([parse_graph_spec(spec)])
        assert {True, False} <= kinds and len(kinds) > 2, "every outcome is exercised"

    def test_random_patterns(self):
        rng = random.Random(23)
        patterns = [random_graph(rng, n) for n in range(1, 8) for _ in range(3)]
        assert {True, False} <= self._check(patterns)

    @pytest.mark.parametrize("spec", ["path:4", "path:7", "cycle:5", "c2nstar:8", "ctilde:6"])
    def test_targets_with_twin_classes(self, spec):
        targets = _twin_targets()
        assert max(k.m for k in targets) == MAX_EMBED_CRG
        kinds = self._check([parse_graph_spec(spec)], targets)
        assert {True, False} <= kinds and len(kinds) > 2, "every outcome is exercised"

    @pytest.mark.parametrize("spec", ["path:5", "cycle:4", "c2nstar:8"])
    def test_budget_runs_out_at_every_step(self, spec):
        h = parse_graph_spec(spec)
        targets = [gray_crg(2, 2), gray_crg(3, 2)] + _twin_targets()[:500:50]
        kinds = self._check([h], targets, range(150))
        steps = {int(got.split("step ")[1].split()[0]) for got in kinds if isinstance(got, str)}
        assert steps == set(range(h.n))

    def test_largest_pattern(self):
        """A ``MAX_EMBED_PATTERN``-vertex pattern compiles: the nesting of
        one loop per step plus the twin scan stays under CPython's limit
        of 20 nested blocks."""
        n = MAX_EMBED_PATTERN
        patterns = [parse_graph_spec(f"cycle:{n}"), random_graph(random.Random(3), n)]
        kinds = self._check(patterns, _twin_targets()[::4] + _random_crgs(7))
        assert {True, False} <= kinds
        assert any(f"step {n - 1} of {n}" in got for got in kinds if isinstance(got, str))


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

    def test_canonical_form_matches_brute_key_exhaustively(self):
        # every labelled CRG with m <= 4: equal canonical forms exactly
        # when the relabelling-minimum keys are equal
        pairs = {
            (canonical_form(k), canonical_key_brute(k))
            for m in range(1, 5)
            for vcolors in itertools.product(("W", "B"), repeat=m)
            for ecolors in itertools.product(("W", "G", "B"), repeat=m * (m - 1) // 2)
            for k in (CRG(vcolors, ecolors),)
        }
        assert len(pairs) == len({form for form, _ in pairs}) == 772
        assert len({key for _, key in pairs}) == 772

    def test_rejects_oversize(self):
        with pytest.raises(ValidationError):
            list(enumerate_crgs(6))


def _free_of(forbid: str | None):
    """The ``keep`` of the classes not admitting ``forbid`` (None: every class)."""
    if forbid is None:
        return None
    h = parse_graph_spec(forbid)
    return lambda k: not embeds(h, k)[0]


@functools.cache
def _classes_with_parents(max_size: int, forbid: str | None = None):
    """``enumerate_crgs(max_size)`` (keeping what does not admit ``forbid``)
    and the parents it records, computed once per session."""
    parents = []
    classes = tuple(enumerate_crgs(max_size, keep=_free_of(forbid), parents=parents))
    return classes, tuple(parents)


class TestParents:
    """``enumerate_crgs(parents=...)`` records, per class K, the positions of
    the classes canonical_form(K - v), checked here by deleting each vertex."""

    @staticmethod
    def assert_parents(classes, parents, picks):
        assert len(parents) == len(classes)
        position = {k: i for i, k in enumerate(classes)}
        for i in picks:
            k = classes[i]
            deletions = {
                position[canonical_form(restrict(k, tuple(u for u in range(k.m) if u != v)))]
                for v in range(k.m)
            } if k.m > 1 else set()
            assert parents[i] == tuple(sorted(deletions)), k

    @pytest.mark.parametrize("forbid", [None, "c2nstar:8"])
    def test_every_class_up_to_4(self, forbid):
        classes, parents = _classes_with_parents(4, forbid)
        assert len(classes) == (772 if forbid is None else 651)
        self.assert_parents(classes, parents, range(len(classes)))

    def test_every_40th_class_at_5(self):
        classes, parents = _classes_with_parents(5)
        picks = range(772, len(classes), 40)
        assert len(picks) == 489
        self.assert_parents(classes, parents, picks)

    def test_recording_leaves_the_classes_unchanged(self):
        assert _classes_with_parents(4)[0] == tuple(enumerate_crgs(4))


def _contains_a_root(k: CRG, roots: set) -> bool:
    """Some induced sub-CRG of ``k`` (``k`` itself included) is isomorphic to
    one of ``roots``, checked by canonical forms of every vertex subset."""
    forms = {canonical_form(r) for r in roots}
    return any(
        canonical_form(restrict(k, vs)) in forms
        for size in {r.m for r in roots}
        for vs in itertools.combinations(range(k.m), size)
    )


class TestRoots:
    """``enumerate_crgs(roots=...)`` yields the kept classes that contain a
    root, in full-enumeration order, with the parents among them."""

    @staticmethod
    def assert_grown(max_size, roots, forbid=None):
        classes = _classes_with_parents(max_size, forbid)[0]
        parents = []
        grown = tuple(
            enumerate_crgs(max_size, keep=_free_of(forbid), parents=parents, roots=roots)
        )
        assert grown == tuple(k for k in classes if _contains_a_root(k, set(roots)))
        # the parents are the yielded classes among the K - v
        position = {k: i for i, k in enumerate(grown)}
        assert len(parents) == len(grown)
        for k, below in zip(grown, parents):
            deletions = {
                canonical_form(restrict(k, tuple(u for u in range(k.m) if u != v)))
                for v in range(k.m)
            } if k.m > 1 else set()
            assert below == tuple(sorted(position[d] for d in deletions if d in position)), k
        return grown

    def test_every_7th_class_up_to_3_as_roots(self):
        roots = list(enumerate_crgs(3))[::7]
        grown = self.assert_grown(4, roots)
        assert 0 < len(grown) < 772

    def test_roots_need_not_be_canonical_or_kept(self):
        # relabelled, repeated and oversize roots, and K(3,0), which admits
        # C8* and so is neither yielded nor grown from
        roots = [
            CRG(("B", "W"), ("G",)),
            CRG(("W", "B"), ("G",)),
            gray_crg(3, 0),
            gray_crg(1, 2),
            gray_crg(3, 3),
        ]
        grown = self.assert_grown(4, roots, forbid="c2nstar:8")
        assert gray_crg(3, 0) not in grown
        assert canonical_form(gray_crg(1, 2)) in grown

    def test_attaining_cores_of_a_cycle4_search(self):
        """The growth pass of the cycle:4 search at m = 4 and p = 45/64,
        with that point's attaining cores as roots."""
        p = Fraction(45, 64)
        cores = [
            k for k in _classes_with_parents(4, "cycle:4")[0]
            if core_structured(k, core_regime(p))
        ]
        values = [g_value(k, p).value for k in cores]
        roots = [k for k, v in zip(cores, values) if v == min(values)]
        grown = self.assert_grown(4, roots, forbid="cycle:4")
        assert 0 < len(roots) < len(grown) < 115

    def test_no_roots_yield_nothing(self):
        parents = []
        assert list(enumerate_crgs(4, parents=parents, roots=())) == []
        assert parents == []

    def test_default_roots_are_the_one_vertex_classes(self):
        roots = [CRG(("W",), ()), CRG(("B",), ())]
        assert _classes_with_parents(4)[0] == tuple(enumerate_crgs(4, roots=roots))


def _h_free_and_core_structured(forbid: str, p):
    """The core pass's ``keep`` at p: core-structured in p's regime, then
    not admitting ``forbid``."""
    h_free, regime = _free_of(forbid), core_regime(p)
    return lambda k: core_structured(k, regime) and h_free(k)


class TestSieve:
    """With a ``keep``, ``enumerate_crgs`` drops a child as soon as one of
    its three-vertex sub-CRGs through the new vertex is rejected.  The
    classes and the recorded parents stay those of the unsieved loop."""

    @staticmethod
    def assert_same(max_size, keep, roots=None):
        parents, ref_parents = [], []
        classes = tuple(enumerate_crgs(max_size, keep=keep, parents=parents, roots=roots))
        reference = tuple(
            enumerate_crgs_reference(max_size, keep=keep, parents=ref_parents, roots=roots)
        )
        assert classes == reference
        assert parents == ref_parents
        return classes

    @pytest.mark.parametrize("forbid, count", [("cycle:4", 597), ("path:4", 448)])
    def test_h_free_classes_at_5(self, forbid, count):
        assert len(self.assert_same(5, _free_of(forbid))) == count

    @pytest.mark.parametrize(
        "forbid, p, count",
        [("c2nstar:8", "1/3", 41), ("c2nstar:8", "2/3", 35), ("cycle:4", "1/3", 7)],
    )
    def test_core_structured_and_h_free_at_5(self, forbid, p, count):
        cores = self.assert_same(5, _h_free_and_core_structured(forbid, Fraction(p)))
        assert len(cores) == count

    def test_grown_from_the_attaining_cores_of_a_cycle4_search(self):
        p = Fraction(45, 64)
        cores = tuple(enumerate_crgs(5, keep=_h_free_and_core_structured("cycle:4", p)))
        values = [g_value(k, p).value for k in cores]
        roots = [k for k, v in zip(cores, values) if v == min(values)]
        grown = self.assert_same(5, _free_of("cycle:4"), roots=roots)
        assert roots == [CRG(("B", "W"), ("G",))] and len(grown) == 396

    def test_keep_runs_once_per_three_vertex_class(self):
        h_free = _free_of("cycle:4")
        for roots in (None, list(_classes_with_parents(3, "cycle:4")[0])[::5]):
            seen = []

            def keep(k):
                seen.append(canonical_form(k))
                return h_free(k)

            list(enumerate_crgs(5, keep=keep, roots=roots))
            assert any(k.m == 3 for k in seen)
            assert len(set(seen)) == len(seen)

    def test_no_keep_is_unchanged(self):
        parents = []
        assert _classes_with_parents(4)[0] == tuple(
            enumerate_crgs_reference(4, parents=parents)
        )
        assert tuple(parents) == _classes_with_parents(4)[1]


class TestTwinBlocks:
    """``enumerate_crgs`` extends each parent only by the blocks sorted
    within its twin classes (``_equiv_classes``).  A block and its
    twin-sorted block give one class from one parent, so the classes and
    the recorded parents are those of every block."""

    @staticmethod
    def child_key(rows, block, vc):
        return _canonical_key([row + [c] for row, c in zip(rows, block)] + [[*block, vc]])

    def test_a_block_and_its_twin_sorted_block_give_one_class(self):
        checked = moved = 0
        for k in _classes_with_parents(4)[0][::9]:
            rows = _color_rows(k)
            eq = _equiv_classes(rows)
            twins = {c: [v for v in range(k.m) if eq[v] == c] for c in eq}
            for block in itertools.product(range(3), repeat=k.m):
                sorted_block = list(block)
                for members in twins.values():
                    for v, c in zip(members, sorted(block[v] for v in members)):
                        sorted_block[v] = c
                for vc in (0, 2):
                    key = self.child_key(rows, block, vc)
                    assert key == self.child_key(rows, sorted_block, vc), (k, block)
                    checked += 1
                moved += tuple(sorted_block) != block
        assert (checked, moved) == (12_984, 1_373)

    @pytest.mark.parametrize("max_size, forbid, root_step", [
        (4, None, None), (4, None, 7), (5, "ctilde:5", None), (5, "path:4", 3),
    ], ids=["every-class", "every-class-roots", "ctilde5-free", "path4-free-roots"])
    def test_same_classes_and_parents_as_every_block(self, max_size, forbid, root_step):
        roots = None
        if root_step is not None:
            roots = list(_classes_with_parents(3, forbid)[0])[::root_step]
        TestSieve.assert_same(max_size, _free_of(forbid), roots=roots)

    def test_fewer_canonical_keys(self, monkeypatch):
        # extending every parent by every block makes 3,200 keys up to 4
        from heredit import crg

        keys = [0]
        real_key = crg._canonical_key

        def counted_key(rows):
            keys[0] += 1
            return real_key(rows)

        monkeypatch.setattr(crg, "_canonical_key", counted_key)
        assert len(list(enumerate_crgs(4))) == 772
        assert keys[0] == 2_420


def _labelled_crgs(max_m: int):
    """Every labelled CRG on 1..max_m vertices."""
    for m in range(1, max_m + 1):
        for vcolors in itertools.product(VERTEX_COLORS, repeat=m):
            for ecolors in itertools.product(EDGE_COLORS, repeat=m * (m - 1) // 2):
                yield CRG(vcolors, ecolors)


def _relabel(k: CRG, perm: list[int]) -> CRG:
    """``k`` with new vertex i playing old vertex perm[i]."""
    return CRG(
        tuple(k.vcolors[v] for v in perm),
        tuple(k.edge_color(perm[i], perm[j]) for j in range(k.m) for i in range(j)),
    )


class TestKernelsAgainstReference:
    """``canonical_form`` and ``_equiv_classes`` work on integer color rows;
    the references work on the color strings pair by pair.  Both must give
    equal values, representative for representative."""

    def test_canonical_form_on_every_labelled_crg_up_to_4(self):
        count = 0
        for k in _labelled_crgs(4):
            assert canonical_form(k) == canonical_form_reference(k), k
            count += 1
        assert count == 11_894

    def test_canonical_form_on_relabelled_classes_up_to_5(self):
        rng = random.Random(53)
        classes = _classes_with_parents(5)[0][::10]
        assert len(classes) == 2_032
        singletons = 0
        for k in classes:
            perm = list(range(k.m))
            rng.shuffle(perm)
            shuffled = _relabel(k, perm)
            form = canonical_form(shuffled)
            assert form == canonical_form_reference(shuffled), shuffled
            assert form == k
            singletons += len(_refined_cells(_color_rows(k))) == k.m
        assert 0 < singletons < len(classes), "both refinement outcomes are exercised"

    def test_refined_cells_on_every_labelled_crg_up_to_4(self):
        count = 0
        for k in _labelled_crgs(4):
            assert _refined_cells(_color_rows(k)) == _refined_cells_reference(k), k
            count += 1
        assert count == 11_894

    def test_refined_cells_on_relabelled_classes_at_5(self):
        rng = random.Random(59)
        classes = [k for k in _classes_with_parents(5)[0] if k.m == 5][::5]
        assert len(classes) == 3_910
        for k in classes:
            perm = list(range(k.m))
            rng.shuffle(perm)
            shuffled = _relabel(k, perm)
            assert _refined_cells(_color_rows(shuffled)) == _refined_cells_reference(shuffled), k

    def test_refined_cells_on_seeded_inputs_with_few_edge_colors(self):
        # one or two edge colors on 6 and 7 vertices: refinement runs up to
        # four rounds there
        rng = random.Random(61)
        most = 0
        for m in (6, 7):
            for vertex_palette in ("W", "WB"):
                for edge_palette in ("G", "GW", "GWWW", "BW", "BWWW", "BG", "BGGG"):
                    for _ in range(40):
                        k = CRG(
                            tuple(rng.choice(vertex_palette) for _ in range(m)),
                            tuple(rng.choice(edge_palette) for _ in range(m * (m - 1) // 2)),
                        )
                        rounds = []
                        assert _refined_cells(_color_rows(k)) == _refined_cells_reference(k, rounds), k
                        most = max(most, len(rounds))
        assert most >= 4

    def test_equiv_classes_on_every_class_up_to_4(self):
        for k in enumerate_crgs(4):
            assert _equiv_classes(_color_rows(k)) == equiv_classes_reference(k), k

    def test_equiv_classes_on_seeded_larger_crgs(self):
        # per size: uniform colors, mostly gray edges, and K(r, s) shuffled,
        # so both lone vertices and larger classes occur
        rng = random.Random(29)
        sizes = set()
        for m in range(5, 13):
            for edge_palette in (EDGE_COLORS, "GGGGGGW", "G"):
                k = CRG(
                    tuple(rng.choice(VERTEX_COLORS) for _ in range(m)),
                    tuple(rng.choice(edge_palette) for _ in range(m * (m - 1) // 2)),
                )
                eq = _equiv_classes(_color_rows(k))
                assert eq == equiv_classes_reference(k), k
                sizes.update(eq.count(c) for c in eq)
        assert 1 in sizes and max(sizes) > 2


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
