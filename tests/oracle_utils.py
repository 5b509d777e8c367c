"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force and shares no search code with
the package: permutation-based isomorphism, every induced copy by subset
and bijection, exhaustive map enumeration for embeddings, recursive
path/cycle enumeration, breadth-first edit search, a Burnside count of CRG
classes, a canonical key minimized over every vertex order, the simplex
program g solved over every support by Gaussian elimination in
``Fraction``, the p-core test over every proper sub-CRG, and the clique
spectrum by box widening.

Nine are plain versions of fast paths, kept to pin exact outputs rather
than to be independent: ``has_induced_recursive`` and
``induced_copies_recursive``, its every-copy form, ``embeds_reference``,
``canonical_form_reference``, ``equiv_classes_reference``,
``enumerate_crgs_reference``, the enumeration that calls ``keep`` on every
distinct child, ``edit_distance_reference``,
``max_dist_estimate_reference`` and ``bounded_min_g_reference``, the
search that solves g on every candidate class.  The
canonical-form and equivalence-class references work on color strings
through ``edge_color``, where the package works on integer color rows.
``induced_copies_recursive``, ``embeds_reference`` and the edit
reference share the pattern search order with the package (and the edit
reference the flip helper), since the copies and witnesses they return
depend on that order; ``max_dist_estimate_reference`` runs the package's
``edit_distance`` on every sample, each drawn by
``sample_graph_reference``, which shuffles the pair list and builds the
graph with ``Graph.from_edges``.  ``enumerate_crgs_reference``
canonicalizes with the package's ``_canonical_key``, on which the
enumeration order and the recorded parents depend.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from fractions import Fraction
from typing import Iterator

from heredit.crg import (
    CRG,
    DEFAULT_EMBED_BUDGET,
    MAX_EMBED_CRG,
    MAX_EMBED_PATTERN,
    VERTEX_COLORS,
    EmbeddingWitness,
    _canonical_key,
    _color_rows,
    _crg_of_key,
    _pair_ok,
    embeds,
    gray_crg,
    sub_crgs,
)
from heredit.editing import (
    DEFAULT_NODE_LIMIT,
    MAX_ESTIMATE_VERTICES,
    EditResult,
    EstimateResult,
    _flip,
    _normalized,
    _symmetric_difference,
    edit_distance,
)
from heredit.curves import SearchResult
from heredit.errors import BudgetError, ValidationError
from heredit.gfun import GResult, g_value
from heredit.graphs import Graph, _bits, _search_order, has_induced
from heredit.spectrum import CliqueSpectrum


def induced_subgraph(g: Graph, vertices: tuple[int, ...]) -> Graph:
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u in vertices
        for v in vertices
        if u < v and g.has_edge(u, v)
    ]
    return Graph(len(vertices), Graph.from_edges(len(vertices), edges).adj)


def isomorphic_brute(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    for perm in itertools.permutations(range(a.n)):
        if all(
            a.has_edge(u, v) == b.has_edge(perm[u], perm[v])
            for u in range(a.n)
            for v in range(u + 1, a.n)
        ):
            return True
    return False


def has_induced_brute(host: Graph, pattern: Graph) -> bool:
    """Subset-then-isomorphism check; exponential, for tiny graphs only."""
    if pattern.n > host.n:
        return False
    for subset in itertools.combinations(range(host.n), pattern.n):
        if isomorphic_brute(induced_subgraph(host, subset), pattern):
            return True
    return False


def induced_copies_brute(host: Graph, pattern: Graph) -> set[tuple[int, ...]]:
    """Every induced copy of ``pattern`` in ``host``, indexed by pattern vertex.

    Tries every k-subset of host vertices and every bijection onto it, and
    keeps a map when every pattern pair is an edge exactly when its image
    is; exponential, for tiny graphs only.
    """
    k = pattern.n
    copies = set()
    for subset in itertools.combinations(range(host.n), k):
        for image in itertools.permutations(subset):
            if all(
                pattern.has_edge(i, j) == host.has_edge(image[i], image[j])
                for i in range(k)
                for j in range(i + 1, k)
            ):
                copies.add(image)
    return copies


def has_induced_recursive(host: Graph, pattern: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """The first copy of ``induced_copies_recursive``, as ``(found, witness)``.

    ``has_induced`` must return this witness on every input.
    """
    copy = next(induced_copies_recursive(host, pattern), None)
    return copy is not None, copy


def induced_copies_recursive(host: Graph, pattern: Graph) -> Iterator[tuple[int, ...]]:
    """Every induced copy of ``pattern`` in ``host``, indexed by pattern vertex.

    Recursive backtracking over ``_search_order``, candidates ascending, so
    copies come in the order the compiled searches of ``graphs`` meet them,
    and the first is the one they must return.
    """
    order = _search_order(pattern)
    full = (1 << host.n) - 1
    chosen = [-1] * pattern.n

    def extend(t: int, used: int) -> Iterator[tuple[int, ...]]:
        if t == pattern.n:
            yield tuple(chosen)
            return
        pv = order[t]
        cands = full & ~used
        for s in range(t):
            qv = order[s]
            hv = chosen[qv]
            if pattern.has_edge(pv, qv):
                cands &= host.adj[hv]
            else:
                cands &= ~host.adj[hv]
        for hv in _bits(cands):
            chosen[pv] = hv
            yield from extend(t + 1, used | 1 << hv)

    yield from extend(0, 0)


def black_white_gray(k: CRG) -> bool:
    """All vertices black, all edges white or gray: the CRGs that are plain graphs."""
    return set(k.vcolors) <= {"B"} and set(k.ecolors) <= {"W", "G"}


def embeds_brute(h: Graph, k: CRG) -> bool:
    """Try every map V(h) -> V(k); exponential, for tiny inputs only.

    Maps are built vertex by vertex in label order, and a partial map is
    dropped as soon as one of its pairs breaks the definition (no map
    extending it can embed h).  No symmetry is exploited.
    """
    phi: list[int] = []

    def extend() -> bool:
        u = len(phi)
        if u == h.n:
            return True
        for a in range(k.m):
            if all(_pair_ok(k, phi[v], a, h.has_edge(u, v)) for v in range(u)):
                phi.append(a)
                if extend():
                    return True
                phi.pop()
        return False

    return extend()


def embeds_reference(
    h: Graph, k: CRG, budget: int = DEFAULT_EMBED_BUDGET
) -> tuple[bool, EmbeddingWitness | None]:
    """``crg.embeds`` as it was before it read the compiled pattern plan: it
    asks ``h`` for every pair, reaches earlier images through ``order`` and
    checks each pair with ``_pair_ok``, where ``embeds`` tests one bit of a
    candidate mask.

    ``embeds`` must return the same result and witness on every input, and
    raise ``BudgetError`` with the same message.

    An embedding maps every edge of ``h`` onto a black vertex (both ends
    together) or a black/gray edge, and every non-edge onto a white vertex
    or a white/gray edge.  The map need not be injective.

    Raises :class:`BudgetError` when the backtracking search exceeds
    ``budget`` candidate placements, so a ``False`` always means the search
    space was exhausted.  The message names the pattern step (0-based, of
    ``h.n``) that was being placed when the budget ran out.
    """
    if h.n > MAX_EMBED_PATTERN:
        raise ValidationError(f"embedding pattern capped at {MAX_EMBED_PATTERN} vertices")
    if k.m > MAX_EMBED_CRG:
        raise ValidationError(f"embedding target capped at {MAX_EMBED_CRG} vertices")
    if h.n == 0:
        return True, EmbeddingWitness(())

    order = _search_order(h)
    eq = equiv_classes_reference(k)
    mapping = [-1] * h.n
    use_count = [0] * k.m
    nodes = 0

    def assign(t: int) -> bool:
        nonlocal nodes
        if t == h.n:
            return True
        pv = order[t]
        seen_fresh: set[int] = set()
        for b in range(k.m):
            if use_count[b] == 0:
                # unused vertices in the same automorphism class are
                # interchangeable; trying the first is enough
                if eq[b] in seen_fresh:
                    continue
                seen_fresh.add(eq[b])
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"embedding search budget of {budget} placements exceeded "
                    f"at pattern step {t} of {h.n}"
                )
            ok = True
            for s in range(t):
                qv = order[s]
                if not _pair_ok(k, mapping[qv], b, h.has_edge(pv, qv)):
                    ok = False
                    break
            if not ok:
                continue
            mapping[pv] = b
            use_count[b] += 1
            if assign(t + 1):
                return True
            use_count[b] -= 1
            mapping[pv] = -1
        return False

    if assign(0):
        return True, EmbeddingWitness(tuple(mapping))
    return False, None


def equiv_classes_reference(k: CRG) -> list[int]:
    """``crg._equiv_classes`` as it was on color strings: vertex classes under
    "transposition is a color automorphism", pair by pair."""
    ids = [-1] * k.m
    reps: list[int] = []
    for v in range(k.m):
        for idx, r in enumerate(reps):
            if k.vcolors[v] != k.vcolors[r]:
                continue
            if all(
                k.edge_color(v, c) == k.edge_color(r, c)
                for c in range(k.m)
                if c not in (v, r)
            ):
                ids[v] = idx
                break
        if ids[v] < 0:
            ids[v] = len(reps)
            reps.append(v)
    return ids


def _refined_cells_reference(k: CRG, rounds: list[int] | None = None) -> list[list[int]]:
    """Stable ordered partition of vertices by iterated color signatures.

    ``rounds``, when given a list, receives the number of cells after each
    round, the last round being the one that splits no cell."""
    m = k.m
    sig: list[tuple] = [
        (k.vcolors[v], tuple(sorted(k.edge_color(v, u) for u in range(m) if u != v)))
        for v in range(m)
    ]
    while True:
        ordered = sorted(set(sig))
        cell_of = {s: i for i, s in enumerate(ordered)}
        ids = [cell_of[sig[v]] for v in range(m)]
        if rounds is not None:
            rounds.append(len(ordered))
        new_sig = [
            (
                ids[v],
                tuple(sorted((k.edge_color(v, u), ids[u]) for u in range(m) if u != v)),
            )
            for v in range(m)
        ]
        if len(set(new_sig)) == len(set(sig)):
            cells: list[list[int]] = [[] for _ in ordered]
            for v in range(m):
                cells[ids[v]].append(v)
            return cells
        sig = new_sig


def canonical_form_reference(k: CRG) -> CRG:
    """``crg.canonical_form`` as it was on color strings, through
    ``edge_color`` per pair.

    Minimizes the edge-color encoding over all vertex orders compatible
    with the refined cell partition; isomorphic CRGs map to equal values.
    ``canonical_form`` must return an equal CRG on every input: the
    representative, not just the class, since enumeration order and search
    witnesses depend on it.
    """
    cells = _refined_cells_reference(k)
    best: tuple[str, ...] | None = None
    best_order: tuple[int, ...] | None = None
    for parts in itertools.product(*(itertools.permutations(cell) for cell in cells)):
        order = tuple(v for part in parts for v in part)
        enc = tuple(
            k.edge_color(order[i], order[j])
            for j in range(k.m)
            for i in range(j)
        )
        if best is None or enc < best:
            best = enc
            best_order = order
    assert best_order is not None
    return CRG(tuple(k.vcolors[v] for v in best_order), best)


def canonical_key_brute(k: CRG) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Minimum of ``(vcolors, ecolors)`` over all m! relabellings of ``k``.

    Two CRGs are color-isomorphic exactly when their keys are equal.
    """
    return min(
        (
            tuple(k.vcolors[v] for v in order),
            tuple(k.edge_color(order[i], order[j]) for j in range(k.m) for i in range(j)),
        )
        for order in itertools.permutations(range(k.m))
    )


def enumerate_crgs_reference(
    max_size: int,
    keep=None,
    parents: list | None = None,
    roots=None,
):
    """``enumerate_crgs`` without the three-vertex sieve: every one-vertex
    extension of every kept class is canonicalized, and ``keep`` decides on
    each distinct class.  Same classes, order, ``parents`` and ``roots``
    semantics; the package calls ``keep`` on far fewer classes."""
    if roots is None:
        roots = (CRG((c,), ()) for c in VERTEX_COLORS)
    root_keys: dict[int, set] = {}
    for r in roots:
        root_keys.setdefault(r.m, set()).add(_canonical_key(_color_rows(r)))
    level: list = []
    below = 0
    for size in range(1, max_size + 1):
        found = dict.fromkeys(root_keys.get(size, ()), 0)
        for bit, rows in enumerate(level):
            for block in itertools.product(range(3), repeat=size - 1):
                grown = [row + [c] for row, c in zip(rows, block)]
                for vc in (0, 2):
                    key = _canonical_key(grown + [list(block) + [vc]])
                    found[key] = found.get(key, 0) | 1 << bit
        kept = []
        for key in sorted(found):
            k = _crg_of_key(key)
            if keep is None or keep(k):
                if parents is not None:
                    parents.append(tuple(below + bit for bit in _bits(found[key])))
                kept.append(_color_rows(k))
                yield k
        below += len(level)
        level = kept


def paths_and_cycles_recursive(g: Graph) -> tuple[int, set[int]]:
    """Longest path order and simple cycle lengths by plain DFS enumeration."""
    longest = 1 if g.n else 0
    lengths: set[int] = set()

    def walk(path: list[int], visited: set[int]):
        nonlocal longest
        longest = max(longest, len(path))
        for u in range(g.n):
            if not g.has_edge(path[-1], u):
                continue
            if u == path[0] and len(path) >= 3 and path[0] == min(path):
                lengths.add(len(path))
            if u not in visited:
                visited.add(u)
                path.append(u)
                walk(path, visited)
                path.pop()
                visited.remove(u)

    for start in range(g.n):
        walk([start], {start})
    return longest, lengths


def max_path_closes(g: Graph) -> bool:
    """Is there a maximum-length path whose two endpoints are adjacent?"""
    longest, _ = paths_and_cycles_recursive(g)
    result = False

    def walk(path: list[int], visited: set[int]):
        nonlocal result
        if result:
            return
        if len(path) == longest:
            if len(path) >= 3 and g.has_edge(path[0], path[-1]):
                result = True
            return
        for u in range(g.n):
            if g.has_edge(path[-1], u) and u not in visited:
                visited.add(u)
                path.append(u)
                walk(path, visited)
                path.pop()
                visited.remove(u)

    for start in range(g.n):
        walk([start], {start})
        if result:
            return True
    return result


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in range(g.n):
            if g.has_edge(v, u) and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def bfs_edit_distance(g: Graph, forbidden: Graph) -> int:
    """Breadth-first search over single-flip layers; exact for n <= 6."""
    if not has_induced(g, forbidden)[0]:
        return 0
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    seen = {g.adj}
    frontier = deque([g.adj])
    dist = 0
    while frontier:
        dist += 1
        next_frontier: deque = deque()
        for adj in frontier:
            for u, v in pairs:
                rows = list(adj)
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
                child = tuple(rows)
                if child in seen:
                    continue
                seen.add(child)
                if not has_induced(Graph(g.n, child), forbidden)[0]:
                    return dist
                next_frontier.append(child)
        frontier = next_frontier
    raise AssertionError("edit layers must exhaust eventually")


def edit_distance_reference(g: Graph, forbidden: Graph, node_limit: int) -> EditResult:
    """Iterative-deepening edit search without memo reuse.

    Every node calls ``has_induced_recursive`` and only then consults the
    memo of hopeless graphs; ``edit_distance`` must visit the same nodes,
    return the same result and raise ``BudgetError`` at the same node.
    """
    found, _ = has_induced_recursive(g, forbidden)
    if not found:
        return EditResult(0, _normalized(0, g.n), g)
    pair_count = g.n * (g.n - 1) // 2
    if forbidden.edge_count() > 0:
        upper_bound = g.edge_count()
    else:
        upper_bound = pair_count - g.edge_count()
    nodes = 0
    failed: dict[tuple[int, ...], int] = {}

    def search(current: Graph, remaining: int) -> Graph | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise BudgetError("node limit exceeded", best_bound=upper_bound)
        found, copy = has_induced_recursive(current, forbidden)
        if not found:
            return current
        if remaining == 0:
            return None
        if failed.get(current.adj, -1) >= remaining:
            return None
        for i in range(len(copy)):
            for j in range(i + 1, len(copy)):
                child = Graph(current.n, _flip(current.adj, copy[i], copy[j]))
                result = search(child, remaining - 1)
                if result is not None:
                    return result
        failed[current.adj] = remaining
        return None

    for depth in range(1, pair_count + 1):
        witness = search(g, depth)
        if witness is not None:
            edits = _symmetric_difference(g, witness)
            return EditResult(edits, _normalized(edits, g.n), witness)
    raise AssertionError("deepening must terminate within C(n,2) flips")


def sample_graph_reference(n: int, edge_count: int, rng: random.Random) -> Graph:
    """The fixed-edge-count sampler: a partial Fisher-Yates shuffle of the
    lexicographic pair list by ``rng.randrange``, then ``Graph.from_edges``.

    The package draws the same ``rng`` calls straight into adjacency rows;
    both must give the same graph and leave ``rng`` in the same state.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for t in range(edge_count):
        swap = t + rng.randrange(len(pairs) - t)
        pairs[t], pairs[swap] = pairs[swap], pairs[t]
    return Graph.from_edges(n, pairs[:edge_count])


def max_dist_estimate_reference(
    n: int,
    p: Fraction,
    forbidden: Graph,
    samples: int,
    seed: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> EstimateResult:
    """The estimate loop that runs the exact ``edit_distance`` on every sample.

    ``max_dist_estimate`` must report the same maximum and witness at every
    node limit, and never more skipped samples.
    """
    if n > MAX_ESTIMATE_VERTICES:
        raise ValidationError(
            f"estimate supports at most {MAX_ESTIMATE_VERTICES} vertices, got {n}"
        )
    if samples < 1:
        raise ValidationError("sample count must be at least 1")
    if not 0 <= p <= 1:
        raise ValidationError(f"p must lie in [0,1], got {p}")
    edge_count = int(Fraction(p) * (n * (n - 1) // 2))
    rng = random.Random(seed)
    best = Fraction(0)
    witness: Graph | None = None
    skipped = 0
    for index in range(samples):
        g = sample_graph_reference(n, edge_count, rng)
        try:
            result = edit_distance(g, forbidden, node_limit=node_limit)
        except BudgetError:
            skipped += 1
            continue
        if result.normalized > best or witness is None:
            best = result.normalized
            witness = g
    if witness is None:
        raise BudgetError(f"all {samples} samples exceeded the node limit")
    return EstimateResult(best, witness, skipped)


def burnside_crg_count(m: int, n_vcolors: int = 2, n_ecolors: int = 3) -> int:
    """Number of CRG classes on exactly m vertices, by Burnside's lemma."""
    total = 0
    for perm in itertools.permutations(range(m)):
        vcycles = 0
        seen: set[int] = set()
        for v in range(m):
            if v in seen:
                continue
            vcycles += 1
            w = v
            while True:
                seen.add(w)
                w = perm[w]
                if w == v:
                    break
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        pair_seen: set[tuple[int, int]] = set()
        ecycles = 0
        for pair in pairs:
            if pair in pair_seen:
                continue
            ecycles += 1
            cur = pair
            while True:
                pair_seen.add(cur)
                a, b = perm[cur[0]], perm[cur[1]]
                cur = (min(a, b), max(a, b))
                if cur == pair:
                    break
        total += n_vcolors**vcycles * n_ecolors**ecycles
    return total // math.factorial(m)


def random_graph(rng, n: int, density: float = 0.5) -> Graph:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


def _cost_matrix(k: CRG, p: Fraction) -> list[list[Fraction]]:
    """M_K(p): p / 1-p on white / black vertices and edges, 0 on gray edges."""
    by_color = {"W": p, "B": 1 - p, "G": Fraction(0)}
    return [
        [by_color[k.vcolors[i] if i == j else k.edge_color(i, j)] for j in range(k.m)]
        for i in range(k.m)
    ]


def _solve_unique(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Solve a square system exactly; None unless the solution is unique."""
    n = len(a)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None  # singular: no solution or infinitely many
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def _stationary_point(
    matrix: list[list[Fraction]], support: tuple[int, ...]
) -> list[Fraction] | None:
    """Unique solution of M_S x = lam*1, 1^T x = 1 on the support, if any."""
    t = len(support)
    a = [[matrix[u][v] for v in support] + [Fraction(-1)] for u in support]
    a.append([Fraction(1)] * t + [Fraction(0)])
    b = [Fraction(0)] * t + [Fraction(1)]
    sol = _solve_unique(a, b)
    if sol is None:
        return None
    return sol[:t]


def g_value_fraction(k: CRG, p: Fraction) -> GResult:
    """g_K(p) by solving every support in Fraction arithmetic, unfiltered.

    Same tie-break as the package: value, then support size, then the
    lexicographically smallest support.
    """
    p = Fraction(p)
    matrix = _cost_matrix(k, p)
    m = k.m
    best_key: tuple | None = None
    best: GResult | None = None
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            x = _stationary_point(matrix, support)
            if x is None or any(xi < 0 for xi in x):
                continue
            value = Fraction(0)
            for a, u in enumerate(support):
                row = matrix[u]
                for b, v in enumerate(support):
                    value += row[v] * x[a] * x[b]
            weights = [Fraction(0)] * m
            for a, u in enumerate(support):
                weights[u] = x[a]
            positive = tuple(u for u in range(m) if weights[u] > 0)
            key = (value, len(positive), positive)
            if best_key is None or key < best_key:
                best_key = key
                best = GResult(value, tuple(weights), positive)
    assert best is not None  # singleton supports always solve
    return best


def is_p_core_brute(k: CRG, p: Fraction) -> bool:
    """p-core by definition: every proper sub-CRG has strictly larger g."""
    gk = g_value(k, p).value
    return all(g_value(sub, p).value > gk for sub in sub_crgs(k))


def clique_spectrum_widening(
    h: Graph, r_max: int | None = None, s_max: int | None = None
) -> CliqueSpectrum:
    """Spectrum membership in the box [0, r_max] x [0, s_max], widened and
    recomputed from scratch until no member touches the box edge.

    Membership uses the library's ``embeds``; the reference is the box
    handling, not the embedding search.
    """
    r_bound = h.n if r_max is None else r_max
    s_bound = h.n if s_max is None else s_max
    while True:
        members = set()
        for r in range(r_bound + 1):
            for s in range(s_bound + 1):
                if 1 <= r + s < h.n and not embeds(h, gray_crg(r, s))[0]:
                    members.add((r, s))
        touches_r = any(r == r_bound for r, _ in members)
        touches_s = any(s == s_bound for _, s in members)
        if not touches_r and not touches_s:
            return CliqueSpectrum(frozenset(members), r_bound, s_bound)
        if touches_r:
            r_bound += 1
        if touches_s:
            s_bound += 1


def bounded_min_g_reference(candidates: tuple[CRG, ...], p: Fraction) -> SearchResult:
    """Minimum g over ``candidates`` with every attaining class, in order,
    by solving g on each of them."""
    if not candidates:
        raise ValidationError("every CRG class admits the forbidden graph")
    best: Fraction | None = None
    attaining: list[CRG] = []
    for k in candidates:
        value = g_value(k, p).value
        if best is None or value < best:
            best = value
            attaining = [k]
        elif value == best:
            attaining.append(k)
    assert best is not None
    return SearchResult(best, tuple(attaining))
