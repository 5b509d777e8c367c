"""Ground-truth finite-n edit distance to a single-forbidden-graph property.

``edit_distance`` finds the exact minimum number of vertex-pair flips that
make a graph free of an induced copy of the forbidden graph, by iterative
deepening: at each depth the search locates one induced copy and branches
only on the pairs inside it, since any valid edit set must touch every
copy.  The search runs on raw adjacency rows.  Only the returned witness
becomes a ``Graph``.

One driver, ``_flip_search``, fetches the kernels and the vertex table
once and returns ``run(rows, depths)``; each call keeps one memo and node
count across its depths.  ``edit_distance`` deepens through one call, in
which a copy-free host costs one node, its depth-1 root.

Each node the memo does not settle makes one call of one of two kernels,
compiled once per forbidden graph by ``_compile_loops``: the first-copy
search ``_table_copy_search`` and, at nodes with two flips left, the
survivor pass ``_survivor_commons``.  Both return the node's first copy,
indexed by pattern vertex: the copy ``has_induced`` returns.
Their loops take each step's candidates from ``_vertex_table(n)``, which
lists the vertices of every mask on the host's n vertices and is built
once per n; the oracle's cap of ``MAX_ORACLE_VERTICES`` host vertices
bounds it at 1,024 rows.  These kernels and their loop compiler live
here, not in ``graphs``, so that only the commands that run the oracle
compile their source.

Every graph whose subtree fails with at least one flip left is remembered
with the largest remaining depth it failed at; a graph that still holds a
copy with no flips left is not stored, so a later visit to it searches for
a copy again (storing those would save some of these searches but grow the
memo by every leaf of the search tree).  A later visit to a stored graph
with at most that depth left fails at once; one with more depth left
searches for its copy again, and the induced-copy search is deterministic,
so it branches on the same copy as before.  This is exact: only graphs
that contain a copy are stored, so a hit never hides a graph that is
already free, and the search visits the same nodes and returns the same
witness as one that called ``has_induced`` at every node.

With two flips left, a node with first copy C decides which of its
children can still be fixed by one flip.  Flipping the pair e of C leaves
each copy of the node that does not hold both ends of e, and a single flip
clears all those survivors only if it lies inside every one of them, so
the child is hopeless when the AND of their vertex masks has at most one
vertex.  The survivor pass finds C and computes that AND for every pair
of C in one pass over the node's copies.  A hopeless child is not
searched: it costs one node if it is in the memo, and otherwise one node
plus one per pair of its own copy, exactly what its search would count,
and it is remembered as failed at one flip left.  A later visit with more
flips left searches for its copy as any memo hit with more depth left
does.

``max_dist_estimate`` samples fixed-edge-count random graphs and
reports the largest oracle distance seen; that is a lower bound on the
finite-n maximum at that density, not an estimate of the asymptotic limit.
It refuses a negative ``n`` and a forbidden graph on fewer than 2 vertices
with its other argument checks, before the first sample is drawn.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .errors import BudgetError, ValidationError
from .graphs import Graph, Value, _check_order, _induced_plan
from .limits import DEFAULT_NODE_LIMIT, MAX_EMBED_PATTERN

MAX_ORACLE_VERTICES = 10
MAX_ESTIMATE_VERTICES = 9


class EditResult(Value):
    """Exact edit distance with a witness of the edited graph.

    ``normalized`` is edits / C(n, 2), taken to be 0 when n <= 1.
    """

    edits: int
    normalized: Fraction
    witness: Graph


class EstimateResult(Value):
    max_normalized: Fraction
    witness: Graph
    skipped: int


@lru_cache
def _table_copy_search(
    pattern: Graph,
) -> Callable[[tuple[int, ...], int, tuple], tuple[int, ...] | None]:
    """``first_copy(adj, n, vb)``: the first induced copy of ``pattern`` in
    the host rows ``adj`` on vertices 0..n-1, indexed by pattern vertex, or
    ``None``, where ``vb`` is ``_vertex_table(n)``.  It is the copy
    ``graphs.has_induced`` returns, found by ``_compile_loops``' loops."""
    plan = _induced_plan(pattern)
    where = sorted(range(pattern.n), key=plan[0].__getitem__)  # step placing each vertex
    copy = "".join(f"v{t}, " for t in where)
    return _compile_loops(plan, "first_copy", [], [f"return ({copy})"])


@lru_cache
def _survivor_commons(
    pattern: Graph,
) -> Callable[[tuple[int, ...], int, tuple], tuple[tuple[int, ...], tuple[bool, ...]] | None]:
    """``wide(adj, n, vb)``: ``None`` when the host rows ``adj`` hold no
    induced copy of ``pattern``, and otherwise ``(copy, flags)``: the copy
    of ``_table_copy_search`` and, per pair of it, whether the copies that
    survive the pair's flip share two vertices.

    ``vb`` is ``_vertex_table(n)``.  The pairs {copy[i], copy[j]} come in
    the order i < j, lexicographically (``_vertex_pairs``).  Flipping the
    pair e leaves every copy whose vertex set does not hold both ends of e.
    Flag e is ``False`` when the AND of those copies' vertex masks has at
    most one vertex: then at least one copy survives the flip, and no
    single flip after it clears all the survivors.  ``True`` means the AND
    keeps two or more vertices, or that no copy survives.

    One pass over the copies in ``_compile_loops``' loops.  The first copy
    met sets the pair masks from its vertex bits; it holds every pair it
    has, so it survives none of their flips.  Every later copy feeds one
    unrolled accumulator per pair, and the pass returns as soon as every
    accumulator has at most one vertex.  Built once per pattern of 2
    to ``MAX_EMBED_PATTERN`` vertices, larger ones raising
    ``ValidationError``.
    """
    plan = _induced_plan(pattern)
    k = pattern.n
    where = sorted(range(k), key=plan[0].__getitem__)  # step placing each vertex
    acc = [f"a{e}" for e in range(k * (k - 1) // 2)]
    leaf = [
        "if copy is None:",
        f"    copy = ({''.join(f'v{t}, ' for t in where)})",
        *(f"    p{e} = b{where[i]} | b{where[j]}" for e, (i, j) in enumerate(_vertex_pairs(k))),
        "    continue",
        f"m = {' | '.join(f'b{t}' for t in range(k))}",
    ]
    for e, a in enumerate(acc):
        leaf += [f"if m & p{e} != p{e}:", f"    {a} &= m"]
    leaf += [
        f"if not ({' or '.join(f'{a} & {a} - 1' for a in acc)}):",
        f"    return copy, ({'False, ' * len(acc)})",
    ]
    head = [f"{' = '.join(acc)} = -1", "copy = None"]
    tail = [
        "if copy is None:",
        "    return None",
        f"return copy, ({''.join(f'{a} & {a} - 1 != 0, ' for a in acc)})",
    ]
    return _compile_loops(plan, "wide", head, leaf, tail)


def _compile_loops(
    plan: tuple[tuple[int, ...], tuple[tuple[tuple[int, bool], ...], ...]],
    name: str,
    head: Iterable[str],
    leaf: Iterable[str],
    tail: Iterable[str] = (),
) -> Callable:
    """Compile ``def <name>(adj, n, vb):``, running one nested loop per step
    of ``plan`` over the host rows ``adj`` on vertices 0..n-1.

    The body is the ``head`` lines, then the loops, with the ``leaf`` lines
    run once per induced copy at the innermost level, then the ``tail``
    lines.  Loop t, ``for v_t, b_t in vb[c_t]:``, takes each candidate of
    ``c_t`` in ascending order as the host vertex ``v_t`` with bit ``b_t``,
    read from ``vb = _vertex_table(n)``.  Then the candidates of step t + 1
    are one ``&`` over the earlier steps: ``adj[v_s]`` for a pattern edge,
    ``non_s`` for a non-edge.  ``non_s = full ^ adj[v_s] ^ b_s`` is every
    other host vertex not adjacent to ``v_s``; it is computed once per
    placement, and only for a step that some later step is not adjacent
    to, so a search costs nothing per host vertex up front.  Every step after the first is constrained by
    every earlier step, and neither row holds its own vertex, so no placed
    vertex is a candidate again and no mask of used vertices is kept.  The
    leaf sees ``v_t`` and ``b_t`` of every step t.  A plan of more than
    ``MAX_EMBED_PATTERN`` steps raises ``ValidationError``.
    """
    _, steps = plan
    k = len(steps)
    if k > MAX_EMBED_PATTERN:
        raise ValidationError(f"induced-copy pattern capped at {MAX_EMBED_PATTERN} vertices")
    lines = [f"def {name}(adj, n, vb):", *(f"    {line}" for line in head)]
    lines += ["    full = (1 << n) - 1", "    c0 = full"]
    for t in range(k):
        pad = "    " * (t + 1)
        lines.append(f"{pad}for v{t}, b{t} in vb[c{t}]:")
        if any(not steps[u][t][1] for u in range(t + 1, k)):
            lines.append(f"{pad}    non{t} = full ^ adj[v{t}] ^ b{t}")
        if t + 1 < k:
            terms = (f"adj[v{s}]" if edge else f"non{s}" for s, edge in steps[t + 1])
            lines.append(f"{pad}    c{t + 1} = {' & '.join(terms)}")
    lines += [f"{'    ' * (k + 1)}{line}" for line in leaf]
    lines += [f"    {line}" for line in tail]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace[name]


def _vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i < j, of vertices 0..n-1, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache
def _vertex_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``vb[c]``, for every mask c on vertices 0..n-1: the ``(v, 1 << v)``
    pairs of the set bits v of c, in ascending v.

    It has 2^n entries, so n is capped at ``MAX_ORACLE_VERTICES``, the
    oracle's host cap (at most 1,024 rows); a larger n raises
    ``ValidationError``.
    """
    if not 0 <= n <= MAX_ORACLE_VERTICES:
        raise ValidationError(f"vertex table capped at {MAX_ORACLE_VERTICES} vertices, got {n}")
    vb: list[tuple[tuple[int, int], ...]] = [()]
    for v in range(n):  # the masks with top bit v follow those below 1 << v
        vb += [row + ((v, 1 << v),) for row in vb]
    return tuple(vb)


def _flip(adj: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """The rows of ``adj`` with the pair {u, v} toggled in both directions."""
    rows = list(adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return tuple(rows)


def _normalized(edits: int, n: int) -> Fraction:
    pairs = n * (n - 1) // 2
    return Fraction(edits, pairs) if pairs else Fraction(0)


def _flip_search(
    n: int, forbidden: Graph, node_limit: int
) -> Callable[[tuple[int, ...], Iterable[int]], Iterator[tuple[int, ...] | None]]:
    """``run(rows, depths)``: an iterator that yields, for each depth of
    ``depths`` in turn, rows of a ``forbidden``-free graph within that many
    flips of ``rows``, or ``None`` when there is none.

    Each node finds one induced copy and branches only on the pairs inside
    it, trying children in copy order.  Each ``run`` call has its own memo
    of failed graphs and node count, shared across its depths; past
    ``node_limit`` nodes it raises :class:`BudgetError`.  Graphs are
    searched as raw adjacency rows on vertices 0..n-1.  The pattern's two
    kernels (``_table_copy_search`` and ``_survivor_commons``), the vertex
    table on n vertices (``_vertex_table``) and the pattern's pairs are
    fetched once, when ``run`` is built; a pattern on more than n vertices
    has no copy, so its ``run`` yields the rows it is given and builds none
    of them.

    A node that the memo does not settle makes exactly one kernel call:
    with two flips left the survivor pass, whose ruled-out children are
    counted and stored as the module docstring says, and otherwise the
    first-copy search.  The node count, the memo's verdicts, every
    ``BudgetError`` and every witness are those of the search that visits
    every child.
    """
    if forbidden.n > n:
        return lambda adj, depths: (adj for _ in depths)  # no copy fits: every graph is free
    first_copy = _table_copy_search(forbidden)
    survivors_wide = _survivor_commons(forbidden)
    vb = _vertex_table(n)
    pairs = _vertex_pairs(forbidden.n)
    every_pair = (True,) * len(pairs)
    over = f"edit search node limit of {node_limit} exceeded"

    def run(rows: tuple[int, ...], depths: Iterable[int]) -> Iterator[tuple[int, ...] | None]:
        nodes = 0
        failed: dict[tuple[int, ...], int] = {}  # rows -> largest depth proven hopeless

        def search(adj: tuple[int, ...], remaining: int) -> tuple[int, ...] | None:
            nonlocal nodes
            nodes += 1
            if nodes > node_limit:
                raise BudgetError(over)
            if failed.get(adj, -1) >= remaining:
                return None
            if remaining == 2:
                found = survivors_wide(adj, n, vb)
                if found is None:
                    return adj
                copy, wide = found
            else:
                copy = first_copy(adj, n, vb)
                if copy is None:
                    return adj
                if remaining == 0:
                    return None
                wide = every_pair
            for (i, j), open_child in zip(pairs, wide):
                child = _flip(adj, copy[i], copy[j])
                if open_child:
                    result = search(child, remaining - 1)
                    if result is not None:
                        return result
                    continue
                # the pass shows this child fails at one flip left
                if child in failed:
                    nodes += 1
                else:
                    nodes += 1 + len(pairs)
                    failed[child] = 1
                if nodes > node_limit:
                    raise BudgetError(over)
            failed[adj] = remaining
            return None

        for depth in depths:
            yield search(rows, depth)

    return run


def edit_distance(
    g: Graph, forbidden: Graph, node_limit: int = DEFAULT_NODE_LIMIT
) -> EditResult:
    """Exact minimum number of pair flips making ``g`` free of ``forbidden``.

    Raises :class:`BudgetError` carrying the best upper bound found when the
    node limit runs out before the minimum is certified.  Its message names
    the deepening depth in progress; every smaller depth was exhausted, so
    the distance lies in ``[depth, best_bound]``.
    """
    if g.n > MAX_ORACLE_VERTICES:
        raise ValidationError(
            f"edit oracle supports at most {MAX_ORACLE_VERTICES} vertices, got {g.n}"
        )
    if forbidden.n <= 1:
        raise ValidationError("forbidden graph must have at least 2 vertices")
    if node_limit < 1:
        raise ValidationError(f"node limit must be at least 1, got {node_limit}")

    # some flip set always works: empty the graph if the pattern has an
    # edge, complete it otherwise; that count is the standing upper bound
    pair_count = g.n * (g.n - 1) // 2
    upper_bound = g.edge_count() if forbidden.edge_count() else pair_count - g.edge_count()
    # depth 1 settles a copy-free host at its root, even one without pairs
    depths = range(1, max(pair_count, 1) + 1)
    witnesses = _flip_search(g.n, forbidden, node_limit)(g.adj, depths)
    for depth in depths:
        try:
            rows = next(witnesses)
        except BudgetError as exc:
            raise BudgetError(
                f"{exc} at depth {depth}; the distance lies in [{depth}, {upper_bound}]",
                best_bound=upper_bound,
            ) from None
        if rows is not None:
            witness = Graph(g.n, rows)
            edits = _symmetric_difference(g, witness)
            return EditResult(edits, _normalized(edits, g.n), witness)
    raise AssertionError("deepening must terminate within C(n,2) flips")


def _symmetric_difference(a: Graph, b: Graph) -> int:
    return sum((ra ^ rb).bit_count() for ra, rb in zip(a.adj, b.adj)) // 2


def sample_graph(n: int, edge_count: int, rng: random.Random) -> Graph:
    """Uniform random graph with exactly ``edge_count`` edges.

    Selection is a partial Fisher-Yates shuffle over the lexicographically
    ordered pair list, driven by ``rng.randrange``; with
    ``random.Random(seed)`` (MT19937) the output is reproducible
    bit-for-bit for a fixed seed.  An order outside the ``Graph`` range is
    refused before the pair list is built.
    """
    _check_order(n)
    return Graph(n, _sample_rows(n, _vertex_pairs(n), edge_count, rng))


def _sample_rows(
    n: int, pairs: tuple[tuple[int, int], ...], edge_count: int, rng: random.Random
) -> tuple[int, ...]:
    """The adjacency rows of ``sample_graph(n, edge_count, rng)``, drawn with
    the same ``rng`` calls but not validated as a ``Graph``.

    ``pairs`` is the lexicographically ordered pair tuple of vertices
    0..n-1, built once by a caller that draws many samples; each call
    shuffles a list copy of it.
    """
    if edge_count > len(pairs):
        raise ValidationError("edge count exceeds the number of vertex pairs")
    pairs = list(pairs)
    rows = [0] * n
    for t in range(edge_count):
        swap = t + rng.randrange(len(pairs) - t)
        pairs[t], pairs[swap] = pairs[swap], pairs[t]
        u, v = pairs[t]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def max_dist_estimate(
    n: int,
    p: Fraction,
    forbidden: Graph,
    samples: int,
    seed: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> EstimateResult:
    """Max oracle distance over random graphs with floor(p*C(n,2)) edges.

    A sampled lower bound on the finite-n maximum at this density.  Ties
    keep the earliest sample, so the result is deterministic per seed, and
    once a maximum of ``best`` edits exists a sample needs its exact
    distance only if ``best`` flips cannot make it free of ``forbidden``.
    That test is a depth-``best`` call of one edit-search ``run`` built per
    estimate; when it exceeds the node limit the sample gets the exact run.  ``skipped``
    counts the samples that could not be compared with the running maximum
    within the node limit: their exact run exceeded it too.  The maximum
    and its witness are those of the loop that ran the exact search on
    every sample, and ``skipped`` is never larger.
    """
    if n < 0:
        raise ValidationError(f"n must be at least 0, got {n}")
    if n > MAX_ESTIMATE_VERTICES:
        raise ValidationError(
            f"estimate supports at most {MAX_ESTIMATE_VERTICES} vertices, got {n}"
        )
    if forbidden.n <= 1:
        raise ValidationError("forbidden graph must have at least 2 vertices")
    if samples < 1:
        raise ValidationError("sample count must be at least 1")
    if not 0 <= p <= 1:
        raise ValidationError(f"p must lie in [0,1], got {p}")
    if node_limit < 1:
        raise ValidationError(f"node limit must be at least 1, got {node_limit}")
    edge_count = int(Fraction(p) * (n * (n - 1) // 2))
    rng = random.Random(seed)
    best_edits = 0
    witness: Graph | None = None
    skipped = 0
    pairs = _vertex_pairs(n)
    check = _flip_search(n, forbidden, node_limit)
    for _ in range(samples):
        rows = _sample_rows(n, pairs, edge_count, rng)
        if witness is not None:
            # ties keep the earliest sample, so one within best_edits flips
            # of the property cannot raise the maximum
            try:
                if next(check(rows, (best_edits,))) is not None:
                    continue
            except BudgetError:
                pass  # undecided within the limit: the exact run decides
        g = Graph(n, rows)  # only a sample that gets the exact run is validated
        try:
            result = edit_distance(g, forbidden, node_limit=node_limit)
        except BudgetError:
            skipped += 1
            continue
        if result.edits > best_edits or witness is None:
            best_edits = result.edits
            witness = g
    if witness is None:
        raise BudgetError(f"all {samples} samples exceeded the node limit")
    return EstimateResult(_normalized(best_edits, n), witness, skipped)
