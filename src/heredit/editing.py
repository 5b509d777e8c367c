"""Ground-truth finite-n edit distance to a single-forbidden-graph property.

``edit_distance`` finds the exact minimum number of vertex-pair flips that
make a graph free of an induced copy of the forbidden graph, by iterative
deepening: at each depth the search locates one induced copy and branches
only on the pairs inside it, since any valid edit set must touch every
copy.  The search runs on raw adjacency rows and holds the forbidden
graph's induced-copy search (``graphs._copy_search``), built once per
pattern; each node takes its first copy from one call of it, already
indexed by pattern vertex.  Only the returned witness becomes a ``Graph``.

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
vertex.  One pass over the node's copies (``graphs._survivor_commons``)
computes that AND for every pair of C.  A hopeless child is not searched:
it costs one node if it is in the memo, and otherwise one node plus one
per pair of its own copy, exactly what its search would count, and it is
remembered as failed at one flip left.  A later visit with more flips left
searches for its copy as any memo hit with more depth left does.

``max_dist_estimate`` samples fixed-edge-count random graphs and
reports the largest oracle distance seen; that is a lower bound on the
finite-n maximum at that density, not an estimate of the asymptotic limit.
It refuses a negative ``n`` and a forbidden graph on fewer than 2 vertices
with its other argument checks, before the first sample is drawn.
Once it has a maximum of ``best`` edits, it first asks of each sample
whether ``best`` flips suffice, with one depth-``best`` run of the same
search; only a sample for which they do not, or for which that run exceeds
the node limit, gets the exact ``edit_distance``.  ``skipped`` counts the
samples that could not be compared with the running maximum within the
node limit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .errors import BudgetError, ValidationError
from .graphs import Graph, Value, _copy_search, _survivor_commons, has_induced
from .limits import DEFAULT_NODE_LIMIT

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
    witness: Graph | None
    skipped: int


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
) -> Callable[[tuple[int, ...], int], tuple[int, ...] | None]:
    """``search(rows, depth)``: rows of a ``forbidden``-free graph within
    ``depth`` flips of ``rows``, or ``None`` when there is none.

    Each node finds one induced copy and branches only on the pairs inside
    it, trying children in copy order.  Every call of one ``search`` shares
    the memo of failed graphs and the node count; past ``node_limit`` nodes
    it raises :class:`BudgetError`.  Graphs are searched as raw adjacency
    rows on vertices 0..n-1.  The pattern's copy search
    (``graphs._copy_search``) is fetched once, when ``search`` is built; a
    pattern on more than n vertices has no copy, so its ``search`` returns
    the rows it is given and builds no copy search at all.

    A node that the memo does not settle makes one call of the copy search
    and takes its first copy.  With two flips left it runs the pattern's
    survivor pass (``graphs._survivor_commons``, fetched with the copy
    search) on that copy and recurses only into the children it leaves
    open.  A ruled-out child fails at one flip left without a copy search:
    it is counted as one node if it is in the memo, and otherwise as itself
    and one node per pair, then stored as failed at depth 1.  The node
    count, the memo's verdicts, every ``BudgetError`` and every witness are
    those of the search that visits each such child.
    """
    if forbidden.n > n:
        return lambda adj, remaining: adj  # no copy fits, so every graph is free
    copy_search = _copy_search(forbidden)
    survivors_wide = _survivor_commons(forbidden)
    k = forbidden.n
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    every_pair = (True,) * len(pairs)
    over = f"edit search node limit of {node_limit} exceeded"
    nodes = 0
    failed: dict[tuple[int, ...], int] = {}  # rows -> largest depth proven hopeless

    def search(adj: tuple[int, ...], remaining: int) -> tuple[int, ...] | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise BudgetError(over)
        if failed.get(adj, -1) >= remaining:
            return None
        copy = next(copy_search(adj, n), None)
        if copy is None:
            return adj
        if remaining == 0:
            return None
        wide = survivors_wide(adj, n, copy) if remaining == 2 else every_pair
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

    return search


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

    found, _ = has_induced(g, forbidden)
    if not found:
        return EditResult(0, _normalized(0, g.n), g)

    # some flip set always works: empty the graph if the pattern has an
    # edge, complete it otherwise; that count is the standing upper bound
    pair_count = g.n * (g.n - 1) // 2
    if forbidden.edge_count() > 0:
        upper_bound = g.edge_count()
    else:
        upper_bound = pair_count - g.edge_count()
    search = _flip_search(g.n, forbidden, node_limit)
    for depth in range(1, pair_count + 1):
        try:
            rows = search(g.adj, depth)
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
    bit-for-bit for a fixed seed.
    """
    return Graph(n, _sample_rows(n, edge_count, rng))


def _sample_rows(n: int, edge_count: int, rng: random.Random) -> tuple[int, ...]:
    """The adjacency rows of ``sample_graph(n, edge_count, rng)``, drawn with
    the same ``rng`` calls but not validated as a ``Graph``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if edge_count > len(pairs):
        raise ValidationError("edge count exceeds the number of vertex pairs")
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
    That test is one depth-``best`` run of the edit search; when it exceeds
    the node limit the sample gets the exact run anyway.  ``skipped``
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
    best = Fraction(0)
    best_edits = 0
    witness: Graph | None = None
    skipped = 0
    for index in range(samples):
        rows = _sample_rows(n, edge_count, rng)
        if witness is not None:
            # ties keep the earliest sample, so one within best_edits flips
            # of the property cannot raise the maximum
            search = _flip_search(n, forbidden, node_limit)
            try:
                if search(rows, best_edits) is not None:
                    continue
            except BudgetError:
                pass  # undecided within the limit: the exact run decides
        g = Graph(n, rows)  # only a sample that gets the exact run is validated
        try:
            result = edit_distance(g, forbidden, node_limit=node_limit)
        except BudgetError:
            skipped += 1
            continue
        if result.normalized > best or witness is None:
            best = result.normalized
            best_edits = result.edits
            witness = g
    if witness is None:
        raise BudgetError(f"all {samples} samples exceeded the node limit")
    return EstimateResult(best, witness, skipped)
