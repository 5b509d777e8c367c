"""Ground-truth finite-n edit distance to a single-forbidden-graph property.

``edit_distance`` finds the exact minimum number of vertex-pair flips that
make a graph free of an induced copy of the forbidden graph, by iterative
deepening: at each depth the search locates one induced copy and branches
only on the pairs inside it, since any valid edit set must touch every
copy.

Every graph whose subtree fails is remembered with the remaining depth it
failed at and the induced copy found in it.  A later visit with at most
that depth left fails at once; one with more depth left reuses the stored
copy instead of searching again, since ``has_induced`` is deterministic and
would return the same copy.  Both are exact: only graphs that contain a
copy are stored, so a hit never hides a graph that is already free, and the
search visits the same nodes and returns the same witness as one that
called ``has_induced`` at every node.

``max_dist_estimate`` samples fixed-edge-count random graphs and
reports the largest oracle distance seen; that is a lower bound on the
finite-n maximum at that density, not an estimate of the asymptotic limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, ValidationError
from .graphs import Graph, has_induced

MAX_ORACLE_VERTICES = 10
MAX_ESTIMATE_VERTICES = 9
DEFAULT_NODE_LIMIT = 2_000_000


@dataclass(frozen=True)
class EditResult:
    """Exact edit distance with a witness of the edited graph.

    ``normalized`` is edits / C(n, 2), taken to be 0 when n <= 1.
    """

    edits: int
    normalized: Fraction
    witness: Graph


@dataclass(frozen=True)
class EstimateResult:
    max_normalized: Fraction
    witness: Graph | None
    skipped: int


def _flip(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph._unchecked(g.n, tuple(rows))


def _normalized(edits: int, n: int) -> Fraction:
    pairs = n * (n - 1) // 2
    return Fraction(edits, pairs) if pairs else Fraction(0)


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
    max_depth = pair_count
    nodes = 0
    # graph -> (largest remaining depth proven hopeless, induced copy found)
    failed: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}

    def search(current: Graph, remaining: int) -> Graph | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise BudgetError(
                f"edit search node limit of {node_limit} exceeded at depth {depth}; "
                f"the distance lies in [{depth}, {upper_bound}]",
                best_bound=upper_bound,
            )
        stored = failed.get(current.adj)
        if stored is None:
            found, copy = has_induced(current, forbidden)
            if not found:
                return current
            if remaining == 0:
                return None
        elif stored[0] >= remaining:
            return None
        else:
            copy = stored[1]
        for i in range(len(copy)):
            for j in range(i + 1, len(copy)):
                child = _flip(current, copy[i], copy[j])
                result = search(child, remaining - 1)
                if result is not None:
                    return result
        failed[current.adj] = (remaining, copy)
        return None

    for depth in range(1, max_depth + 1):
        witness = search(g, depth)
        if witness is not None:
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
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if edge_count > len(pairs):
        raise ValidationError("edge count exceeds the number of vertex pairs")
    for t in range(edge_count):
        swap = t + rng.randrange(len(pairs) - t)
        pairs[t], pairs[swap] = pairs[swap], pairs[t]
    return Graph.from_edges(n, pairs[:edge_count])


def max_dist_estimate(
    n: int,
    p: Fraction,
    forbidden: Graph,
    samples: int,
    seed: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> EstimateResult:
    """Max oracle distance over random graphs with floor(p*C(n,2)) edges.

    A sampled lower bound on the finite-n maximum at this density.  Samples
    whose oracle run exceeds the node limit are skipped and counted.  Ties
    keep the earliest sample, so the result is deterministic per seed.
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
        g = sample_graph(n, edge_count, rng)
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
