"""Simple undirected graphs, the named graph families, and exact analysis
of paths and cycles in small graphs.

Vertices are always labelled 0..n-1.  Adjacency is stored as one bitmask
per vertex, which keeps the subgraph searches fast without third-party
dependencies.  Graph values are immutable; every operation returns a fresh
value and is safe to call from concurrent workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import FormatError, ValidationError

MAX_VERTICES = 4096
PROFILE_MAX_VERTICES = 16

FAMILIES = ("path", "cycle", "c2nstar", "ctilde")

_FAMILY_SPEC_RE = re.compile(r"^([a-z0-9]+):(\d+)$")


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbour bitmask of vertex v.  The adjacency must be
    symmetric and irreflexive; the constructor enforces both.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValidationError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValidationError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & (1 << v):
                raise ValidationError(f"self-loop at vertex {v}")
            if row & ~full:
                raise ValidationError(f"adjacency of vertex {v} references missing vertices")
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if not (self.adj[u] >> v) & 1:
                    raise ValidationError(f"asymmetric adjacency between {u} and {v}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if not 0 <= n <= MAX_VERTICES:
            raise ValidationError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v
        )

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def build_family(family: str, n: int) -> Graph:
    """Build one of the named families: path, cycle, c2nstar, ctilde.

    ``c2nstar`` takes the full (even) order, so ``build_family("c2nstar", 8)``
    is the 8-cycle with the long chord {0, 4}.  ``ctilde`` is the n-cycle with
    the short chord {0, 2}.
    """
    if family == "path":
        if n < 1:
            raise ValidationError(f"path needs order >= 1, got {n}")
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        if n < 3:
            raise ValidationError(f"cycle needs order >= 3, got {n}")
        return Graph.from_edges(n, _cycle_edges(n))
    if family == "c2nstar":
        if n < 6 or n % 2:
            raise ValidationError(f"c2nstar needs an even order >= 6, got {n}")
        return Graph.from_edges(n, _cycle_edges(n) + [(0, n // 2)])
    if family == "ctilde":
        if n < 4:
            raise ValidationError(f"ctilde needs order >= 4, got {n}")
        return Graph.from_edges(n, _cycle_edges(n) + [(0, 2)])
    raise ValidationError(f"unknown family {family!r} (expected one of {FAMILIES})")


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full & ~row) & ~(1 << v) for v, row in enumerate(g.adj))
    return Graph(g.n, rows)


@lru_cache
def _search_order(g: Graph) -> tuple[int, ...]:
    """BFS order starting from a maximum-degree vertex, restarting per component.

    Cached: the searches ask for the order of the same few patterns many times.
    """
    order: list[int] = []
    seen = [False] * g.n
    while len(order) < g.n:
        start = max(
            (v for v in range(g.n) if not seen[v]),
            key=lambda v: (g.degree(v), -v),
        )
        queue = [start]
        seen[start] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in _bits(g.adj[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return tuple(order)


def has_induced(host: Graph, pattern: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether some vertex subset of ``host`` induces a copy of ``pattern``.

    Returns ``(found, witness)``.  The witness tuple is indexed by pattern
    vertex: ``witness[i]`` is the host vertex playing pattern vertex ``i``,
    so pairwise adjacency matches exactly (edge for edge, non-edge for
    non-edge).
    """
    if pattern.n > host.n:
        return False, None
    if pattern.n == 0:
        return True, ()

    order = _search_order(pattern)
    full = (1 << host.n) - 1
    chosen = [-1] * pattern.n
    used = 0

    def extend(t: int) -> bool:
        nonlocal used
        if t == pattern.n:
            return True
        pv = order[t]
        cands = full & ~used
        for s in range(t):
            qv = order[s]
            hv = chosen[qv]
            if pattern.has_edge(pv, qv):
                cands &= host.adj[hv]
            else:
                cands &= ~host.adj[hv]
            if not cands:
                return False
        for hv in _bits(cands):
            chosen[pv] = hv
            used |= 1 << hv
            if extend(t + 1):
                return True
            used &= ~(1 << hv)
            chosen[pv] = -1
        return False

    if extend(0):
        return True, tuple(chosen)
    return False, None


class PathCycleProfile(NamedTuple):
    longest_path_order: int
    cycle_lengths: frozenset[int]
    hamiltonian: bool


def path_cycle_profile(g: Graph) -> PathCycleProfile:
    """Exhaustive path/cycle census of a small graph.

    Returns the order (vertex count) of a longest simple path, the set of
    lengths of simple cycles present, and whether the graph is Hamiltonian.
    Uses subset dynamic programming, so the graph is capped at
    ``PROFILE_MAX_VERTICES`` vertices.
    """
    n = g.n
    if n > PROFILE_MAX_VERTICES:
        raise ValidationError(
            f"path_cycle_profile supports at most {PROFILE_MAX_VERTICES} vertices, got {n}"
        )
    if n == 0:
        return PathCycleProfile(0, frozenset(), False)

    # Longest path: paths[mask] = bitmask of vertices that end a simple path
    # visiting exactly `mask`.
    size = 1 << n
    paths = [0] * size
    for v in range(n):
        paths[1 << v] = 1 << v
    longest = 1
    for mask in range(size):
        ends = paths[mask]
        if not ends:
            continue
        count = mask.bit_count()
        if count > longest:
            longest = count
        for v in _bits(ends):
            for w in _bits(g.adj[v] & ~mask):
                paths[mask | (1 << w)] |= 1 << w

    # Cycle lengths: root each cycle at its minimum vertex r and run the same
    # DP restricted to vertices >= r, starting from r.
    lengths: set[int] = set()
    for r in range(n):
        allowed = ((1 << n) - 1) & ~((1 << r) - 1)
        dp = [0] * size
        dp[1 << r] = 1 << r
        for mask in range(size):
            if not (mask >> r) & 1 or mask & ~allowed:
                continue
            ends = dp[mask]
            if not ends:
                continue
            count = mask.bit_count()
            if count >= 3 and count not in lengths:
                for v in _bits(ends):
                    if v != r and (g.adj[v] >> r) & 1:
                        lengths.add(count)
                        break
            for v in _bits(ends):
                for w in _bits(g.adj[v] & allowed & ~mask):
                    dp[mask | (1 << w)] |= 1 << w

    return PathCycleProfile(longest, frozenset(lengths), n >= 3 and n in lengths)


# ---------------------------------------------------------------------------
# graph6 format (bit-exact per the de-facto format description)
# ---------------------------------------------------------------------------

_GRAPH6_HEADER = ">>graph6<<"


def graph_to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header, no trailing newline)."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = chr(126) + "".join(
            chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
        )
    else:  # MAX_VERTICES keeps us far below this, but fail loudly
        raise ValidationError(f"graph6 encoding for n={n} not supported")

    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return prefix + "".join(chars)


def graph_from_graph6(text: str) -> Graph:
    """Parse a graph6 string; strict about length, alphabet and padding."""
    data = text.strip()
    if data.startswith(_GRAPH6_HEADER):
        data = data[len(_GRAPH6_HEADER):]
    if not data:
        raise FormatError("empty graph6 string")
    values = []
    for ch in data:
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise FormatError(f"invalid graph6 character {ch!r}")
        values.append(code)

    if values[0] <= 62:
        n = values[0]
        body = values[1:]
    else:
        if len(values) < 4:
            raise FormatError("truncated graph6 vertex count")
        if values[1] == 63:
            raise FormatError("graph6 vertex counts above 258047 are not supported")
        n = (values[1] << 12) | (values[2] << 6) | values[3]
        if n <= 62:
            raise FormatError("non-canonical graph6 vertex count encoding")
        body = values[4:]
    if n > MAX_VERTICES:
        raise FormatError(f"graph6 vertex count {n} exceeds cap {MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise FormatError("graph6 body length does not match vertex count")

    bits = []
    for value in body:
        for shift in range(5, -1, -1):
            bits.append((value >> shift) & 1)
    if any(bits[nbits:]):
        raise FormatError("nonzero padding bits in graph6 string")

    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(rows))


def parse_graph_spec(text: str) -> Graph:
    """Parse either a family spec like ``c2nstar:8`` or a graph6 string."""
    text = text.strip()
    match = _FAMILY_SPEC_RE.match(text)
    if match:
        family, order = match.group(1), int(match.group(2))
        if family not in FAMILIES:
            raise ValidationError(f"unknown family {family!r} (expected one of {FAMILIES})")
        return build_family(family, order)
    if ":" in text:
        raise ValidationError(f"malformed family spec {text!r}")
    return graph_from_graph6(text)
