"""Simple undirected graphs, the named graph families, and exact analysis
of paths and cycles in small graphs.

Vertices are always labelled 0..n-1.  Adjacency is stored as one bitmask
per vertex, which keeps the subgraph searches fast without third-party
dependencies.  Graph values are immutable; every operation returns a fresh
value and is safe to call from concurrent workers.

One compiled search asks both of the paper's questions of a pattern H:
does H embed in a colored regularity graph (``crg.embeds``), and does a
graph hold an induced copy of H (``has_induced``)?  ``_induced_plan`` fixes
the pattern's step order, and ``_pattern_search`` compiles a plain function
with one nested loop per step, once per pattern, so no search interprets
its plan.  A step's candidates are one AND over the edge or non-edge rows
of the earlier steps: a CRG's color rows for ``embeds``, a host's
adjacency rows and their complements for ``has_induced``.  The edit
oracle's table-driven kernels are compiled from the same plan in
``editing``.  Patterns are capped at ``MAX_EMBED_PATTERN`` vertices:
CPython caps nested blocks at 20, and the generated source grows with the
square of the pattern order.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import BudgetError, FormatError, ValidationError
from .limits import MAX_EMBED_PATTERN, parse_int

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


class Value:
    """Base of the immutable value types; a subclass's annotations are its fields.

    It gives each subclass what a frozen dataclass would, with no code
    generated at import: construction by position or keyword, then the
    class's ``__post_init__``; ``==`` (same class and equal fields) and a
    hash over the field tuple; the ``Name(field=value, ...)`` repr unless the
    class has its own; and assignment or deletion that raises
    ``AttributeError``.  Each subclass gets its own ``__init__``, ``__eq__``
    and ``__hash__`` as closures over its fields, which read them in one
    ``attrgetter`` call.  Fields live in the instance ``__dict__``, so values
    pickle as plain objects.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*fields)
        astuple = get if len(fields) > 1 else lambda obj: (get(obj),)
        post = getattr(cls, "__post_init__", None)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(fields):
                args = _bind(cls, args, kwargs)
            self.__dict__.update(zip(fields, args))
            if post is not None:
                post(self)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash(astuple(self))

        cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    """The field values of a ``Value`` call that does not pass one per field by position."""
    name, fields = cls.__name__, cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    values = dict(zip(fields, args))
    for key in kwargs:
        if key not in fields or key in values:
            raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
    values.update(kwargs)
    missing = [field for field in fields if field not in values]
    if missing:
        raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
    return [values[field] for field in fields]


def _check_order(n: int) -> None:
    """Refuse a vertex count outside 0..``MAX_VERTICES``."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValidationError(f"vertex count {n} outside 0..{MAX_VERTICES}")


class Graph(Value):
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbour bitmask of vertex v.  The adjacency must be
    symmetric and irreflexive; the constructor enforces both.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _check_order(self.n)
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
        _check_order(n)
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
    the short chord {0, 2}.  The edges are generated lazily, so
    ``Graph.from_edges`` refuses an order above ``MAX_VERTICES`` before any
    is built.
    """
    if family == "path":
        if n < 1:
            raise ValidationError(f"path needs order >= 1, got {n}")
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if family == "cycle":
        if n < 3:
            raise ValidationError(f"cycle needs order >= 3, got {n}")
        return Graph.from_edges(n, _cycle_edges(n))
    if family == "c2nstar":
        if n < 6 or n % 2:
            raise ValidationError(f"c2nstar needs an even order >= 6, got {n}")
        return Graph.from_edges(n, _cycle_edges(n, (0, n // 2)))
    if family == "ctilde":
        if n < 4:
            raise ValidationError(f"ctilde needs order >= 4, got {n}")
        return Graph.from_edges(n, _cycle_edges(n, (0, 2)))
    raise ValidationError(f"unknown family {family!r} (expected one of {FAMILIES})")


def _cycle_edges(n: int, *chords: tuple[int, int]) -> Iterator[tuple[int, int]]:
    """The edges of the n-cycle, then ``chords``."""
    for i in range(n):
        yield i, (i + 1) % n
    yield from chords


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full & ~row) & ~(1 << v) for v, row in enumerate(g.adj))
    return Graph(g.n, rows)


def _search_order(g: Graph) -> tuple[int, ...]:
    """BFS order starting from a maximum-degree vertex, restarting per component."""
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


def _induced_plan(
    pattern: Graph,
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, bool], ...], ...]]:
    """The search order of ``pattern`` and, per step t, its ``(s, is_edge)`` pairs.

    Step t places pattern vertex ``order[t]``; for every earlier step s the
    pair says whether ``order[t]`` and ``order[s]`` are adjacent in the
    pattern, so the search never asks the pattern again.  Every search
    compiled from it (``_pattern_search`` and the oracle's kernels in
    ``editing``) is cached per pattern, so a plan is built once per kernel.
    """
    order = _search_order(pattern)
    steps = tuple(
        tuple((s, pattern.has_edge(order[t], order[s])) for s in range(t))
        for t in range(pattern.n)
    )
    return order, steps


def has_induced(host: Graph, pattern: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether some vertex subset of ``host`` induces a copy of ``pattern``.

    Returns ``(found, witness)``.  The witness tuple is indexed by pattern
    vertex: ``witness[i]`` is the host vertex playing pattern vertex ``i``,
    so pairwise adjacency matches exactly (edge for edge, non-edge for
    non-edge).

    The search is a depth-first search over bitsets in the manner of
    Ullmann (1976), the pattern's ``_pattern_search``: the one
    ``crg.embeds`` runs.  Its edge rows are the host's adjacency rows, its
    non-edge rows their complements less the vertex itself, every host
    vertex is in its scan base, there are no twin classes and its budget is
    unbounded.  Its first copy is the witness: the first copy in the order
    of a recursive backtracking search over ``_search_order`` that tries
    each step's candidates in ascending order.  The oracle's table kernels
    return the same first copy, so that order is part of the contract.  It
    holds because:

    - with no twins and the full base, step t's candidates are the AND of
      the earlier steps' rows, tried lowest vertex first along
      ``_induced_plan``;
    - no row holds its own vertex, so every placement is injective;
    - the edge and non-edge rows make adjacency match edge for edge.

    A pattern with more vertices than the host returns ``(False, None)``
    at once.  Otherwise the pattern is capped at ``MAX_EMBED_PATTERN``
    (16) vertices, the cap of its compiled search: a larger one raises
    ``ValidationError``.
    """
    if pattern.n > host.n:
        return False, None
    if pattern.n == 0:
        return True, ()
    search = _pattern_search(pattern)
    full = (1 << host.n) - 1
    non = [full ^ row ^ (1 << v) for v, row in enumerate(host.adj)]
    copy = search(host.adj, non, full, (), float("inf"))
    return copy is not None, copy


@lru_cache
def _pattern_search(h: Graph) -> Callable:
    """The compiled search of ``h``: ``search(can_edge, can_non, base,
    twins, budget)``, one ``while`` loop per step of ``_induced_plan(h)``.

    It places the pattern's vertices on target vertices: ``can_edge[a]``
    holds the targets that a pattern edge at target a may meet, and
    ``can_non[a]`` those a non-edge may meet.  Step t's candidates are
    ``scan(u_t) & <one & over the can_edge/can_non rows of the earlier
    steps>``: ``u_t`` holds the targets the earlier steps use, and
    ``scan(u)`` is ``u``, ``base`` and the lowest vertex outside ``u`` of
    each ``twins`` class.  ``r_t`` holds step t's scan bits not yet counted
    as placements; past ``budget`` placements it raises ``BudgetError``.
    Returns the placements by pattern vertex, or ``None``.  Its callers
    are ``crg.embeds`` and ``has_induced``.  Built once per pattern of up
    to ``MAX_EMBED_PATTERN`` vertices; a larger one raises
    ``ValidationError``.
    """
    if h.n > MAX_EMBED_PATTERN:
        raise ValidationError(f"induced-copy pattern capped at {MAX_EMBED_PATTERN} vertices")
    order, steps = _induced_plan(h)
    n = len(order)
    witness = "".join(f"v{t}, " for t in sorted(range(n), key=order.__getitem__))
    lines = ["def search(ce, cn, base, twins, budget):", "    nodes = u0 = 0"]
    tails = []
    for t in range(n):
        pad = "    " * (t + 1)
        cands = "".join(f" & ce[v{s}]" if edge else f" & cn[v{s}]" for s, edge in steps[t])
        lines += [
            f"{pad}s = base | u{t}",
            f"{pad}for c in twins:",
            f"{pad}    c &= ~u{t}",
            f"{pad}    s |= c & -c",
            f"{pad}r{t} = s",
            f"{pad}c{t} = s{cands}",
            f"{pad}while c{t}:",
            f"{pad}    b{t} = c{t} & -c{t}",
            f"{pad}    c{t} ^= b{t}",
            f"{pad}    x = r{t} & (b{t} << 1) - 1",
            f"{pad}    nodes += x.bit_count()",
            f"{pad}    if nodes > budget:",
            f"{pad}        raise over(budget, {t})",
            f"{pad}    r{t} ^= x",
            f"{pad}    v{t} = b{t}.bit_length() - 1",
            f"{pad}    u{t + 1} = u{t} | b{t}",
        ]
        tails[:0] = [
            f"{pad}nodes += r{t}.bit_count()",
            f"{pad}if nodes > budget:",
            f"{pad}    raise over(budget, {t})",
        ]
    lines.append(f"{'    ' * (n + 1)}return ({witness})")
    lines += tails
    namespace = {
        "over": lambda budget, t: BudgetError(
            f"embedding search budget of {budget} placements exceeded "
            f"at pattern step {t} of {n}"
        )
    }
    exec("\n".join(lines), namespace)
    return namespace["search"]


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
        family = match.group(1)
        if family not in FAMILIES:
            raise ValidationError(f"unknown family {family!r} (expected one of {FAMILIES})")
        return build_family(family, parse_int(match.group(2), f"{family} order"))
    if ":" in text:
        raise ValidationError(f"malformed family spec {text!r}")
    return graph_from_graph6(text)
