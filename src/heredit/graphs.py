"""Simple undirected graphs, the named graph families, and exact analysis
of paths and cycles in small graphs.

Vertices are always labelled 0..n-1.  Adjacency is stored as one bitmask
per vertex, which keeps the subgraph searches fast without third-party
dependencies.  Graph values are immutable; every operation returns a fresh
value and is safe to call from concurrent workers.

The induced-copy searches are built once per pattern and held by their
callers.  ``_induced_plan`` fixes the pattern's step order, and
``_compile_loops`` compiles a plain function with one nested loop per step,
so no search interprets its plan.  Every caller takes only the first copy,
so the searches return it, indexed by pattern vertex, or ``None``
(``_first_copy``).  ``has_induced`` uses ``_copy_search``, whose loops peel
candidate bits and take hosts of any size.  The loops' other form reads
each candidate mask's vertices from a table with one row per mask; the
edit oracle (``editing``), whose hosts are small, builds its kernels in
that form, and they return the same first copy.  Patterns are capped at ``MAX_EMBED_PATTERN`` vertices: CPython
caps nested blocks at 20, and the generated source grows with the square
of the pattern order.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import FormatError, ValidationError
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


class Graph(Value):
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


@lru_cache
def _induced_plan(
    pattern: Graph,
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, bool], ...], ...]]:
    """The search order of ``pattern`` and, per step t, its ``(s, is_edge)`` pairs.

    Step t places pattern vertex ``order[t]``; for every earlier step s the
    pair says whether ``order[t]`` and ``order[s]`` are adjacent in the
    pattern, so the search never asks the pattern again.  Cached per pattern:
    it is the one plan of a pattern that ``crg.embeds`` reads and that the
    pattern's ``_copy_search`` is built from.
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
    Ullmann (1976): step t narrows the host vertices that may play pattern
    vertex ``order[t]`` by the host rows of every earlier step.  The
    witness is the first copy of the pattern's ``_copy_search``, built once
    per pattern.  Steps follow ``_search_order`` and each step tries its
    candidates in ascending order, so the witness is the first copy in that
    order: the same copy a recursive backtracking search over
    ``_search_order`` returns.  The oracle's table kernels return the same
    first copy, so that order is part of the contract.

    A pattern with more vertices than the host returns ``(False, None)``
    at once.  Otherwise the pattern is capped at ``MAX_EMBED_PATTERN``
    (16) vertices, the cap of its compiled search: a larger one raises
    ``ValidationError``.
    """
    if pattern.n > host.n:
        return False, None
    if pattern.n == 0:
        return True, ()
    copy = _copy_search(pattern)(host.adj, host.n)
    return copy is not None, copy


@lru_cache
def _copy_search(
    pattern: Graph,
) -> Callable[[tuple[int, ...], int], tuple[int, ...] | None]:
    """The induced-copy search of ``pattern``: ``first_copy(adj, n)``.

    It returns the first induced copy of ``pattern`` in the host rows
    ``adj`` on vertices 0..n-1, or ``None``: ``copy[i]`` is the host vertex
    playing pattern vertex i.  Order contract: the first copy of the
    depth-first search whose steps follow the ``_induced_plan`` order and
    try their candidates in ascending host order.  It is ``has_induced``'s
    witness, and the oracle's table kernels return the same first copy.

    Built once per pattern of 1 to ``MAX_EMBED_PATTERN`` vertices, as
    ``_compile_loops``' bit-peeling loops, so the host may have any size;
    a larger pattern raises ``ValidationError``.
    """
    return _first_copy(pattern, table=False)


def _first_copy(pattern: Graph, table: bool) -> Callable:
    """Compile the first-copy search of ``pattern``: ``first_copy(adj, n)``,
    or with ``table`` ``first_copy(adj, n, vb)`` (``_compile_loops``)."""
    plan = _induced_plan(pattern)
    where = sorted(range(pattern.n), key=plan[0].__getitem__)  # step placing each vertex
    copy = "".join(f"v{t}, " for t in where)
    return _compile_loops(plan, "first_copy", [], [f"return ({copy})"], table=table)


def _compile_loops(
    plan: tuple[tuple[int, ...], tuple[tuple[tuple[int, bool], ...], ...]],
    name: str,
    head: Iterable[str],
    leaf: Iterable[str],
    tail: Iterable[str] = (),
    table: bool = False,
) -> Callable:
    """Compile ``def <name>(adj, n):``, or with ``table`` ``def <name>(adj,
    n, vb):``, running one nested loop per step of ``plan`` over the host
    rows ``adj`` on vertices 0..n-1.

    The body is the ``head`` lines, then the loops, with the ``leaf`` lines
    run once per induced copy at the innermost level, then the ``tail``
    lines.  Loop t takes each candidate of ``c_t`` in ascending order as
    the host vertex ``v_t`` with bit ``b_t``, in one of two forms:

    - ``while c_t:`` peels the lowest bit, ``b_t = c_t & -c_t``, clears it
      and sets ``v_t = b_t.bit_length() - 1``; it takes hosts of any size.
    - with ``table``, ``for v_t, b_t in vb[c_t]:`` reads them from
      ``vb``, whose row c lists the ``(v, 1 << v)`` pairs of the set bits
      of c in ascending v (``editing._vertex_table``).

    Then the candidates of step t + 1 are one ``&`` over the earlier steps:
    ``adj[v_s]`` for a pattern edge, ``non_s`` for a non-edge.
    ``non_s = full ^ adj[v_s] ^ b_s`` is every other host vertex not
    adjacent to ``v_s``; it is computed once per placement, and only for a
    step that some later step is not adjacent to, so a search costs nothing
    per host vertex up front.  Every step after the first is constrained by
    every earlier step, and neither row holds its own vertex, so no placed
    vertex is a candidate again and no mask of used vertices is kept.  The
    leaf sees ``v_t`` and ``b_t`` of every step t.  A plan of more than
    ``MAX_EMBED_PATTERN`` steps raises ``ValidationError``.
    """
    _, steps = plan
    k = len(steps)
    if k > MAX_EMBED_PATTERN:
        raise ValidationError(f"induced-copy pattern capped at {MAX_EMBED_PATTERN} vertices")
    lines = [f"def {name}(adj, n{', vb' if table else ''}):", *(f"    {line}" for line in head)]
    lines += ["    full = (1 << n) - 1", "    c0 = full"]
    for t in range(k):
        pad = "    " * (t + 1)
        if table:
            lines.append(f"{pad}for v{t}, b{t} in vb[c{t}]:")
        else:
            lines += [
                f"{pad}while c{t}:",
                f"{pad}    b{t} = c{t} & -c{t}",
                f"{pad}    c{t} ^= b{t}",
                f"{pad}    v{t} = b{t}.bit_length() - 1",
            ]
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
