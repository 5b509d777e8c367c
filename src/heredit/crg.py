"""Colored regularity graphs: the data model, the graph-to-CRG embedding
relation, sub-CRGs, and enumeration up to color-preserving isomorphism.

A CRG is a complete graph whose vertices are colored white or black and
whose edges are colored white, gray, or black.  Edge colors are stored in a
flat tuple in column-major pair order ((0,1), (0,2), (1,2), (0,3), ...),
which lets a CRG grow by one vertex by appending a contiguous block.
CRGs are immutable and hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import BudgetError, FormatError, ValidationError
from .graphs import Graph, _bits, _search_order

VERTEX_COLORS = ("W", "B")
EDGE_COLORS = ("W", "G", "B")

MAX_EMBED_PATTERN = 16
MAX_EMBED_CRG = 12
MAX_ENUM_SIZE = 5

DEFAULT_EMBED_BUDGET = 5_000_000


def pair_index(i: int, j: int) -> int:
    """Flat index of the unordered pair {i, j} with i < j (column-major)."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@dataclass(frozen=True)
class CRG:
    """Complete vertex- and edge-colored graph.

    ``vcolors`` holds one of ``"W"``/``"B"`` per vertex; ``ecolors`` holds one of
    ``"W"``/``"G"``/``"B"`` per unordered pair in column-major order.
    """

    vcolors: tuple[str, ...]
    ecolors: tuple[str, ...]

    def __post_init__(self):
        m = len(self.vcolors)
        if m < 1:
            raise ValidationError("a CRG needs at least one vertex")
        if any(c not in VERTEX_COLORS for c in self.vcolors):
            raise ValidationError(f"vertex colors must be in {VERTEX_COLORS}")
        if len(self.ecolors) != m * (m - 1) // 2:
            raise ValidationError("edge color count does not match vertex count")
        if any(c not in EDGE_COLORS for c in self.ecolors):
            raise ValidationError(f"edge colors must be in {EDGE_COLORS}")

    @property
    def m(self) -> int:
        return len(self.vcolors)

    def edge_color(self, i: int, j: int) -> str:
        if i == j:
            raise ValidationError("no self-pairs in a CRG")
        return self.ecolors[pair_index(i, j)]

    def gray_subgraph(self) -> Graph:
        """The plain graph formed by the gray edges."""
        return Graph.from_edges(
            self.m,
            [
                (i, j)
                for j in range(self.m)
                for i in range(j)
                if self.ecolors[pair_index(i, j)] == "G"
            ],
        )

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"CRG({crg_compact(self)!r})"


@dataclass(frozen=True)
class EmbeddingWitness:
    """A map from pattern-graph vertices to CRG vertices (need not be injective)."""

    mapping: tuple[int, ...]


def gray_crg(r: int, s: int) -> CRG:
    """The all-gray CRG K(r, s): r white vertices, s black vertices, gray edges."""
    if r < 0 or s < 0 or r + s < 1:
        raise ValidationError(f"K(r,s) needs r,s >= 0 and r+s >= 1, got ({r},{s})")
    m = r + s
    return CRG(("W",) * r + ("B",) * s, ("G",) * (m * (m - 1) // 2))


def swap_colors(k: CRG) -> CRG:
    """Exchange white and black on vertices and edges; gray stays fixed."""
    flip_v = {"W": "B", "B": "W"}
    flip_e = {"W": "B", "B": "W", "G": "G"}
    return CRG(
        tuple(flip_v[c] for c in k.vcolors),
        tuple(flip_e[c] for c in k.ecolors),
    )


def restrict(k: CRG, vertices: tuple[int, ...]) -> CRG:
    """The sub-CRG induced by ``vertices`` (kept in the given order)."""
    if not vertices:
        raise ValidationError("a sub-CRG needs at least one vertex")
    ecolors = tuple(
        k.edge_color(vertices[i], vertices[j])
        for j in range(len(vertices))
        for i in range(j)
    )
    return CRG(tuple(k.vcolors[v] for v in vertices), ecolors)


def sub_crgs(k: CRG) -> Iterator[CRG]:
    """Yield every nonempty proper induced sub-CRG exactly once.

    Ordered by increasing vertex-subset bitmask, so the order is
    deterministic.
    """
    m = k.m
    for mask in range(1, (1 << m) - 1):
        yield restrict(k, tuple(_bits(mask)))


def _pair_ok(k: CRG, a: int, b: int, is_edge: bool) -> bool:
    """Embedding condition for one pattern pair mapped to CRG vertices a, b."""
    if a == b:
        want = "B" if is_edge else "W"
        return k.vcolors[a] == want
    color = k.ecolors[pair_index(a, b)]
    if is_edge:
        return color in ("B", "G")
    return color in ("W", "G")


def _equiv_classes(k: CRG) -> list[int]:
    """Vertex classes under "transposition is a color automorphism"."""
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


def embeds(
    h: Graph, k: CRG, budget: int = DEFAULT_EMBED_BUDGET
) -> tuple[bool, EmbeddingWitness | None]:
    """Decide whether ``h`` embeds in ``k``.

    An embedding maps every edge of ``h`` onto a black vertex (both ends
    together) or a black/gray edge, and every non-edge onto a white vertex
    or a white/gray edge.  The map need not be injective.

    Raises :class:`BudgetError` when the backtracking search exceeds
    ``budget`` candidate placements, so a ``False`` always means the search
    space was exhausted.
    """
    if h.n > MAX_EMBED_PATTERN:
        raise ValidationError(f"embedding pattern capped at {MAX_EMBED_PATTERN} vertices")
    if k.m > MAX_EMBED_CRG:
        raise ValidationError(f"embedding target capped at {MAX_EMBED_CRG} vertices")
    if h.n == 0:
        return True, EmbeddingWitness(())

    order = _search_order(h)
    eq = _equiv_classes(k)
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
                    f"embedding search budget of {budget} placements exceeded"
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


def validate_witness(h: Graph, k: CRG, witness: EmbeddingWitness) -> bool:
    """Check a claimed embedding against the definition, pair by pair."""
    phi = witness.mapping
    if len(phi) != h.n or any(not 0 <= a < k.m for a in phi):
        return False
    return all(
        _pair_ok(k, phi[u], phi[v], h.has_edge(u, v))
        for u in range(h.n)
        for v in range(u + 1, h.n)
    )


# ---------------------------------------------------------------------------
# Canonical forms and enumeration up to color-preserving isomorphism
# ---------------------------------------------------------------------------


def _refined_cells(k: CRG) -> list[list[int]]:
    """Stable ordered partition of vertices by iterated color signatures."""
    m = k.m
    sig: list[tuple] = [
        (k.vcolors[v], tuple(sorted(k.edge_color(v, u) for u in range(m) if u != v)))
        for v in range(m)
    ]
    while True:
        ordered = sorted(set(sig))
        cell_of = {s: i for i, s in enumerate(ordered)}
        ids = [cell_of[sig[v]] for v in range(m)]
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


def canonical_form(k: CRG) -> CRG:
    """The canonical representative of ``k``'s color-isomorphism class.

    Minimizes the edge-color encoding over all vertex orders compatible
    with the refined cell partition; isomorphic CRGs map to equal values.
    """
    cells = _refined_cells(k)
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


def enumerate_crgs(
    max_size: int, keep: Callable[[CRG], bool] | None = None
) -> Iterator[CRG]:
    """Yield one representative per kept color-isomorphism class, sizes 1..max_size.

    The order is deterministic: ascending size, then the canonical encoding
    ``(vcolors, ecolors)``; each representative is its class's canonical form.

    ``keep`` (default: every class) must be invariant under isomorphism and
    closed under vertex deletion: if it accepts a CRG, it accepts every
    induced sub-CRG.  "Does not admit H" is such a property, because an
    embedding into a sub-CRG is an embedding into the whole.  The classes
    are built levelwise: level s+1 is every one-vertex extension of a kept
    class of level s, deduplicated by canonical form, and ``keep`` is called
    once per new class.  Nothing kept is missed: deleting the last vertex of
    a kept class on s+1 vertices leaves a kept class on s vertices, whose
    canonical form is a kept parent, and the class is an extension of that
    parent (McKay 1998, "Isomorph-free exhaustive generation", in its plain
    levelwise form).
    """
    if not 1 <= max_size <= MAX_ENUM_SIZE:
        raise ValidationError(f"enumeration size capped at {MAX_ENUM_SIZE}, got {max_size}")
    level = [CRG((c,), ()) for c in VERTEX_COLORS]
    for size in range(1, max_size + 1):
        if size > 1:
            level = {
                canonical_form(CRG(parent.vcolors + (vc,), parent.ecolors + block))
                for parent in level
                for vc in VERTEX_COLORS
                for block in itertools.product(EDGE_COLORS, repeat=size - 1)
            }
        level = sorted(
            (k for k in level if keep is None or keep(k)),
            key=lambda k: (k.vcolors, k.ecolors),
        )
        yield from level


# ---------------------------------------------------------------------------
# Serialization: the `crg v1` text format and a one-line compact form
# ---------------------------------------------------------------------------


def crg_to_text(k: CRG) -> str:
    """Render the bit-exact ``crg v1`` text format.

    Line 1 is ``crg v1``, line 2 the vertex colors, then one row per vertex
    i < m-1 listing the colors of pairs (i, j) for j > i.
    """
    lines = ["crg v1", "vertices: " + "".join(k.vcolors)]
    for i in range(k.m - 1):
        lines.append("".join(k.edge_color(i, j) for j in range(i + 1, k.m)))
    return "\n".join(lines) + "\n"


def crg_from_text(text: str) -> CRG:
    """Parse the ``crg v1`` format; any deviation is a :class:`FormatError`."""
    lines = text.splitlines()
    if not lines or lines[0] != "crg v1":
        raise FormatError("CRG text must start with 'crg v1'")
    if len(lines) < 2 or not lines[1].startswith("vertices: "):
        raise FormatError("CRG text must have a 'vertices: ' line")
    vcolors = lines[1][len("vertices: "):]
    if not vcolors or any(c not in VERTEX_COLORS for c in vcolors):
        raise FormatError(f"vertex colors must be over {VERTEX_COLORS}")
    m = len(vcolors)
    rows = lines[2:]
    if len(rows) != max(m - 1, 0):
        raise FormatError(f"expected {max(m - 1, 0)} edge rows, got {len(rows)}")
    ecolors = [""] * (m * (m - 1) // 2)
    for i, row in enumerate(rows):
        if len(row) != m - 1 - i:
            raise FormatError(f"edge row {i} must list {m - 1 - i} colors")
        for offset, c in enumerate(row):
            if c not in EDGE_COLORS:
                raise FormatError(f"edge colors must be over {EDGE_COLORS}")
            ecolors[pair_index(i, i + 1 + offset)] = c
    return CRG(tuple(vcolors), tuple(ecolors))


def crg_compact(k: CRG) -> str:
    """One-line encoding ``<vertex colors>:<edge colors>`` used in CSV cells."""
    return "".join(k.vcolors) + ":" + "".join(k.ecolors)


def crg_from_compact(text: str) -> CRG:
    if ":" not in text:
        raise FormatError(f"malformed compact CRG {text!r}")
    vpart, epart = text.split(":", 1)
    if not vpart or any(c not in VERTEX_COLORS for c in vpart):
        raise FormatError(f"malformed compact CRG {text!r}")
    if any(c not in EDGE_COLORS for c in epart):
        raise FormatError(f"malformed compact CRG {text!r}")
    m = len(vpart)
    if len(epart) != m * (m - 1) // 2:
        raise FormatError(f"compact CRG {text!r} has wrong edge color count")
    return CRG(tuple(vpart), tuple(epart))


def gray_label(r: int, s: int) -> str:
    """Human-facing label for K(r, s), used in curve witness columns."""
    return f"K({r},{s})"
