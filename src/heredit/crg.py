"""Colored regularity graphs: the data model, the graph-to-CRG embedding
relation, sub-CRGs, and enumeration up to color-preserving isomorphism.

A CRG is a complete graph whose vertices are colored white or black and
whose edges are colored white, gray, or black.  Edge colors are stored in a
flat tuple in column-major pair order ((0,1), (0,2), (1,2), (0,3), ...),
which lets a CRG grow by one vertex by appending a contiguous block.
CRGs are immutable and hashable.

``embeds`` runs the pattern search that ``graphs.has_induced`` runs too
(``graphs._pattern_search``), on rows built from the CRG's colors.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from .errors import FormatError, ValidationError
from .graphs import Graph, Value, _bits, _pattern_search
from .limits import MAX_EMBED_PATTERN, MAX_ENUM_SIZE

VERTEX_COLORS = ("W", "B")
EDGE_COLORS = ("W", "G", "B")
_VERTEX_COLOR_SET = frozenset(VERTEX_COLORS)
_EDGE_COLOR_SET = frozenset(EDGE_COLORS)

DEFAULT_EMBED_BUDGET = 5_000_000


def _all_in(allowed: frozenset, colors: tuple) -> bool:
    """Every entry of ``colors`` is in ``allowed`` (one set scan, no generator)."""
    try:
        return allowed.issuperset(colors)
    except TypeError:  # an unhashable entry is not a color either
        return False


def pair_index(i: int, j: int) -> int:
    """Flat index of the unordered pair {i, j} with i < j (column-major)."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


class CRG(Value):
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
        if not _all_in(_VERTEX_COLOR_SET, self.vcolors):
            raise ValidationError(f"vertex colors must be in {VERTEX_COLORS}")
        if len(self.ecolors) != m * (m - 1) // 2:
            raise ValidationError("edge color count does not match vertex count")
        if not _all_in(_EDGE_COLOR_SET, self.ecolors):
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


class EmbeddingWitness(Value):
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


# color ranks: B=0, G=1, W=2 keep the order of the color strings
_RANK = {"B": 0, "G": 1, "W": 2}
_COLOR = "BGW"
# rank bytes to the binary digits of "the pair is not white" / "not black"
_NOT_WHITE = bytes.maketrans(b"\0\1\2", b"110")
_NOT_BLACK = bytes.maketrans(b"\0\1\2", b"011")


def _color_rows(k: CRG) -> list[list[int]]:
    """The m x m matrix of color ranks, vertex colors on the diagonal.

    Built in one column-major pass over ``vcolors``/``ecolors``.  Ranks keep
    the order of the color strings, so every comparison of rows, signatures
    or encodings gives the same answer as on the strings.
    """
    m = k.m
    rows = [[0] * m for _ in range(m)]
    colors = iter(k.ecolors)
    for j in range(m):
        row_j = rows[j]
        row_j[j] = _RANK[k.vcolors[j]]
        for i in range(j):
            rows[i][j] = row_j[i] = _RANK[next(colors)]
    return rows


def _equiv_classes(rows: list[list[int]]) -> list[int]:
    """Vertex classes under "transposition is a color automorphism".

    Swapping v and r is a color automorphism exactly when row v, with its
    entries at v and r exchanged, equals row r: that compares the two
    vertex colors and every pair (v, c) with (r, c) for c outside {v, r}.
    """
    ids = [-1] * len(rows)
    reps: list[int] = []
    for v, row_v in enumerate(rows):
        for idx, r in enumerate(reps):
            swapped = row_v[:]
            swapped[v], swapped[r] = row_v[r], row_v[v]
            if swapped == rows[r]:
                ids[v] = idx
                break
        else:
            ids[v] = len(reps)
            reps.append(v)
    return ids


def _twin_pairs(rows: list[list[int]]) -> tuple[tuple[int, int], ...]:
    """The pairs (a, b), a < b, of consecutive members of each class of
    ``_equiv_classes``: a block sorted on these pairs is sorted within every
    class."""
    last: dict[int, int] = {}
    pairs = []
    for v, c in enumerate(_equiv_classes(rows)):
        if c in last:
            pairs.append((last[c], v))
        last[c] = v
    return tuple(pairs)


def embeds(
    h: Graph, k: CRG, budget: int = DEFAULT_EMBED_BUDGET
) -> tuple[bool, EmbeddingWitness | None]:
    """Decide whether ``h`` embeds in ``k``.

    An embedding maps every edge of ``h`` onto a black vertex (both ends
    together) or a black/gray edge, and every non-edge onto a white vertex
    or a white/gray edge.  The map need not be injective.

    Backtracking with bit-parallel candidate sets (Ullmann 1976), compiled
    once per pattern (``graphs._pattern_search``): per CRG vertex a,
    ``can_edge[a]`` holds the b whose pair with a is not white (the diagonal
    is a's own color) and ``can_non[a]`` those whose pair is not black; a
    step's candidates are the AND of these masks over the earlier
    placements, taken lowest vertex first.  Unused vertices of one ``_equiv_classes``
    class are interchangeable, so a step tries only the lowest unused one.

    Placement count: a step scans the CRG vertices in ascending order,
    skipping an unused vertex that has an unused lower twin, and every
    scanned vertex is one placement, candidate or not.  The compiled search
    counts exactly that: on picking candidate b it adds the popcount of the
    not-yet-counted scan bits up to and including b, and when the loop runs
    out it adds the rest.  It checks the budget after each add and raises
    at step t; between two checks at step t only step t scans, so the error
    names the step a one-by-one count would.  Raises :class:`BudgetError`
    when the count exceeds ``budget``, so a ``False`` always means the
    search space was exhausted.  The message names the pattern step
    (0-based, of ``h.n``) that was being placed when the budget ran out.

    A pattern above ``MAX_EMBED_PATTERN`` vertices is a
    :class:`ValidationError`.  The target has no size cap: the budget
    bounds the work, and the callers bound their targets (the clique
    spectrum's walk tests fewer than ``h.n`` vertices, the CRG search at
    most ``MAX_ENUM_SIZE``).
    """
    if h.n > MAX_EMBED_PATTERN:
        raise ValidationError(f"embedding pattern capped at {MAX_EMBED_PATTERN} vertices")
    if h.n == 0:
        return True, EmbeddingWitness(())
    rows = _color_rows(k)
    digits = [bytes(reversed(row)) for row in rows]  # ranks, vertex m-1 first
    can_edge = [int(d.translate(_NOT_WHITE), 2) for d in digits]
    can_non = [int(d.translate(_NOT_BLACK), 2) for d in digits]
    members = [0] * k.m
    for v, c in enumerate(_equiv_classes(rows)):
        members[c] |= 1 << v
    twins = [c for c in members if c & c - 1]
    base = (1 << k.m) - 1 - sum(twins)  # the vertices without a twin
    mapping = _pattern_search(h)(can_edge, can_non, base, twins, budget)
    if mapping is None:
        return False, None
    return True, EmbeddingWitness(mapping)


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


def _refined_cells(rows: list[list[int]]) -> list[list[int]]:
    """Stable ordered partition of vertices by iterated color signatures.

    A vertex starts with (its color, its sorted edge colors); each round its
    signature becomes (its cell, the sorted (edge color, cell) pairs of its
    neighbors), encoded as ``color * m + cell``.  Cells are numbered in
    ascending signature order, and refinement stops when a round splits no
    cell.

    Both signatures are computed as cheaper ones that order the vertices
    the same way.  Round 0 encodes (color, -#B, -#G) of the row as one int:
    sorted color tuples of one length compare as their counts of B, then
    of G, in reverse, and the diagonal adds the same count to every vertex
    of one color.  A later round uses ``(cell, *sorted(color * m + cell))``
    over the whole row, v's own entry included: that entry is equal for
    every vertex of a cell, and the cells decide between cells.  Equal-size
    sorted tuples compare by the least element of their multisets'
    symmetric difference, which the shared entry does not change, so the
    order, and every cell, is the same.
    """
    m = len(rows)
    w = m + 1
    sig = [(row[v] * w - row.count(0)) * w - row.count(1) for v, row in enumerate(rows)]
    while True:
        ordered = sorted(set(sig))
        ids = [ordered.index(s) for s in sig]
        if len(ordered) == m:  # all singletons: no round can split further
            break
        new_sig = [
            (i, *sorted([c * m + j for c, j in zip(row, ids)]))
            for i, row in zip(ids, rows)
        ]
        if len(set(new_sig)) == len(ordered):
            break
        sig = new_sig
    cells: list[list[int]] = [[] for _ in ordered]
    for v, i in enumerate(ids):
        cells[i].append(v)
    return cells


def _canonical_key(rows: list[list[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``canonical_form`` on color rows: the representative's vertex color
    ranks and column-major edge color ranks.

    Every vertex order that lists the cells in order gives the same vertex
    colors (the first signature is the vertex's own color), so only the
    encoding is minimized.  Keys compare as the representatives'
    ``(vcolors, ecolors)`` do, since ranks keep the order of the strings.
    """
    cells = _refined_cells(rows)
    order = [v for cell in cells for v in cell]
    if len(cells) == len(rows):
        enc = tuple(rows[b][a] for j, b in enumerate(order) for a in order[:j])
    else:
        enc = min(
            tuple(rows[b][a] for j, b in enumerate(perm) for a in perm[:j])
            for perm in (
                [v for part in parts for v in part]
                for parts in itertools.product(*(itertools.permutations(c) for c in cells))
            )
        )
    return tuple(rows[v][v] for v in order), enc


def _crg_of_key(key: tuple[tuple[int, ...], tuple[int, ...]]) -> CRG:
    vranks, enc = key
    return CRG(tuple(_COLOR[c] for c in vranks), tuple(_COLOR[c] for c in enc))


def canonical_form(k: CRG) -> CRG:
    """The canonical representative of ``k``'s color-isomorphism class.

    The exact contract, which every enumeration order and search witness
    depends on:

    * vertices are split into cells by ``_refined_cells``, ordered by their
      refined signatures under the color order B < G < W;
    * among the vertex orders that list the cells in that order (any order
      inside each cell), the one with the lexicographically smallest
      column-major edge-color encoding wins.

    The representative has the winning order's vertex colors and encoding.
    Isomorphic CRGs map to equal values.  ``enumerate_crgs`` computes the
    same form from its children's color rows (``_canonical_key``).
    """
    return _crg_of_key(_canonical_key(_color_rows(k)))


def enumerate_crgs(
    max_size: int,
    keep: Callable[[CRG], bool] | None = None,
    parents: list[tuple[int, ...]] | None = None,
    roots: Iterable[CRG] | None = None,
) -> Iterator[CRG]:
    """Yield one representative per kept color-isomorphism class, sizes 1..max_size.

    The order is deterministic: ascending size, then the canonical encoding
    ``(vcolors, ecolors)``; each representative is its class's canonical form.

    ``keep`` (default: every class) must be invariant under isomorphism and
    closed under vertex deletion: if it accepts a CRG, it accepts every
    induced sub-CRG.  "Does not admit H" is such a property, because an
    embedding into a sub-CRG is an embedding into the whole.  The classes
    are built levelwise: level s is the kept classes among the roots on s
    vertices and the one-vertex extensions of the classes of level s-1,
    deduplicated by canonical form.  The default roots are the two
    one-vertex classes, so every kept class is yielded; nothing kept is
    missed, because deleting the last vertex of a kept class on s vertices
    leaves a kept class on s-1 vertices, whose canonical form is a kept
    parent, and the class is an extension of that parent (McKay 1998,
    "Isomorph-free exhaustive generation", in its plain levelwise form).

    Given ``roots`` (any CRGs; those on more than ``max_size`` vertices are
    never reached), the yield is exactly the kept classes that contain some
    root as an induced sub-CRG, in the same order as in the full
    enumeration.  By induction on size: a kept class K containing a root R
    is R itself, or K - v is kept and contains R for a vertex v outside the
    copy of R, so K extends a class of the level below; and an extension of
    a class that contains a root contains it too.

    ``parents``, when given a list, receives one tuple per yielded class,
    appended just before the class is yielded: the positions, in the
    yielded sequence, of the yielded classes among ``canonical_form(K - v)``
    over the vertices v of K (empty on one vertex).  They are exactly the
    classes of the level below whose extensions gave K: a parent P that is
    extended into K is K - v for the appended vertex v, and a yielded
    K - v is extended into K by the vertex v.  Each child records them as a
    bitmask over the level below while it is deduplicated, so no extra
    canonical form is computed.

    Given a ``keep``, a child P + w on four or more vertices is first
    sieved: for each pair {a, b} of P's vertices, the verdict of ``keep``
    on the three-vertex sub-CRG {a, b, w} is looked up by its labelled
    color ranks (at most 216 labels), and the child is dropped at the
    first rejected one.  That is exact by the contract above: a class with
    a rejected induced sub-CRG is rejected itself, and a kept class has no
    rejected sub-CRG, so the yield and the parents are those of the
    unsieved loop.  A label seen for the first time is decided through its
    triple's canonical form, so ``keep`` is called once on each
    three-vertex class that a level or the sieve meets, and once on each
    other new class; above three vertices, only on those that pass the
    sieve.

    Each parent P is extended only by the blocks that are sorted within
    its twin classes (``_equiv_classes``: the vertices whose transposition
    is a color automorphism of P).  That is exact: for twins a < b, the
    transposition (a b), with the new vertex fixed, maps the child of a
    block onto the child of that block with entries a and b exchanged, so
    both have the same class and the same parent, and sorting a block
    within each class is a product of such exchanges.

    Each surviving child is canonicalized from its parent's color rows
    with the new block appended (``_canonical_key``), and a ``CRG`` is
    built once per distinct class.
    """
    if not 1 <= max_size <= MAX_ENUM_SIZE:
        raise ValidationError(f"enumeration size capped at {MAX_ENUM_SIZE}, got {max_size}")
    if roots is None:
        roots = (CRG((c,), ()) for c in VERTEX_COLORS)
    root_keys: dict[int, set] = {}
    for r in roots:
        root_keys.setdefault(r.m, set()).add(_canonical_key(_color_rows(r)))
    vertex_ranks = tuple(_RANK[c] for c in VERTEX_COLORS)
    edge_ranks = tuple(_RANK[c] for c in EDGE_COLORS)
    verdicts: dict[tuple, bool] = {}  # three-vertex canonical key -> keep's verdict
    by_label: dict[tuple[int, ...], bool] = {}  # labelled triple ranks -> verdict

    def keep_triple(key: tuple) -> bool:
        ok = verdicts.get(key)
        if ok is None:
            ok = verdicts[key] = keep(_crg_of_key(key))
        return ok

    def sieve_passes(pair_ranks: list[tuple[int, ...]], block: tuple[int, ...], vc: int) -> bool:
        for a, b, ra, rb, rab in pair_ranks:
            label = (ra, rb, vc, rab, block[a], block[b])
            ok = by_label.get(label)
            if ok is None:
                raw, rbw = block[a], block[b]
                ok = by_label[label] = keep_triple(
                    _canonical_key([[ra, rab, raw], [rab, rb, rbw], [raw, rbw, vc]])
                )
            if not ok:
                return False
        return True

    level: list[list[list[int]]] = []  # color rows of the previous level's classes
    below = 0  # position in the yielded sequence of ``level``'s first class
    for size in range(1, max_size + 1):
        sieve = keep is not None and size >= 4
        # key -> bitmask of the positions in ``level`` it extends
        found = dict.fromkeys(root_keys.get(size, ()), 0)
        sorted_blocks: dict[tuple, list[tuple[int, ...]]] = {}  # twin pairs -> blocks
        for bit, rows in enumerate(level):
            mask = 1 << bit
            if sieve:
                pair_ranks = [
                    (a, b, rows[a][a], rows[b][b], rows[a][b])
                    for b in range(size - 1)
                    for a in range(b)
                ]
            twins = _twin_pairs(rows)
            blocks = sorted_blocks.get(twins)
            if blocks is None:
                blocks = sorted_blocks[twins] = [
                    block for block in itertools.product(edge_ranks, repeat=size - 1)
                    if all(block[a] <= block[b] for a, b in twins)
                ]
            for block in blocks:
                grown = None
                for vc in vertex_ranks:
                    if sieve and not sieve_passes(pair_ranks, block, vc):
                        continue
                    if grown is None:
                        grown = [row + [c] for row, c in zip(rows, block)]
                    key = _canonical_key(grown + [list(block) + [vc]])
                    found[key] = found.get(key, 0) | mask
        kept: list[list[list[int]]] = []
        for key in sorted(found):
            k = _crg_of_key(key)
            if keep is None or (keep_triple(key) if size == 3 else keep(k)):
                if parents is not None:
                    parents.append(tuple(below + bit for bit in _bits(found[key])))
                if size < max_size:  # the last level is never extended
                    kept.append(_color_rows(k))
                yield k
        below += len(level)
        level = kept


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
    """Parse the ``crg v1`` format; any deviation is a :class:`FormatError`.

    Every row is checked before the colours are collected, so a file that
    claims many vertices but lists short rows is refused without building
    anything as large as its claim.
    """
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
    for i, row in enumerate(rows):
        if len(row) != m - 1 - i:
            raise FormatError(f"edge row {i} must list {m - 1 - i} colors")
        if any(c not in EDGE_COLORS for c in row):
            raise FormatError(f"edge colors must be over {EDGE_COLORS}")
    # column-major: pair (i, j) is row i's entry j - 1 - i, ordered by j then i
    ecolors = tuple(rows[i][j - 1 - i] for j in range(m) for i in range(j))
    return CRG(tuple(vcolors), ecolors)


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
