"""Output checks for the benchmark workloads, computed without heredit.

Nothing here imports heredit.  Each check recomputes what the CLI should
print from the paper's formulas, or certifies it by brute force, so a fault
in the library cannot pass by agreeing with itself.  A check returns None
on success and raises :class:`CheckError` naming the first mismatch.
"""

from __future__ import annotations

import csv
import io
import itertools
from fractions import Fraction


class CheckError(Exception):
    """The CLI output disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def parse_fraction(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    try:
        value = Fraction(int(num), int(den) if sep else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed rational {text!r}") from exc
    return value


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# curve-c8star: the C8* edit distance function on a grid
# ---------------------------------------------------------------------------

C8STAR_SOURCES = ("closed_form", "gamma", "search")


def c8star(p: Fraction) -> Fraction:
    """ed_{Forb(C8*)}(p) = min{p/2, p(1-p)/(1+p), (1-p)/3}."""
    return min(p / 2, p * (1 - p) / (1 + p), (1 - p) / 3)


def at_most_peak(d: Fraction) -> bool:
    """d <= 3 - 2*sqrt(2), decided exactly: 2*sqrt(2) <= 3 - d."""
    return 3 - d >= 0 and (3 - d) ** 2 >= 8


def check_curve(stdout: str, grid: list[Fraction]) -> None:
    """``edcurve --family c8star --source closed_form,gamma,search --analyze``."""
    lines = stdout.splitlines()
    header = ["p"] + [f"value_{s}" for s in C8STAR_SOURCES] + ["diff"]
    _require(len(lines) == 1 + len(grid) + len(C8STAR_SOURCES),
             f"expected {1 + len(grid) + len(C8STAR_SOURCES)} lines, got {len(lines)}")
    _require(lines[0].split(",") == header, f"unexpected header {lines[0]!r}")
    for p, line in zip(grid, lines[1 : 1 + len(grid)]):
        cells = [parse_fraction(c) for c in line.split(",")]
        _require(len(cells) == len(header), f"row {line!r} has {len(cells)} cells")
        _require(cells[0] == p, f"row {line!r}: expected p = {p}")
        expected = c8star(p)
        for source, value in zip(C8STAR_SOURCES, cells[1:-1]):
            _require(value == expected,
                     f"{source} at p = {p}: got {value}, the formula gives {expected}")
        _require(cells[-1] == 0, f"diff at p = {p} is {cells[-1]}, not 0")

    d_max = max(c8star(p) for p in grid)
    p_first = next(p for p in grid if c8star(p) == d_max)
    for source, line in zip(C8STAR_SOURCES, lines[1 + len(grid) :]):
        words = line.split()
        prefix = ["analysis", f"{source}:"]
        _require(words[:2] == prefix and len(words) == 7,
                 f"unexpected analysis line {line!r}")
        fields = dict(w.split("=", 1) for w in words[2::2])
        _require(set(fields) == {"d_star", "p_star", "concavity_violations"},
                 f"unexpected analysis fields in {line!r}")
        d_star = parse_fraction(fields["d_star"])
        p_star = parse_fraction(fields["p_star"])
        _require(d_star == d_max, f"{source}: d* = {d_star}, grid maximum is {d_max}")
        _require(at_most_peak(d_star), f"{source}: d* = {d_star} exceeds 3 - 2*sqrt(2)")
        _require(p_star == p_first, f"{source}: p* = {p_star}, leftmost argmax is {p_first}")
        _require(fields["concavity_violations"] == "0",
                 f"{source}: {fields['concavity_violations']} concavity violations")


# ---------------------------------------------------------------------------
# search-m5: bounded CRG search for Forb(C4) at one p in [1/2, 1]
# ---------------------------------------------------------------------------

C4_EDGES = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def even_cycle_c4(p: Fraction) -> Fraction:
    """The even-cycle closed form for C4 on [1/2, 1]: min{p(1-p), 1-p}."""
    return min(p * (1 - p), 1 - p)


def parse_compact_crg(text: str) -> tuple[str, dict[tuple[int, int], str]]:
    """``<vertex colours>:<edge colours>``, pairs in column-major order.

    Column-major order lists (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...
    """
    vcolors, sep, ecolors = text.partition(":")
    _require(sep == ":" and vcolors != "" and set(vcolors) <= {"W", "B"},
             f"malformed CRG {text!r}")
    m = len(vcolors)
    pairs = [(i, j) for j in range(m) for i in range(j)]
    _require(len(ecolors) == len(pairs) and set(ecolors) <= {"W", "G", "B"},
             f"malformed CRG {text!r}")
    return vcolors, dict(zip(pairs, ecolors))


def is_k11(vcolors: str, ecolors: dict[tuple[int, int], str]) -> bool:
    """The class of K(1,1): one white and one black vertex, a gray edge."""
    return sorted(vcolors) == ["B", "W"] and list(ecolors.values()) == ["G"]


def c4_embeds(vcolors: str, ecolors: dict[tuple[int, int], str]) -> bool:
    """Try every map V(C4) -> V(K).

    An edge must land on a black vertex or a black/gray edge, a non-edge on
    a white vertex or a white/gray edge.
    """
    for phi in itertools.product(range(len(vcolors)), repeat=4):
        ok = True
        for u, v in itertools.combinations(range(4), 2):
            edge = (u, v) in C4_EDGES
            a, b = sorted((phi[u], phi[v]))
            if a == b:
                ok = vcolors[a] == ("B" if edge else "W")
            else:
                ok = ecolors[(a, b)] in (("B", "G") if edge else ("W", "G"))
            if not ok:
                break
        if ok:
            return True
    return False


def check_search(stdout: str, p: Fraction, m: int) -> None:
    """``search --forbid cycle:4 --max-size m --p p``."""
    rows = _csv_rows(stdout)
    _require(len(rows) == 2, f"expected a header and one row, got {len(rows)} rows")
    _require(rows[0] == ["p", "value", "source", "witness"], f"unexpected header {rows[0]}")
    _require(len(rows[1]) == 4, f"unexpected row {rows[1]}")
    p_text, value_text, source, witness_text = rows[1]
    _require(parse_fraction(p_text) == p, f"row is for p = {p_text}, expected {p}")
    value = parse_fraction(value_text)
    _require(value == even_cycle_c4(p),
             f"value {value} at p = {p}, the closed form gives {even_cycle_c4(p)}")
    _require(source == f"search-m{m}", f"unexpected source {source!r}")
    witnesses = [parse_compact_crg(w) for w in witness_text.split(";")]
    _require(any(is_k11(*k) for k in witnesses), "K(1,1) is not among the witnesses")
    for text, k in zip(witness_text.split(";"), witnesses):
        _require(len(k[0]) <= m, f"witness {text} has more than {m} vertices")
        _require(not c4_embeds(*k), f"C4 embeds in witness {text}")


# ---------------------------------------------------------------------------
# oracle-estimate: sampled finite-n edit distance to Forb(P4)
# ---------------------------------------------------------------------------


def decode_graph6(text: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmasks) of a graph6 string with n <= 62."""
    codes = [ord(ch) - 63 for ch in text]
    _require(bool(codes) and all(0 <= c <= 63 for c in codes), f"malformed graph6 {text!r}")
    n = codes[0]
    _require(n <= 62, f"graph6 {text!r}: only n <= 62 is decoded here")
    bits = [(c >> shift) & 1 for c in codes[1:] for shift in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    _require(len(codes) - 1 == (len(pairs) + 5) // 6 and not any(bits[len(pairs):]),
             f"graph6 {text!r} has the wrong length or padding")
    adj = [0] * n
    for (i, j), bit in zip(pairs, bits):
        if bit:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return n, adj


def induced_p4(adj: list[int]) -> tuple[int, ...] | None:
    """Some 4 vertices inducing a path P4, or None.

    Among graphs on 4 vertices only P4 has degree sequence 1, 1, 2, 2.
    """
    for quad in itertools.combinations(range(len(adj)), 4):
        mask = sum(1 << v for v in quad)
        if sorted((adj[v] & mask).bit_count() for v in quad) == [1, 1, 2, 2]:
            return quad
    return None


def _flip(adj: list[int], u: int, v: int) -> list[int]:
    out = list(adj)
    out[u] ^= 1 << v
    out[v] ^= 1 << u
    return out


def p4_free_within(adj: list[int], budget: int) -> list[int] | None:
    """A P4-free graph at most ``budget`` pair flips from ``adj``, or None.

    Exhaustive: a flip set that removes every induced P4 must flip a pair
    inside whichever P4 is still present, so branching on the 6 pairs of
    one P4 per level visits every flip set that could succeed.
    """
    hopeless: dict[tuple[int, ...], int] = {}

    def search(current: list[int], left: int) -> list[int] | None:
        quad = induced_p4(current)
        if quad is None:
            return current
        key = tuple(current)
        if left == 0 or hopeless.get(key, -1) >= left:
            return None
        for u, v in itertools.combinations(quad, 2):
            found = search(_flip(current, u, v), left - 1)
            if found is not None:
                return found
        hopeless[key] = left
        return None

    return search(adj, budget)


def check_estimate(stdout: str, n: int, p: Fraction) -> None:
    """``estimate --n n --p p --forbid path:4``."""
    rows = _csv_rows(stdout)
    _require(len(rows) == 2, f"expected a header and one row, got {len(rows)} rows")
    _require(rows[0] == ["max_normalized", "witness_graph6", "skipped"],
             f"unexpected header {rows[0]}")
    _require(len(rows[1]) == 3, f"unexpected row {rows[1]}")
    value_text, graph6, skipped = rows[1]
    _require(skipped == "0", f"{skipped} samples were skipped")
    order, adj = decode_graph6(graph6)
    _require(order == n, f"witness has {order} vertices, expected {n}")
    pairs = n * (n - 1) // 2
    edges = sum(row.bit_count() for row in adj) // 2
    _require(edges == int(p * pairs), f"witness has {edges} edges, expected {int(p * pairs)}")
    d = parse_fraction(value_text) * pairs
    _require(d.denominator == 1 and d >= 0, f"max_normalized {value_text} is not k/{pairs}")
    d = int(d)
    edited = p4_free_within(adj, d)
    _require(edited is not None, f"no P4-free graph within {d} flips of {graph6}")
    flips = sum((a ^ b).bit_count() for a, b in zip(adj, edited)) // 2
    _require(flips == d, f"a P4-free graph is {flips} flips from {graph6}, not {d}")
    _require(d == 0 or p4_free_within(adj, d - 1) is None,
             f"a P4-free graph lies within {d - 1} flips of {graph6}")
