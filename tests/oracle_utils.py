"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force and shares no search code with
the package: permutation-based isomorphism, exhaustive map enumeration for
embeddings, recursive path/cycle enumeration, breadth-first edit search,
a Burnside count of CRG classes, and the simplex program g solved over
every support by Gaussian elimination in ``Fraction``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

from heredit.crg import CRG, _pair_ok
from heredit.gfun import GResult
from heredit.graphs import Graph, has_induced


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
