"""The g function of a CRG: exact minimization of x^T M x over the
probability simplex, the closed form for all-gray CRGs, p-cores, and
weighted degree statistics of optimal weight vectors.

Everything here is exact.  Write p = a/b in lowest terms; then N = b*M_K(p)
is an integer matrix with entries a (white), b-a (black) and 0 (gray).  The
solver enumerates candidate supports S and on each solves the bordered
stationarity system [[N_S, -1], [1^T, 0]] [x; mu] = [0; 1] by Bareiss's
integer-preserving elimination (E. H. Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 1968).
Every intermediate is an integer minor, and the solution comes out as
x = y/det and g = mu/b = y_mu/(det*b); a Fraction is built only for
feasible supports.  Singleton supports always solve, so the minimum is
always attained, and a global minimizer with inclusion-minimal support
always has a uniquely solvable system, which makes skipping singular
systems safe.

Supports of two or more vertices whose sub-CRG breaks the p-core structure
are skipped before solving: for p < 1/2, those with a black edge or with a
white edge at a white vertex; for p > 1/2, the color-swapped rule; at
p = 1/2 both rules, so only all-gray supports are solved.  The filter is
exact.  The witness returned has the smallest support P among optimal
weightings, and the sub-CRG K[P] is a p-core: restricting the witness shows
g(K[P]) = g(K), and a proper sub-CRG of K[P] with the same g would give an
optimal weighting of smaller support.  By the p-core structure theorem
(E. Marchant and A. Thomason, "Extremal graphs and multigraphs with two
weighted colours", 2010; R. Martin, "The edit distance function and
symmetrization", 2013) a p-core has no black edge and white edges only
between black vertices when p <= 1/2, and the color-swapped structure when
p >= 1/2.  So P passes the filter, its system is uniquely solvable by the
argument above, and no skipped support can produce the winning key.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from .crg import CRG, _color_rows
from .errors import ValidationError
from .graphs import Value
from .limits import MAX_QP_SIZE
from .rationals import format_fraction

ZERO = Fraction(0)


class PMatrix(Value):
    """The cost matrix of a CRG at density p.

    Diagonal entries are p for white vertices and 1-p for black ones;
    off-diagonal entries are p / 1-p / 0 for white / black / gray edges.
    """

    p: Fraction
    entries: tuple[tuple[Fraction, ...], ...]


class GResult(Value):
    """Optimal value of the simplex program together with one witness.

    ``weights`` has one entry per CRG vertex (zeros off the support),
    sums to one, and satisfies ``value == weights^T M weights`` exactly.
    ``support`` lists the vertices with positive weight.
    """

    value: Fraction
    weights: tuple[Fraction, ...]
    support: tuple[int, ...]

    def as_json_dict(self) -> dict:
        return {
            "value": format_fraction(self.value),
            "weights": [format_fraction(w) for w in self.weights],
            "support": list(self.support),
        }


def _scaled_matrix(k: CRG, p: Fraction) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The denominator b of p = a/b and the integer matrix N = b * M_K(p).

    Entries are a for white, b - a for black and 0 for gray; a vertex takes
    the entry of its own color on the diagonal.
    """
    if not 0 <= p <= 1:
        raise ValidationError(f"p must lie in [0,1], got {p}")
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    entry = (b - a, 0, a)  # by color rank: black, gray, white
    return b, tuple(tuple(entry[c] for c in row) for row in _color_rows(k))


def build_matrix(k: CRG, p: Fraction) -> PMatrix:
    b, rows = _scaled_matrix(k, p)
    return PMatrix(
        Fraction(p), tuple(tuple(Fraction(n, b) for n in row) for row in rows)
    )


# colors an edge may not have in a p-core, by ``core_regime``
_BANNED_EDGE_COLORS = (("B",), ("B", "W"), ("W",))


def core_regime(p: Fraction) -> int:
    """0, 1 or 2 for p < 1/2, p = 1/2 and p > 1/2.

    The p-core filter depends on p only through this regime.
    """
    return (2 * p >= 1) + (2 * p > 1)


def _core_conflicts(k: CRG, regime: int) -> tuple[int, ...]:
    """Per vertex, the bitmask of vertices it cannot share a p-core with.

    An edge whose color matches the color of one of its ends is never in a
    p-core, nor is a black edge for p <= 1/2 or a white edge for p >= 1/2
    (see the module docstring).
    """
    banned = _BANNED_EDGE_COLORS[regime]
    conflicts = [0] * k.m
    colors = iter(k.ecolors)  # column-major: (0,1), (0,2), (1,2), ...
    for j in range(k.m):
        for i in range(j):
            color = next(colors)
            if color in banned or color in (k.vcolors[i], k.vcolors[j]):
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return tuple(conflicts)


def _conflict_free(conflicts: tuple[int, ...], vertices: tuple[int, ...]) -> bool:
    """No two of ``vertices`` conflict: the sub-CRG they induce passes the
    p-core filter."""
    mask = sum(1 << u for u in vertices)
    return not any(conflicts[u] & mask for u in vertices)


def core_structured(k: CRG, regime: int) -> bool:
    """True when ``k`` as a whole passes the p-core filter of ``g_value``
    for the p of ``regime`` (see ``core_regime``).

    That is the structure every p-core has (module docstring): for p < 1/2
    no black edge and no white edge at a white vertex, for p > 1/2 the
    color-swapped rule, and at p = 1/2 both, so gray edges only.
    ``g_value`` solves exactly the supports whose sub-CRG is
    core-structured, so a witness's support is one of them.
    """
    return _conflict_free(_core_conflicts(k, regime), tuple(range(k.m)))


def _solve_support(
    n: tuple[tuple[int, ...], ...], support: tuple[int, ...]
) -> tuple[int, list[int]] | None:
    """Solve [[N_S, -1], [1^T, 0]] [x; mu] = [0; 1] by Bareiss elimination.

    Returns (det, y) with x_i = y_i / det and mu = y[-1] / det, or None when
    the system is singular.  Every division is exact, so all entries stay
    integers (they are minors of the augmented matrix).
    """
    t = len(support)
    size = t + 1
    rows = [[n[u][v] for v in support] + [-1, 0] for u in support]
    rows.append([1] * t + [0, 1])
    prev = 1
    for col in range(size):
        if rows[col][col] == 0:
            piv = next((r for r in range(col + 1, size) if rows[r][col] != 0), None)
            if piv is None:
                return None  # singular: no solution or infinitely many
            rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        pivot = pivot_row[col]
        for r in range(col + 1, size):
            row = rows[r]
            factor = row[col]
            for c in range(col + 1, size + 1):
                row[c] = (pivot * row[c] - factor * pivot_row[c]) // prev
        prev = pivot
    det = prev
    y = [0] * size
    for r in range(size - 1, -1, -1):
        row = rows[r]
        acc = det * row[size]
        for c in range(r + 1, size):
            acc -= row[c] * y[c]
        y[r] = acc // row[r]
    return det, y


def _feasible_solve(
    n: tuple[tuple[int, ...], ...], support: tuple[int, ...]
) -> tuple[int, list[int]] | None:
    """``_solve_support``, accepted only when no weight is negative.

    An accepted solution is a point of the simplex, so its value is at
    least the minimum; a global minimizer with inclusion-minimal support is
    accepted on that support (module docstring).
    """
    solved = _solve_support(n, support)
    if solved is None or any(yi * solved[0] < 0 for yi in solved[1][:-1]):
        return None
    return solved


def full_support_value(k: CRG, p: Fraction) -> Fraction | None:
    """The value of the stationary point that weights all of V(k), or None
    when its bordered system is singular or gives a negative weight.

    V(k) is the one support of ``k`` that no K - v has, so g(K) is the
    minimum of this value (when not None) and the g(K - v) over the
    vertices v (``curves.core_min_g``).
    """
    b, n = _scaled_matrix(k, p)
    solved = _feasible_solve(n, tuple(range(k.m)))
    return None if solved is None else Fraction(solved[1][-1], solved[0] * b)


def g_value(k: CRG, p: Fraction) -> GResult:
    """Minimize x^T M_K(p) x over the probability simplex, exactly.

    Ties between optimal supports break toward the smallest support size,
    then the lexicographically smallest vertex set, so the witness is
    deterministic.
    """
    if k.m > MAX_QP_SIZE:
        raise ValidationError(f"g_value supports at most {MAX_QP_SIZE} vertices, got {k.m}")
    p = Fraction(p)
    b, n = _scaled_matrix(k, p)
    conflicts = _core_conflicts(k, core_regime(p))
    m = k.m
    best_key: tuple | None = None
    best: tuple[int, list[int], tuple[int, ...]] | None = None
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            if not _conflict_free(conflicts, support):
                continue
            solved = _feasible_solve(n, support)
            if solved is None:
                continue
            det, y = solved
            positive = tuple(u for u, yi in zip(support, y) if yi != 0)
            key = (Fraction(y[size], det * b), len(positive), positive)
            if best_key is None or key < best_key:
                best_key = key
                best = (det, y, support)
    assert best_key is not None and best is not None  # singletons always solve
    det, y, support = best
    weights = [ZERO] * m
    for u, yi in zip(support, y):
        weights[u] = Fraction(yi, det)
    return GResult(best_key[0], tuple(weights), best_key[2])


def closed_form_gray(r: int, s: int, p: Fraction) -> Fraction:
    """g of the all-gray CRG K(r, s): p(1-p) / (r(1-p) + sp).

    At the two degenerate corners (p=0 with r=0, and p=1 with s=0) the
    formula reads 0/0; the continuous extension along p (1/s resp. 1/r)
    is returned there, which is what the quadratic program evaluates to.
    """
    if r < 0 or s < 0 or r + s < 1:
        raise ValidationError(f"K(r,s) needs r,s >= 0 and r+s >= 1, got ({r},{s})")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValidationError(f"p must lie in [0,1], got {p}")
    den = r * (1 - p) + s * p
    if den == 0:
        return Fraction(1, s) if p == 0 else Fraction(1, r)
    return p * (1 - p) / den


def is_p_core(k: CRG, p: Fraction) -> bool:
    """True when every proper sub-CRG has strictly larger g at this p.

    A one-vertex CRG has no proper sub-CRG and is a p-core.  Otherwise K is
    a p-core exactly when no optimal weighting of K leaves out a vertex: an
    optimal weighting that leaves out v shows g(K - v) <= g(K), and an
    optimal weighting of a proper sub-CRG K' with g(K') = g(K) extends by
    zeros to one of K that leaves out a vertex.  ``g_value``'s witness has
    the smallest support among optimal weightings (module docstring), so K
    is a p-core exactly when that support is all of V(K).  A p-core is
    core-structured at p (Marchant-Thomason 2010, Martin 2013), so a CRG
    that is not gets False before any solve.
    """
    if k.m > MAX_QP_SIZE:
        raise ValidationError(f"is_p_core supports at most {MAX_QP_SIZE} vertices, got {k.m}")
    return k.m == 1 or (
        core_structured(k, core_regime(p)) and len(g_value(k, p).support) == k.m
    )


class VertexStats(Value):
    """Weighted degree report for one vertex under an optimal weight vector.

    The vertex's own weight counts toward the class matching its vertex
    color (whites into ``white_weight``, blacks into ``black_weight``);
    under that convention the three weighted degrees sum to exactly 1.
    """

    weight: Fraction
    gray_weight: Fraction
    white_weight: Fraction
    black_weight: Fraction
    gray_degree: int


class WeightStats(Value):
    vertices: tuple[VertexStats, ...]
    gray_codegree_weight: Mapping[tuple[int, int], Fraction]
    gray_codegree_count: Mapping[tuple[int, int], int]


def weight_stats(k: CRG, res: GResult) -> WeightStats:
    """Per-vertex and pairwise gray-degree statistics for a GResult of ``k``."""
    if len(res.weights) != k.m:
        raise ValidationError("weight vector length does not match the CRG")
    per_vertex = []
    for v in range(k.m):
        sums = {"G": ZERO, "W": ZERO, "B": ZERO}
        gray_degree = 0
        for u in range(k.m):
            if u == v:
                continue
            color = k.edge_color(v, u)
            sums[color] += res.weights[u]
            if color == "G":
                gray_degree += 1
        sums[k.vcolors[v]] += res.weights[v]
        per_vertex.append(
            VertexStats(res.weights[v], sums["G"], sums["W"], sums["B"], gray_degree)
        )
    codegree_weight: dict[tuple[int, int], Fraction] = {}
    codegree_count: dict[tuple[int, int], int] = {}
    for v in range(k.m):
        for w in range(v + 1, k.m):
            total = ZERO
            count = 0
            for u in range(k.m):
                if u in (v, w):
                    continue
                if k.edge_color(u, v) == "G" and k.edge_color(u, w) == "G":
                    total += res.weights[u]
                    count += 1
            codegree_weight[(v, w)] = total
            codegree_count[(v, w)] = count
    return WeightStats(tuple(per_vertex), codegree_weight, codegree_count)
