"""Edit-distance curves: closed-form evaluation for the built-in families,
bounded CRG search, and exact curve analysis (maximum, argmax, concavity).

A curve is a finite list of exact samples (p, value).  Three sources
produce curves:

* ``closed_form_curve`` evaluates the known min-of-terms expressions for
  the chorded even cycle (``c8star``), cycles, chorded cycles (``ctilde``)
  and paths, each on its stated validity interval;
* ``gamma_curve`` evaluates the clique-spectrum upper bound;
* ``search_curve`` minimizes g over every enumerated CRG class of bounded
  size that does not admit the forbidden graph (an upper bound on the edit
  distance function, exact whenever some optimal CRG is small enough),
  solving g only on the classes that are core-structured at p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .crg import CRG, crg_compact, embeds, enumerate_crgs, gray_label
from .errors import RangeError, ValidationError
from .gfun import core_regime, core_structured, g_value
from .graphs import Graph, build_family
from .spectrum import CliqueSpectrum, gamma_points, min_gray

CURVE_FAMILIES = ("c8star", "ctilde", "path", "cycle")
SOURCES = ("closed_form", "gamma", "search")


@dataclass(frozen=True)
class Curve:
    """Exact samples of a curve on [0, 1], with per-sample witness labels."""

    samples: tuple[tuple[Fraction, Fraction], ...]
    source: str
    witnesses: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        ps = [p for p, _ in self.samples]
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValidationError("curve sample points must be strictly increasing")
        if any(not 0 <= v <= 1 for _, v in self.samples):
            raise ValidationError("curve values must lie in [0, 1]")
        if len(self.witnesses) != len(self.samples):
            raise ValidationError("one witness tuple per sample required")


@dataclass(frozen=True)
class CurveAnalysis:
    """Exact maximum, leftmost argmax, and midpoint-concavity violations."""

    d_star: Fraction
    p_star: Fraction
    concavity_violations: tuple[tuple[Fraction, Fraction, Fraction], ...]


@dataclass(frozen=True)
class SearchResult:
    """Minimum g over the candidate CRGs at one p, with every attaining CRG."""

    value: Fraction
    witnesses: tuple[CRG, ...]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def family_terms(family: str, n: int) -> tuple[tuple[tuple[int, int], ...], tuple[Fraction, Fraction]]:
    """Closed-form term list ((r, s) pairs) and validity interval for a family.

    Every term of the published formulas is the K(r, s) closed form for a
    specific gray CRG, so the curve is min over this list.
    """
    if family == "c8star":
        if n != 8:
            raise ValidationError("the c8star closed form is for order 8 exactly")
        return ((2, 0), (1, 2), (0, 3)), (Fraction(0), Fraction(1))
    if family == "ctilde":
        if n < 9:
            raise ValidationError(f"the ctilde closed form needs order >= 9, got {n}")
        return (
            ((2, 0), (1, _ceil_div(n - 1, 3) - 1), (0, _ceil_div(n - 3, 2))),
            (Fraction(0), Fraction(1)),
        )
    if family == "cycle":
        if n < 3:
            raise ValidationError(f"cycle closed form needs order >= 3, got {n}")
        third = _ceil_div(n, 3)
        terms_tail = ((1, third - 1), (0, _ceil_div(n, 2) - 1))
        if n % 2:
            return ((2, 0),) + terms_tail, (Fraction(0), Fraction(1))
        # even cycles: stated only on [1/ceil(n/3), 1] and without the p/2 term
        return terms_tail, (Fraction(1, third), Fraction(1))
    if family == "path":
        if n < 3:
            raise ValidationError(f"path closed form needs order >= 3, got {n}")
        third = _ceil_div(n - 1, 3)
        return (
            ((1, third - 1), (0, _ceil_div(n, 2) - 1)),
            (Fraction(1, third), Fraction(1)),
        )
    raise ValidationError(f"unknown curve family {family!r} (expected one of {CURVE_FAMILIES})")


def valid_interval(family: str, n: int) -> tuple[Fraction, Fraction]:
    return family_terms(family, n)[1]


def _terms_curve(
    terms: Sequence[tuple[int, int]], points: Iterable[Fraction], source: str
) -> Curve:
    """Min over ``terms`` of the K(r, s) closed form at each point, labelled
    by the attaining terms."""
    samples = []
    witnesses = []
    for p in points:
        value, attaining = min_gray(terms, p)
        samples.append((p, value))
        witnesses.append(tuple(gray_label(r, s) for r, s in attaining))
    return Curve(tuple(samples), source, tuple(witnesses))


def closed_form_terms(
    family: str, n: int, points: Sequence[Fraction]
) -> tuple[tuple[int, int], ...]:
    """The family's closed-form terms, after checking every point is covered.

    Points outside the stated validity interval are refused with a
    :class:`RangeError` rather than extrapolated.
    """
    terms, (lo, hi) = family_terms(family, n)
    bad = [p for p in points if not lo <= p <= hi]
    if bad:
        raise RangeError(
            f"{family}:{n} closed form is stated on [{lo}, {hi}]; "
            f"refusing grid points {', '.join(str(b) for b in bad)}"
        )
    return terms


def closed_form_curve(family: str, n: int, grid: Iterable[Fraction]) -> Curve:
    """Evaluate the family's min-of-terms closed form on the grid, exactly."""
    points = [Fraction(p) for p in grid]
    return _terms_curve(closed_form_terms(family, n, points), points, "closed_form")


def family_graph(family: str, n: int) -> Graph:
    """The forbidden graph whose property a curve family describes."""
    if family == "c8star":
        return build_family("c2nstar", n)
    return build_family(family, n)


def gamma_curve(
    h: Graph, grid: Iterable[Fraction], spectrum: CliqueSpectrum | None = None
) -> Curve:
    """The gamma bound (``spectrum.gamma``) on the grid, labelled by the
    attaining extreme points."""
    return _terms_curve(gamma_points(h, spectrum), (Fraction(q) for q in grid), "gamma")


@dataclass(frozen=True)
class Candidates:
    """The classes ``bounded_min_g`` minimizes over, with what its search reads.

    ``classes`` is every CRG class with <= m vertices not admitting the
    forbidden graph, in canonical enumeration order.  ``parents[i]`` holds
    the positions of the classes ``canonical_form(K - v)`` for K =
    ``classes[i]`` (see ``enumerate_crgs``), and ``cores[r]`` the positions
    of the classes that are core-structured (``gfun.core_structured``) in
    regime r of ``gfun.core_regime``: p < 1/2, p = 1/2, p > 1/2.
    """

    classes: tuple[CRG, ...]
    parents: tuple[tuple[int, ...], ...]
    cores: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def search_candidates(h: Graph, m: int) -> Candidates:
    """Enumerate the candidate classes of ``bounded_min_g`` once, with their
    parents and per-regime core-structured subsets."""
    parents: list[tuple[int, ...]] = []
    classes = tuple(enumerate_crgs(m, keep=lambda k: not embeds(h, k)[0], parents=parents))
    cores = tuple(
        tuple(i for i, k in enumerate(classes) if core_structured(k, regime))
        for regime in range(3)
    )
    return Candidates(classes, tuple(parents), cores)


def bounded_min_g(
    h: Graph, m: int, p: Fraction, candidates: Candidates | None = None
) -> SearchResult:
    """Minimum g over all CRG classes with <= m vertices not admitting ``h``.

    This upper-bounds the edit distance function of Forb(h) at p and equals
    it whenever some optimal CRG has at most m vertices.  All attaining
    CRGs are reported, in canonical enumeration order.  The size bound is
    ``enumerate_crgs``'s: m outside 1..MAX_ENUM_SIZE is a ValidationError.

    Only the core-structured candidates are solved, and the result is still
    exact.  *Value:* for any candidate K, let P be the support of
    ``g_value(K, p)``'s witness.  Then g(K[P]) = g(K), and K[P] is
    core-structured, because ``g_value`` solves only supports that pass the
    p-core filter, which is exact by the p-core structure theorem
    (Marchant and Thomason 2010; Martin 2013; see ``gfun``).  Forb(h) is
    hereditary, so K[P] is itself a candidate, and the minimum over the
    core-structured candidates is the minimum over all.  *Witnesses:* a
    core-structured K attains when its g equals the minimum.  Any other
    attaining K has P smaller than V(K), so for v outside P, K - v attains
    too; and if some K - v attains, so does K, since g cannot rise when a
    vertex is added.  So one pass in enumeration order, where every
    ``canonical_form(K - v)`` comes before K, marks K as attaining when it
    is a core-structured minimizer or one of its recorded parents attains.

    Each call enumerates the candidate classes afresh and keeps nothing
    afterwards; to evaluate many p, use ``search_curve``, which enumerates
    once and passes ``search_candidates(h, m)`` in as ``candidates``.
    """
    if candidates is None:
        candidates = search_candidates(h, m)
    classes = candidates.classes
    if not classes:
        raise ValidationError("every CRG class admits the forbidden graph")
    values = {i: g_value(classes[i], p).value for i in candidates.cores[core_regime(Fraction(p))]}
    best = min(values.values())
    attains = [False] * len(classes)
    for i, parents in enumerate(candidates.parents):
        attains[i] = values.get(i) == best or any(attains[j] for j in parents)
    return SearchResult(best, tuple(k for k, hit in zip(classes, attains) if hit))


def search_curve(
    h: Graph,
    m: int,
    grid: Iterable[Fraction],
    candidates: Candidates | None = None,
) -> Curve:
    """``bounded_min_g`` at every grid point, over one enumeration.

    ``candidates`` (default: ``search_candidates(h, m)``, enumerated here)
    lets a caller that evaluates chunks of one grid in several processes
    enumerate once and hand the classes, their parents and their
    core-structured subsets to each.  Each point solves g only on the
    candidates that are core-structured in its regime; ``bounded_min_g``
    states why that is exact.
    """
    if candidates is None:
        candidates = search_candidates(h, m)
    samples = []
    witnesses = []
    for p in (Fraction(q) for q in grid):
        res = bounded_min_g(h, m, p, candidates)
        samples.append((p, res.value))
        witnesses.append(tuple(crg_compact(k) for k in res.witnesses))
    return Curve(tuple(samples), "search", tuple(witnesses))


def curve_scan(curve: Curve) -> CurveAnalysis:
    """Exact maximum, leftmost argmax, and all midpoint-concavity violations.

    A violation is a sample triple p1 < p2 < p3 with p2 the exact midpoint
    of p1 and p3 but value(p2) < (value(p1) + value(p3)) / 2.
    """
    if len(curve.samples) < 3:
        raise ValidationError("curve analysis needs at least 3 samples")
    d_star = max(v for _, v in curve.samples)
    p_star = next(p for p, v in curve.samples if v == d_star)
    by_p = dict(curve.samples)
    points = [p for p, _ in curve.samples]
    violations = []
    for i, p1 in enumerate(points):
        for p3 in points[i + 2 :]:
            mid = (p1 + p3) / 2
            v_mid = by_p.get(mid)
            if v_mid is None:
                continue
            if 2 * v_mid < by_p[p1] + by_p[p3]:
                violations.append((p1, mid, p3))
    return CurveAnalysis(d_star, p_star, tuple(violations))
