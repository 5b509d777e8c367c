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
  distance function, exact whenever some optimal CRG is small enough).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .crg import CRG, crg_compact, embeds, enumerate_crgs, gray_label
from .errors import RangeError, ValidationError
from .gfun import closed_form_gray, g_value
from .graphs import Graph, build_family
from .spectrum import CliqueSpectrum, clique_spectrum

CURVE_FAMILIES = ("c8star", "ctilde", "path", "cycle")
SOURCES = ("closed_form", "gamma", "search")

MAX_SEARCH_SIZE = 4
MAX_SEARCH_SIZE_LARGE = 5


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


def _min_terms(
    terms: Sequence[tuple[int, int]], p: Fraction
) -> tuple[Fraction, tuple[str, ...]]:
    values = [(closed_form_gray(r, s, p), (r, s)) for r, s in terms]
    best = min(v for v, _ in values)
    labels = tuple(gray_label(r, s) for v, (r, s) in values if v == best)
    return best, labels


def closed_form_curve(family: str, n: int, grid: Iterable[Fraction]) -> Curve:
    """Evaluate the family's min-of-terms closed form on the grid, exactly.

    Grid points outside the stated validity interval are refused with a
    :class:`RangeError` rather than extrapolated.
    """
    terms, (lo, hi) = family_terms(family, n)
    points = [Fraction(p) for p in grid]
    bad = [p for p in points if not lo <= p <= hi]
    if bad:
        raise RangeError(
            f"{family}:{n} closed form is stated on [{lo}, {hi}]; "
            f"refusing grid points {', '.join(str(b) for b in bad)}"
        )
    samples = []
    witnesses = []
    for p in points:
        value, labels = _min_terms(terms, p)
        samples.append((p, value))
        witnesses.append(labels)
    return Curve(tuple(samples), "closed_form", tuple(witnesses))


def family_graph(family: str, n: int) -> Graph:
    """The forbidden graph whose property a curve family describes."""
    if family == "c8star":
        return build_family("c2nstar", n)
    return build_family(family, n)


def gamma_curve(
    h: Graph, grid: Iterable[Fraction], spectrum: CliqueSpectrum | None = None
) -> Curve:
    spect = clique_spectrum(h) if spectrum is None else spectrum
    points = spect.extreme_points()
    if not points:
        raise ValidationError("empty clique spectrum: every gray CRG admits the graph")
    samples = []
    witnesses = []
    for p in (Fraction(q) for q in grid):
        value, labels = _min_terms(points, p)
        samples.append((p, value))
        witnesses.append(labels)
    return Curve(tuple(samples), "gamma", tuple(witnesses))


def _search_candidates(h: Graph, m: int, allow_large: bool) -> tuple[CRG, ...]:
    if allow_large:
        if not 1 <= m <= MAX_SEARCH_SIZE_LARGE:
            raise ValidationError(
                f"bounded search size capped at {MAX_SEARCH_SIZE_LARGE}, got {m}"
            )
    elif not 1 <= m <= MAX_SEARCH_SIZE:
        raise ValidationError(
            f"bounded search size capped at {MAX_SEARCH_SIZE} "
            f"({MAX_SEARCH_SIZE_LARGE} behind allow_large), got {m}"
        )
    return _candidates(h, m)


@lru_cache
def _candidates(h: Graph, m: int) -> tuple[CRG, ...]:
    return tuple(enumerate_crgs(m, keep=lambda k: not embeds(h, k)[0]))


def bounded_min_g(
    h: Graph, m: int, p: Fraction, allow_large: bool = False
) -> SearchResult:
    """Minimum g over all CRG classes with <= m vertices not admitting ``h``.

    This upper-bounds the edit distance function of Forb(h) at p and equals
    it whenever some optimal CRG has at most m vertices.  All attaining
    CRGs are reported, in canonical enumeration order.
    """
    candidates = _search_candidates(h, m, allow_large)
    if not candidates:
        raise ValidationError("every CRG class admits the forbidden graph")
    best: Fraction | None = None
    attaining: list[CRG] = []
    for k in candidates:
        value = g_value(k, p).value
        if best is None or value < best:
            best = value
            attaining = [k]
        elif value == best:
            attaining.append(k)
    assert best is not None
    return SearchResult(best, tuple(attaining))


def search_curve(
    h: Graph, m: int, grid: Iterable[Fraction], allow_large: bool = False
) -> Curve:
    samples = []
    witnesses = []
    for p in (Fraction(q) for q in grid):
        res = bounded_min_g(h, m, p, allow_large=allow_large)
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
