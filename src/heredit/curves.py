"""Edit-distance curves: closed-form evaluation for the built-in families,
bounded CRG search, and exact curve analysis (maximum, argmax, concavity).

A curve is a finite list of exact samples (p, value).  Three sources
produce curves:

* ``closed_form_curve`` evaluates the known min-of-terms expressions for
  the chorded even cycle (``c8star``), cycles, chorded cycles (``ctilde``)
  and paths, each on its stated validity interval;
* ``gamma_curve`` evaluates the clique-spectrum upper bound;
* ``search_curve`` minimizes g over every CRG class of bounded size that
  does not admit the forbidden graph (an upper bound on the edit distance
  function, exact whenever some optimal CRG is small enough), computing g
  only on the classes that are core-structured at p and enumerating the
  others only where they contain an attaining one.

The search has two stages.  The core pass, ``core_min_g``, gives each
point's value and attaining cores; it alone is exact for the values, and
it takes each core's g from its parents' g and one full-support solve.
The growth pass then finds every attaining class, the witnesses that
``search_curve`` and ``bounded_min_g`` report.  ``core_curve`` runs the
core pass only, for callers that want the values and no witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .crg import CRG, crg_compact, embeds, enumerate_crgs, gray_label
from .errors import RangeError, ValidationError
from .gfun import core_regime, core_structured, full_support_value
from .graphs import Graph, Value, build_family
from .limits import CURVE_FAMILIES, SOURCES
from .spectrum import CliqueSpectrum, gamma_points, min_gray


class Curve(Value):
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


class CurveAnalysis(Value):
    """Exact maximum, leftmost argmax, and midpoint-concavity violations."""

    d_star: Fraction
    p_star: Fraction
    concavity_violations: tuple[tuple[Fraction, Fraction, Fraction], ...]


class SearchResult(Value):
    """Minimum g over the candidate CRGs at one p, with the attaining CRGs:
    every attaining class from ``bounded_min_g``, the attaining cores from
    ``core_min_g``."""

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
        # C3 = K3 embeds in K(0, 1), so the (0, ceil(n/2) - 1) term first
        # holds at order 4
        if n < 4:
            raise ValidationError(f"cycle closed form needs order >= 4, got {n}")
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


def core_min_g(h: Graph, m: int, points: Sequence[Fraction]) -> list[SearchResult]:
    """Per point, ``bounded_min_g``'s value and its attaining cores.

    One enumeration keeps the classes on at most m vertices that do not
    admit ``h`` and are core-structured (``gfun.core_structured``) in the
    regime of some point; both properties are closed under vertex deletion,
    and the cheap one is tested first.  A point's value is the minimum of g
    over its regime's cores, which is the minimum over every class on at
    most m vertices not admitting ``h`` (the first fact in
    ``bounded_min_g``), and its witnesses are the cores where g equals it,
    in enumeration order.  The size bound is ``enumerate_crgs``'s.

    g is not solved per core: each point walks its regime's cores in
    enumeration order and sets

        g(K) = min(full-support value of K, g(K - v) over K's parents),

    the full-support value taken only when it exists
    (``gfun.full_support_value``).  This equals ``g_value(K, p).value``,
    by induction on size.  Core structure is hereditary, so every subset
    of V(K) passes ``g_value``'s filter, and ``g_value(K)`` is the minimum
    over all supports S of the full-support value of K[S].  The proper
    supports lie in the K - v, whose ``g_value`` is that minimum over their
    own supports.  The ``keep`` is hereditary, so every K - v is kept, and
    ``parents`` records exactly the yielded classes K - v (the
    ``enumerate_crgs`` contract), which are cores of the same regime, met
    earlier.  So each core and point costs one support solve.
    """
    regimes = {core_regime(p) for p in points}
    parents: list[tuple[int, ...]] = []
    cores = tuple(enumerate_crgs(
        m,
        keep=lambda k: any(core_structured(k, r) for r in regimes) and not embeds(h, k)[0],
        parents=parents,
    ))
    structured = {r: [core_structured(k, r) for k in cores] for r in regimes}
    results = []
    for p in points:
        g: dict[int, Fraction] = {}  # by position in cores, the regime's cores
        for i, inside in enumerate(structured[core_regime(p)]):
            if inside:
                full = full_support_value(cores[i], p)
                below = [g[j] for j in parents[i]]
                g[i] = min(below if full is None else [full, *below])
        if not g:  # a class not admitting h has a one-vertex core
            raise ValidationError("every CRG class admits the forbidden graph")
        best = min(g.values())
        results.append(SearchResult(best, tuple(cores[i] for i, v in g.items() if v == best)))
    return results


def _grow(h: Graph, m: int, cores: Sequence[SearchResult]) -> list[SearchResult]:
    """Every attaining class per point, from ``core_min_g``'s results.

    Enumerate the classes that do not admit ``h`` from the union of the
    attaining cores as roots, so each grown class contains one.  A grown
    class carries a bitmask over the roots: its own bit, ORed with its
    recorded parents' masks, which by induction on size is the set of
    roots it contains.  A point's witnesses are the grown classes whose
    mask meets its own attaining cores.  ``bounded_min_g`` states why this
    is exact.
    """
    roots = list(dict.fromkeys(k for res in cores for k in res.witnesses))
    root_bit = {k: 1 << i for i, k in enumerate(roots)}
    parents: list[tuple[int, ...]] = []
    grown = tuple(enumerate_crgs(
        m, keep=lambda k: not embeds(h, k)[0], parents=parents, roots=roots
    ))
    contains: list[int] = []  # per grown class, the bitmask of the roots in it
    for k, below in zip(grown, parents):
        mask = root_bit.get(k, 0)
        for j in below:
            mask |= contains[j]
        contains.append(mask)
    results = []
    for res in cores:
        target = sum(root_bit[k] for k in res.witnesses)
        witnesses = tuple(k for k, mask in zip(grown, contains) if mask & target)
        results.append(SearchResult(res.value, witnesses))
    return results


def bounded_min_g(h: Graph, m: int, p: Fraction) -> SearchResult:
    """Minimum g over all CRG classes with <= m vertices not admitting ``h``.

    This upper-bounds the edit distance function of Forb(h) at p and equals
    it whenever some optimal CRG has at most m vertices.  All attaining
    CRGs are reported, in canonical enumeration order.  The size bound is
    ``enumerate_crgs``'s: m outside 1..MAX_ENUM_SIZE is a ValidationError.

    The search enumerates only the classes that are core-structured at p
    (the cores) and then the classes that contain an attaining core, and
    the result is still exact.  The p-core structure theorem (E. Marchant
    and A. Thomason, "Extremal graphs and multigraphs with two weighted
    colours", 2010; R. Martin, "The edit distance function and
    symmetrization", 2013) makes ``g_value``'s p-core filter exact (see
    ``gfun``), and every fact below rests on it.

    * Let K be an attaining class and P the support of ``g_value(K, p)``'s
      witness.  Then g(K[P]) = g(K), and K[P] is core-structured, since
      ``g_value`` solves only supports that pass the filter.  Forb(h) is
      hereditary, so K[P] is a core that attains: the minimum over the
      cores is the minimum over all classes, and K[P] is a root.
    * If P is all of V(K), K is that root.  Otherwise, for v outside P,
      K - v attains (its g lies between g(K) and g(K[P])) and contains
      K[P].  By induction on size, K - v is a grown class, and K extends
      it, so K is grown too, and its roots include K[P].
    * Conversely, g cannot rise when a vertex is added, so a grown class
      that contains an attaining core has g at most the minimum, and
      attains.

    ``search_curve`` runs the same stages for a whole grid at once.
    """
    return _grow(h, m, core_min_g(h, m, [Fraction(p)]))[0]


def search_curve(h: Graph, m: int, grid: Iterable[Fraction]) -> Curve:
    """``bounded_min_g`` at every grid point, over one core pass and one
    growth pass.

    The core pass keeps the classes that are core-structured in some regime
    of the grid, and each point computes g only on its regime's cores.  The
    growth pass starts from the union of every point's attaining cores: a
    class attaining at p contains an attaining core of p (``bounded_min_g``
    gives the argument, after Marchant and Thomason 2010 and Martin 2013),
    so it contains a root, and a point's witnesses are the grown classes
    that contain one of its own attaining cores.  Nothing is kept between
    calls.
    """
    points = [Fraction(q) for q in grid]
    return _results_curve(points, _grow(h, m, core_min_g(h, m, points)))


def core_curve(h: Graph, m: int, grid: Iterable[Fraction]) -> Curve:
    """``search_curve``'s values from the core pass alone, each point
    labelled by its attaining cores (``core_min_g``) instead of every
    attaining class.  No growth pass runs, so this is the cheap way to get
    the values when the witnesses are not wanted."""
    points = [Fraction(q) for q in grid]
    return _results_curve(points, core_min_g(h, m, points))


def _results_curve(points: Sequence[Fraction], results: Sequence[SearchResult]) -> Curve:
    return Curve(
        tuple((p, res.value) for p, res in zip(points, results)),
        "search",
        tuple(tuple(crg_compact(k) for k in res.witnesses) for res in results),
    )


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
