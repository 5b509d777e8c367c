"""Clique spectra of single-forbidden-graph properties and the gamma bound.

The clique spectrum of Forb(H) is the set of pairs (r, s) such that H does
not embed in the all-gray CRG K(r, s).  It is downward closed, so it is
fully described by its maximal points; gamma is the minimum of the K(r, s)
closed form over the spectrum and upper-bounds the edit distance function.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .crg import embeds, gray_crg
from .errors import ValidationError
from .gfun import closed_form_gray
from .graphs import Graph, Value
from .limits import MAX_EMBED_CRG


class CliqueSpectrum(Value):
    """Membership of (r, s) points inside the computed bounds.

    ``members`` excludes the vacuous point (0, 0); bounds are inclusive.
    """

    members: frozenset[tuple[int, int]]
    r_max: int
    s_max: int

    def boundary_profile(self) -> tuple[tuple[int, int], ...]:
        """For each r that appears, the pair (r, max s); sorted by r."""
        best: dict[int, int] = {}
        for r, s in self.members:
            best[r] = max(best.get(r, -1), s)
        return tuple(sorted(best.items()))

    def extreme_points(self) -> tuple[tuple[int, int], ...]:
        """Maximal members under the coordinatewise order, r descending."""
        out = []
        for point in self.members:
            r, s = point
            dominated = any(
                q != point and q[0] >= r and q[1] >= s for q in self.members
            )
            if not dominated:
                out.append(point)
        return tuple(sorted(out, reverse=True))


def clique_spectrum(
    h: Graph, r_max: int | None = None, s_max: int | None = None
) -> CliqueSpectrum:
    """Compute the whole spectrum; report bounds of at least r_max and s_max.

    Every member has r + s < |V(h)|: once r + s reaches |V(h)| the graph
    embeds by mapping its vertices injectively to the CRG's vertices, which
    sends every pair to a gray edge.  So one pass over 1 <= r + s < |V(h)|
    finds every member, whatever bounds are requested.  The reported bounds
    (default |V(h)|) are raised to one past the largest member coordinate,
    so no member ever touches the box edge.

    The largest K(r, s) tested has |V(h)| - 1 vertices, and ``embeds``
    takes targets of at most ``MAX_EMBED_CRG`` vertices, so ``h`` may have
    at most ``MAX_EMBED_CRG + 1``.
    """
    if h.n < 1:
        raise ValidationError("clique spectrum needs a nonempty forbidden graph")
    if h.n > MAX_EMBED_CRG + 1:
        raise ValidationError(
            f"clique spectrum capped at {MAX_EMBED_CRG + 1}-vertex forbidden graphs"
        )
    r_bound = h.n if r_max is None else r_max
    s_bound = h.n if s_max is None else s_max
    if r_bound < 1 or s_bound < 1:
        raise ValidationError("spectrum bounds must be at least 1")
    members = frozenset(
        (r, s)
        for r in range(h.n)
        for s in range(h.n - r)
        if r + s >= 1 and not embeds(h, gray_crg(r, s))[0]
    )
    return CliqueSpectrum(
        members,
        max([r_bound] + [r + 1 for r, _ in members]),
        max([s_bound] + [s + 1 for _, s in members]),
    )


def gamma_points(
    h: Graph, spectrum: CliqueSpectrum | None = None
) -> tuple[tuple[int, int], ...]:
    """The extreme points of the clique spectrum, the terms gamma minimizes.

    The closed form is decreasing in both r and s, so the minimum over the
    downward-closed spectrum is attained at an extreme point.  The spectrum
    is computed when not given; an empty one is a :class:`ValidationError`.
    """
    spect = clique_spectrum(h) if spectrum is None else spectrum
    points = spect.extreme_points()
    if not points:
        raise ValidationError("empty clique spectrum: every gray CRG admits the graph")
    return points


def min_gray(
    terms: Iterable[tuple[int, int]], p: Fraction
) -> tuple[Fraction, tuple[tuple[int, int], ...]]:
    """Minimum of the K(r, s) closed form at p over ``terms``, and the terms
    that attain it, in the given order."""
    values = [(closed_form_gray(r, s, p), (r, s)) for r, s in terms]
    best = min(v for v, _ in values)
    return best, tuple(term for v, term in values if v == best)


def gamma(
    h: Graph, p: Fraction, spectrum: CliqueSpectrum | None = None
) -> Fraction:
    """min over the clique spectrum of the K(r, s) closed form at p."""
    return min_gray(gamma_points(h, spectrum), p)[0]
