"""Clique spectra of single-forbidden-graph properties and the gamma bound.

The clique spectrum of Forb(H) is the set of pairs (r, s) such that H does
not embed in the all-gray CRG K(r, s).  H embeds in K(r, s) exactly when
V(H) splits into r independent sets and s cliques, so the spectrum is
downward closed: a split for K(r, s) is one for K(r + 1, s) and K(r, s + 1)
too.  Its frontier s_min(r), the fewest cliques that complete r independent
sets to such a split, therefore never grows with r, and one walk along it
finds the whole spectrum.  gamma is the minimum of the K(r, s) closed form
over the spectrum's maximal points and upper-bounds the edit distance
function.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .crg import embeds, gray_crg
from .errors import ValidationError
from .gfun import closed_form_gray
from .graphs import Graph, Value


class CliqueSpectrum(Value):
    """The members (r, s) of a clique spectrum.

    ``members`` excludes the vacuous point (0, 0); every member has
    r + s < |V(H)|.
    """

    members: frozenset[tuple[int, int]]

    def boundary_profile(self) -> tuple[tuple[int, int], ...]:
        """For each r that appears, the pair (r, max s); sorted by r."""
        best: dict[int, int] = {}
        for r, s in self.members:
            best[r] = max(best.get(r, -1), s)
        return tuple(sorted(best.items()))

    def extreme_points(self) -> tuple[tuple[int, int], ...]:
        """Maximal members under the coordinatewise order, r descending: the
        row maxima of ``boundary_profile`` larger than every one above them."""
        out: list[tuple[int, int]] = []
        for r, s in reversed(self.boundary_profile()):
            if not out or s > out[-1][1]:
                out.append((r, s))
        return tuple(out)


def clique_spectrum(h: Graph) -> CliqueSpectrum:
    """Compute the whole clique spectrum of Forb(h).

    One staircase walk finds s_min(r), the least s with H embedded in
    K(r, s), for r = 0, 1, ... until it is 0; row r's members are then
    (r, s) for s < s_min(r).  Row 0 scans up from K(0, 1) (K(0, 0) is not
    a CRG); each later row scans down from the row before, since s_min
    never grows with r.  A pair with r + s >= |V(h)| admits h without a
    test, mapping its vertices injectively to the CRG's, which sends every
    pair to a gray edge, so every member has r + s < |V(h)| and the largest
    target tested has |V(h)| - 1 vertices.  With theta = s_min(0) and chi
    the first r with s_min(r) = 0 (the clique-cover and chromatic numbers
    of h), row 0 makes at most theta tests, the down-scans at most theta
    that lower s and chi - 1 that end a row.  As theta + chi <= |V(h)| + 1
    (Nordhaus-Gaddum), that is at most 2|V(h)| embedding tests, one per
    pair.

    The only size limit is ``embeds``' pattern cap: a graph above
    ``MAX_EMBED_PATTERN`` vertices raises its ``ValidationError`` at the
    walk's first test.
    """
    if h.n < 1:
        raise ValidationError("clique spectrum needs a nonempty forbidden graph")

    def admits(r: int, s: int) -> bool:
        return r + s >= h.n or embeds(h, gray_crg(r, s))[0]

    s = 1
    while not admits(0, s):
        s += 1
    frontier = [s]
    while s:
        r = len(frontier)
        while s and admits(r, s - 1):
            s -= 1
        frontier.append(s)
    return CliqueSpectrum(frozenset(
        (r, s) for r, top in enumerate(frontier) for s in range(top) if r + s >= 1
    ))


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
