"""Clique spectra of single-forbidden-graph properties and the gamma bound.

The clique spectrum of Forb(H) is the set of pairs (r, s) such that H does
not embed in the all-gray CRG K(r, s).  It is downward closed, so it is
fully described by its maximal points; gamma is the minimum of the K(r, s)
closed form over the spectrum and upper-bounds the edit distance function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .crg import embeds, gray_crg
from .errors import ValidationError
from .gfun import closed_form_gray
from .graphs import Graph


@dataclass(frozen=True)
class CliqueSpectrum:
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
    """Compute spectrum membership for 0 <= r <= r_max, 0 <= s <= s_max.

    Default bounds are |V(h)| in both directions, which always contain the
    whole spectrum: once r or s reaches |V(h)| the graph embeds by mapping
    vertices to distinct gray-joined CRG vertices.  If a member ever touches
    the requested box edge the box is widened and recomputed, so the
    returned profile is never an artifact of the bounds.
    """
    if h.n < 1:
        raise ValidationError("clique spectrum needs a nonempty forbidden graph")
    if h.n > 13:
        raise ValidationError("clique spectrum capped at 13-vertex forbidden graphs")
    r_bound = h.n if r_max is None else r_max
    s_bound = h.n if s_max is None else s_max
    if r_bound < 1 or s_bound < 1:
        raise ValidationError("spectrum bounds must be at least 1")

    while True:
        members = set()
        for r in range(r_bound + 1):
            for s in range(s_bound + 1):
                if r + s < 1:
                    continue
                if r + s >= h.n:
                    # mapping the vertices injectively to distinct CRG
                    # vertices sends every pair to a gray edge, so the
                    # graph embeds and (r, s) is never a member
                    continue
                found, _ = embeds(h, gray_crg(r, s))
                if not found:
                    members.add((r, s))
        touches_r = any(r == r_bound for r, _ in members)
        touches_s = any(s == s_bound for _, s in members)
        if not touches_r and not touches_s:
            return CliqueSpectrum(frozenset(members), r_bound, s_bound)
        if touches_r:
            r_bound += 1
        if touches_s:
            s_bound += 1


def gamma(
    h: Graph, p: Fraction, spectrum: CliqueSpectrum | None = None
) -> Fraction:
    """min over the clique spectrum of the K(r, s) closed form at p.

    The closed form is decreasing in both r and s, so the minimum over the
    downward-closed spectrum is attained at an extreme point.
    """
    spect = clique_spectrum(h) if spectrum is None else spectrum
    points = spect.extreme_points()
    if not points:
        raise ValidationError("empty clique spectrum: every gray CRG admits the graph")
    return min(closed_form_gray(r, s, p) for r, s in points)
