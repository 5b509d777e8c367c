"""Parsing and formatting of exact rationals for the CSV/JSON surfaces.

All numeric values cross the serialization boundary as ``num/den`` strings
in lowest terms, never as floats.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ValidationError
from .limits import MAX_GRID_POINTS, parse_int

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_fraction(text: str) -> Fraction:
    """Parse ``"3/10"`` or ``"2"`` into an exact :class:`Fraction`."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValidationError(f"malformed rational {text!r} (expected num or num/den)")
    num, _, den = text.partition("/")
    numerator = parse_int(num, "rational numerator")
    denominator = parse_int(den, "rational denominator") if den else 1
    if denominator == 0:
        raise ValidationError(f"zero denominator in rational {text!r}")
    return Fraction(numerator, denominator)


def parse_probability(text: str) -> Fraction:
    """Parse a rational and require it to lie in [0, 1]."""
    p = parse_fraction(text)
    if not 0 <= p <= 1:
        raise ValidationError(f"p must lie in [0,1], got {text}")
    return p


def format_fraction(q: Fraction) -> str:
    """Render a fraction as ``num/den`` in lowest terms (``0`` -> ``0/1``)."""
    return f"{q.numerator}/{q.denominator}"


def parse_grid(
    step_text: str, lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)
) -> tuple[Fraction, ...]:
    """Expand a grid spec like ``1/64`` into the points k*step inside [lo, hi].

    The spec names the step; the grid is every nonnegative multiple of the
    step that lies in [0, 1], and only the points between ``lo`` and
    ``hi`` (inclusive) are built, in ascending order.  More than
    ``MAX_GRID_POINTS`` points to build is refused before any is built.
    """
    step = parse_fraction(step_text)
    if step <= 0 or step > 1:
        raise ValidationError(f"grid step must lie in (0,1], got {step_text}")
    first = max(0, -(-lo // step))
    last = min(1 // step, hi // step)
    if last - first + 1 > MAX_GRID_POINTS:
        raise ValidationError(
            f"grid {step_text} has {last - first + 1} points to evaluate; "
            f"at most {MAX_GRID_POINTS} allowed"
        )
    return tuple(k * step for k in range(first, last + 1))
