"""Size caps and CLI choices, each defined once, and the integer-size guard.

This module imports nothing but the error types, so the CLI can build its
parser and validate every command's input without loading a solver.  The
modules that enforce a cap (``crg``, ``graphs``, ``gfun``, ``editing``,
``rationals``, ``curves``) import it from here, so it stays importable from
its old home too.  Every name defined here is read by another module of the
package, so a cap goes with its last user.

Embedding targets have no cap of their own: the library's callers bound
them (the clique spectrum's walk tests fewer than ``MAX_EMBED_PATTERN``
vertices, the CRG search at most ``MAX_ENUM_SIZE``), ``crg.embeds``'
placement budget bounds the work, and the CLI reads no CRG above
``MAX_QP_SIZE`` vertices.
"""

from __future__ import annotations

import sys

from .errors import ValidationError

# every pattern search (graphs._pattern_search, so crg.embeds and
# graphs.has_induced, and the edit oracle's kernels): pattern vertex count
MAX_EMBED_PATTERN = 16
# CRG enumeration (crg.enumerate_crgs): largest class size
MAX_ENUM_SIZE = 5
# simplex program (gfun.g_value, gfun.is_p_core), and every CRG the CLI's
# gfun, pcore and embed read: largest CRG
MAX_QP_SIZE = 12
# edit search (editing): nodes before a BudgetError
DEFAULT_NODE_LIMIT = 2_000_000
# evaluation grid (rationals.parse_grid): points built, so step 1/100000 fits
MAX_GRID_POINTS = 100_001
# curve analysis (edcurve --analyze, whose scan is quadratic): points, as on 1/1024
MAX_ANALYZE_POINTS = 1_025

# built-in curve families and curve sources (curves)
CURVE_FAMILIES = ("c8star", "ctilde", "path", "cycle")
SOURCES = ("closed_form", "gamma", "search")


def parse_int(digits: str, what: str) -> int:
    """``int(digits)`` for a string already known to hold a decimal integer.

    CPython refuses to convert more than ``sys.get_int_max_str_digits()``
    digits; such a number is refused here as a :class:`ValidationError`
    naming ``what``, so it never escapes as an internal error.
    """
    try:
        return int(digits)
    except ValueError:
        raise ValidationError(
            f"{what} has {len(digits)} digits; at most {sys.get_int_max_str_digits()} allowed"
        ) from None
