"""heredit: exact edit-distance functions of hereditary graph properties.

The package computes, entirely in exact rational arithmetic:

* the g function of a colored regularity graph (CRG) as a
  simplex-constrained quadratic program,
* clique spectra and the gamma upper bound of Forb(H) properties,
* closed-form and search-based edit-distance curves with exact analysis,
* ground-truth finite-n edit distances by branch-and-bound.

Importing the package loads none of its submodules: each name in
``__all__`` is imported from the submodule that defines it on first use
(PEP 562), so a CLI command imports only the layers it runs.
"""

import importlib

# each exported name, under the submodule that defines it
_EXPORTS = {
    "crg": (
        "CRG", "EmbeddingWitness", "canonical_form", "crg_compact", "crg_from_compact",
        "crg_from_text", "crg_to_text", "embeds", "enumerate_crgs", "gray_crg", "restrict",
        "sub_crgs", "swap_colors", "validate_witness",
    ),
    "curves": (
        "Curve", "CurveAnalysis", "SearchResult", "bounded_min_g", "closed_form_curve",
        "core_min_g", "curve_scan", "family_graph", "gamma_curve", "search_curve",
        "valid_interval",
    ),
    "editing": ("EditResult", "EstimateResult", "edit_distance", "max_dist_estimate",
                "sample_graph"),
    "errors": ("BudgetError", "FormatError", "HereditError", "RangeError", "ValidationError"),
    "gfun": (
        "GResult", "PMatrix", "WeightStats", "build_matrix", "closed_form_gray", "g_value",
        "is_p_core", "weight_stats",
    ),
    "graphs": (
        "Graph", "PathCycleProfile", "build_family", "complement", "graph_from_graph6",
        "graph_to_graph6", "has_induced", "parse_graph_spec", "path_cycle_profile",
    ),
    "spectrum": ("CliqueSpectrum", "clique_spectrum", "gamma"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` on its first use; a
    layer's own name, such as ``crg``, imports that submodule."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
