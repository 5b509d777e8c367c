"""heredit: exact edit-distance functions of hereditary graph properties.

The package computes, entirely in exact rational arithmetic:

* the g function of a colored regularity graph (CRG) as a
  simplex-constrained quadratic program,
* clique spectra and the gamma upper bound of Forb(H) properties,
* closed-form and search-based edit-distance curves with exact analysis,
* ground-truth finite-n edit distances by branch-and-bound.
"""

from .crg import (
    CRG,
    EmbeddingWitness,
    canonical_form,
    crg_compact,
    crg_from_compact,
    crg_from_text,
    crg_to_text,
    embeds,
    enumerate_crgs,
    gray_crg,
    restrict,
    sub_crgs,
    swap_colors,
    validate_witness,
)
from .curves import (
    Curve,
    CurveAnalysis,
    SearchResult,
    bounded_min_g,
    closed_form_curve,
    core_min_g,
    curve_scan,
    family_graph,
    gamma_curve,
    search_curve,
    valid_interval,
)
from .editing import EditResult, EstimateResult, edit_distance, max_dist_estimate, sample_graph
from .errors import BudgetError, FormatError, HereditError, RangeError, ValidationError
from .gfun import (
    GResult,
    PMatrix,
    WeightStats,
    build_matrix,
    closed_form_gray,
    g_value,
    is_p_core,
    weight_stats,
)
from .graphs import (
    Graph,
    PathCycleProfile,
    build_family,
    complement,
    graph_from_graph6,
    graph_to_graph6,
    has_induced,
    parse_graph_spec,
    path_cycle_profile,
)
from .spectrum import CliqueSpectrum, clique_spectrum, gamma

__version__ = "0.1.0"

__all__ = [
    "CRG",
    "CliqueSpectrum",
    "Curve",
    "CurveAnalysis",
    "EditResult",
    "EmbeddingWitness",
    "EstimateResult",
    "GResult",
    "Graph",
    "HereditError",
    "BudgetError",
    "FormatError",
    "PathCycleProfile",
    "PMatrix",
    "RangeError",
    "SearchResult",
    "ValidationError",
    "WeightStats",
    "bounded_min_g",
    "build_family",
    "build_matrix",
    "canonical_form",
    "clique_spectrum",
    "closed_form_curve",
    "closed_form_gray",
    "complement",
    "core_min_g",
    "crg_compact",
    "crg_from_compact",
    "crg_from_text",
    "crg_to_text",
    "curve_scan",
    "edit_distance",
    "embeds",
    "enumerate_crgs",
    "family_graph",
    "g_value",
    "gamma",
    "gamma_curve",
    "graph_from_graph6",
    "graph_to_graph6",
    "gray_crg",
    "has_induced",
    "is_p_core",
    "max_dist_estimate",
    "parse_graph_spec",
    "path_cycle_profile",
    "restrict",
    "sample_graph",
    "search_curve",
    "sub_crgs",
    "swap_colors",
    "valid_interval",
    "validate_witness",
    "weight_stats",
]
