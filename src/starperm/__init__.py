"""Multiset star-transposition and pancake permutation graphs.

Builders for the graphs on ell-set permutations, their positional and
repeat-position colorings, efficient-domination partitions, chain
embeddings, and exhaustive verifiers for all of the structural claims at
desk scale.
"""

__version__ = "0.1.0"

from .chains import (
    ChainEmbedding,
    kappa_embed,
    pancake_chain_check,
    schreier_fibers,
    schreier_quotient_check,
    verify_chain,
)
from .coloring import (
    ColoringReport,
    TotalColoring,
    build_odd_complete_colored,
    choosability_suite,
    efficiency_obstruction_witness,
    positional_edge_coloring,
    sigma_total_coloring,
    verify_coloring,
)
from .domination import (
    DominationCertificate,
    code_search,
    oracle_check,
    se_set,
    sigma_set,
    verify_efficient_domination,
    verify_ei_avoidance,
    verify_partition_and_edge_cover,
)
from .errors import CapExceeded, Precondition
from .graphs import (
    GeneratorFamily,
    Graph,
    PermGraph,
    build_graph,
    six_cycles,
)
from .iso import isomorphic
from .mstrings import (
    MString,
    Params,
    enumerate_vertices,
    iter_vertices,
    list_assignment,
    mstring,
    prefix_reversal,
    render,
    repeat_position,
    star_neighbors,
)
from .structure import (
    classify_six_cycles,
    color_class_decomposition,
    toroidal_assembly,
)

__all__ = [
    "CapExceeded",
    "ChainEmbedding",
    "ColoringReport",
    "DominationCertificate",
    "GeneratorFamily",
    "Graph",
    "MString",
    "Params",
    "PermGraph",
    "Precondition",
    "TotalColoring",
    "build_graph",
    "build_odd_complete_colored",
    "choosability_suite",
    "classify_six_cycles",
    "code_search",
    "efficiency_obstruction_witness",
    "enumerate_vertices",
    "iter_vertices",
    "isomorphic",
    "kappa_embed",
    "list_assignment",
    "mstring",
    "oracle_check",
    "pancake_chain_check",
    "positional_edge_coloring",
    "prefix_reversal",
    "render",
    "repeat_position",
    "schreier_fibers",
    "schreier_quotient_check",
    "se_set",
    "sigma_set",
    "sigma_total_coloring",
    "six_cycles",
    "star_neighbors",
    "color_class_decomposition",
    "toroidal_assembly",
    "verify_chain",
    "verify_coloring",
    "verify_efficient_domination",
    "verify_ei_avoidance",
    "verify_partition_and_edge_cover",
]
