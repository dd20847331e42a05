"""Multiset star-transposition and pancake permutation graphs.

Builders for the graphs on ell-set permutations, their positional and
repeat-position colorings, efficient-domination partitions, chain
embeddings, and exhaustive verifiers for all of the structural claims at
desk scale.
"""

__version__ = "0.1.0"

from .coloring import (
    ColoringReport,
    TotalColoring,
    choosability_suite,
    efficiency_obstruction_witness,
    positional_edge_coloring,
    sigma_total_coloring,
    verify_coloring,
)
from .domination import (
    DominationCertificate,
    code_search,
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

#: The names whose module is imported on first use, as only some suites run it.
_DEFERRED = {
    "ChainEmbedding": "chains",
    "pancake_chain_check": "chains",
    "schreier_fibers": "chains",
    "schreier_quotient_check": "chains",
    "verify_chain": "chains",
    "isomorphic": "iso",
    "classify_six_cycles": "structure",
    "color_class_decomposition": "structure",
    "toroidal_assembly": "structure",
}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_DEFERRED[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


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
    "choosability_suite",
    "classify_six_cycles",
    "code_search",
    "efficiency_obstruction_witness",
    "enumerate_vertices",
    "iter_vertices",
    "isomorphic",
    "list_assignment",
    "mstring",
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
