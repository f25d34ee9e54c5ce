"""Weak additive set-labelings of finite graphs.

Exact sparing numbers with machine-checkable certificates, maximum bipartite
subgraphs, matching / chromatic / independence numbers, relation checkers,
and a brute-force oracle for cross-validation.
"""

from .errors import (
    InvalidEdgeError,
    IsolatedVertexError,
    MissingLabelError,
    NotEulerianError,
    NotIndependentError,
    NotWeakError,
    TooLargeError,
    UnknownNameError,
    WeakIasiError,
)
from .graph import (
    GRAPH_FAMILIES,
    NAMED_GRAPHS,
    BipartiteCheck,
    CycleDecomposition,
    Edge,
    Graph,
    build_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    decompose_into_cycles,
    degree_stats,
    is_bipartite,
    is_connected,
    is_cycle_graph,
    is_path_graph,
    named_catalog,
    named_graph,
    path_graph,
    remove_edges,
    star_graph,
)
from .labeling import (
    IasiLabeling,
    Label,
    LabelingReport,
    construct_labeling,
    make_label,
    mono_indexed_edges,
    pattern_labeling,
    spread_values,
    sumset,
    verify_iasi,
)
from .solvers import (
    MATCHING_VERTEX_LIMIT,
    SOLVER_VERTEX_LIMIT,
    BipartizationCertificate,
    SparingCertificate,
    bipartization_number,
    chromatic_number,
    independence_number,
    matching_number,
    max_bipartite_subgraph,
    maximum_matching,
    sparing_number_exact,
    vertex_cover_number,
)

__version__ = "0.1.0"

# The checkers and the oracle load on first access (PEP 562), so a command
# that never calls them does not compile them. Every name of __all__ that
# reaches __getattr__ is theirs; it is never bound here, so no copy goes stale.
_ORACLE_NAMES = ("ORACLE_VERTEX_LIMIT", "CrossValidation", "cross_validate", "sparing_oracle")


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = "oracle" if name in _ORACLE_NAMES else "theorems"
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = [
    "BipartiteCheck",
    "BipartizationCertificate",
    "CrossValidation",
    "CycleDecomposition",
    "Edge",
    "GRAPH_CHECKERS",
    "GRAPH_FAMILIES",
    "Graph",
    "IasiLabeling",
    "InvalidEdgeError",
    "IsolatedVertexError",
    "Label",
    "LabelingReport",
    "MATCHING_VERTEX_LIMIT",
    "MissingLabelError",
    "NAMED_GRAPHS",
    "NotEulerianError",
    "NotIndependentError",
    "NotWeakError",
    "ORACLE_VERTEX_LIMIT",
    "SOLVER_VERTEX_LIMIT",
    "SparingCertificate",
    "TheoremReport",
    "TooLargeError",
    "UnknownNameError",
    "WeakIasiError",
    "bipartization_number",
    "build_graph",
    "check_bipartization_theorem",
    "check_chi_phi_gap",
    "check_chromatic_class_formula",
    "check_cover_theorems",
    "check_matching_formula",
    "check_odd_cycle_decomposition",
    "check_union_formula",
    "chromatic_number",
    "complete_graph",
    "connected_components",
    "construct_labeling",
    "cross_validate",
    "cycle_graph",
    "decompose_into_cycles",
    "degree_stats",
    "independence_number",
    "is_bipartite",
    "is_connected",
    "is_cycle_graph",
    "is_path_graph",
    "make_label",
    "matching_number",
    "max_bipartite_subgraph",
    "maximum_matching",
    "mono_indexed_edges",
    "named_catalog",
    "named_graph",
    "path_graph",
    "pattern_labeling",
    "remove_edges",
    "run_all_checkers",
    "sparing_number_exact",
    "sparing_oracle",
    "spread_values",
    "star_graph",
    "sumset",
    "verify_iasi",
    "vertex_cover_number",
]
