"""Weak additive set-labelings of finite graphs.

Exact sparing numbers with machine-checkable certificates, maximum bipartite
subgraphs, matching / chromatic / independence numbers.

The package re-exports the functions callers call, the two records they
construct (``Graph``, ``IasiLabeling``) and the errors they catch. Return-record
types, type aliases and vertex limits stay in their modules. The relation
checkers live in ``weakiasi.theorems`` and the brute-force oracle in
``weakiasi.oracle``; ``import weakiasi`` loads neither.
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
    Graph,
    build_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    decompose_into_cycles,
    named_catalog,
    named_graph,
    path_graph,
    star_graph,
)
from .labeling import (
    IasiLabeling,
    construct_labeling,
    make_label,
    mono_indexed_edges,
    pattern_labeling,
    spread_values,
    sumset,
    verify_iasi,
)
from .solvers import (
    chromatic_number,
    independence_number,
    max_bipartite_subgraph,
    maximum_matching,
    sparing_number_exact,
    vertex_cover_number,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "IasiLabeling",
    "InvalidEdgeError",
    "IsolatedVertexError",
    "MissingLabelError",
    "NotEulerianError",
    "NotIndependentError",
    "NotWeakError",
    "TooLargeError",
    "UnknownNameError",
    "WeakIasiError",
    "build_graph",
    "chromatic_number",
    "complete_graph",
    "connected_components",
    "construct_labeling",
    "cycle_graph",
    "decompose_into_cycles",
    "independence_number",
    "make_label",
    "max_bipartite_subgraph",
    "maximum_matching",
    "mono_indexed_edges",
    "named_catalog",
    "named_graph",
    "path_graph",
    "pattern_labeling",
    "sparing_number_exact",
    "spread_values",
    "star_graph",
    "sumset",
    "verify_iasi",
    "vertex_cover_number",
]
