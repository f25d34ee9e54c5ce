"""Executable checkers relating the sparing number to other graph parameters.

Every checker returns a ``TheoremReport`` whose verdict is recomputable from
its embedded lhs/rhs values; a checker whose hypothesis is unmet returns
"not-applicable" with the unmet hypothesis named, never "fails". A failing
relation is data, not an error. Each checker tests its own hypothesis, as
``_path_or_cycle`` does for the two relations stated on paths and cycles.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping

from .errors import NotEulerianError, TooLargeError
from .graph import Graph, _check_graph, _to_json, build_graph, connected_components, decompose_into_cycles
from .labeling import construct_labeling
from .solvers import (
    chromatic_number,
    independence_number,
    max_bipartite_subgraph,
    maximum_matching,
    sparing_number_exact,
    vertex_cover_number,
)

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"


class TheoremReport(namedtuple("TheoremReport", "theorem inputs lhs rhs verdict witness")):
    """Self-contained verdict: holds iff lhs == rhs, with a numeric witness payload."""

    __slots__ = ()

    to_json_dict = _to_json


def _describe(graph: Graph) -> dict:
    _check_graph(graph)
    return {"n": graph.n, "m": graph.m}


def _report(theorem: str, inputs: Mapping, lhs: int, rhs: int, witness: Mapping) -> TheoremReport:
    return TheoremReport(theorem, inputs, lhs, rhs, HOLDS if lhs == rhs else FAILS, witness)


def _not_applicable(theorem: str, inputs: dict, hypothesis: str, extra: dict | None = None) -> TheoremReport:
    witness = {"unmet_hypothesis": hypothesis, **(extra or {})}
    return TheoremReport(theorem, inputs, None, None, NOT_APPLICABLE, witness)


def _over_limit(theorem: str, inputs: dict, exc: TooLargeError) -> TheoremReport:
    """The report of a checker whose solver refused the graph as too large."""
    return _not_applicable(theorem, inputs, f"{exc.what} limit (n <= {exc.limit})")


def _path_or_cycle(graph: Graph) -> bool:
    """One component with degrees 1, 1, 2, ..., 2 (a path) or 2, ..., 2 (a cycle)."""
    degrees = sorted(graph.degrees())
    return degrees[:2] in ([1, 1], [2, 2]) and set(degrees[2:]) <= {2} and len(connected_components(graph)) == 1


def check_chromatic_class_formula(graph: Graph) -> TheoremReport:
    """Sparing number versus the vertex count outside the two largest color classes.

    Uses one solver-produced optimal coloring; classes are ordered by size
    descending with ties broken by smallest class index.
    """
    chi, classes = chromatic_number(graph)
    by_size = sorted(classes, key=len, reverse=True)  # stable: ties keep class order
    sizes = [len(c) for c in by_size]
    lhs = sparing_number_exact(graph).phi
    witness = {
        "chromatic_number": chi,
        "class_sizes_desc": sizes,
        "largest_classes": [sorted(c) for c in by_size[:2]],
    }
    return _report("chromatic-class-formula", _describe(graph), lhs, sum(sizes[2:]), witness)


def check_chi_phi_gap(graph: Graph) -> TheoremReport:
    """chi - phi = 2 on paths and cycles."""
    inputs = _describe(graph)
    if not _path_or_cycle(graph):
        return _not_applicable("chi-phi-gap", inputs, "graph is a path or a cycle")
    chi, _ = chromatic_number(graph)
    phi = sparing_number_exact(graph).phi
    return _report("chi-phi-gap", inputs, chi - phi, 2, {"chromatic_number": chi, "phi": phi})


def check_matching_formula(graph: Graph) -> TheoremReport:
    """phi = ceil(n/2) - nu on paths and cycles (reported as computed)."""
    inputs = _describe(graph)
    if not _path_or_cycle(graph):
        return _not_applicable("matching-formula", inputs, "graph is a path or a cycle")
    try:
        nu = maximum_matching(graph)[0]
    except TooLargeError as exc:
        return _over_limit("matching-formula", inputs, exc)
    half = (graph.n + 1) // 2
    witness = {"matching_number": nu, "half_ceiling": half}
    return _report("matching-formula", inputs, sparing_number_exact(graph).phi, half - nu, witness)


def check_union_formula(
    g1: Graph, g2: Graph, shared: Mapping[int, int] | None = None
) -> TheoremReport:
    """phi(G1 u G2) versus phi(G1) + phi(G2) - phi(G1 n G2).

    ``shared`` injectively maps G2 vertex ids onto G1 vertex ids; unmapped G2
    vertices get fresh ids above G1's range (in ascending G2 order). The
    intersection consists of the edges present in both graphs after gluing,
    on the vertices they touch; shared vertices touching no shared edge are
    left out of it and listed in the witness, and with no shared edge the
    intersection is the empty graph, whose phi is 0. ``shared`` that is
    neither a mapping nor ``None`` raises ``ValueError``.
    """
    _check_graph(g1)
    _check_graph(g2)
    if not (shared is None or isinstance(shared, Mapping)):
        raise ValueError(f"shared must be a mapping of vertex ids, got {type(shared).__name__}")
    shared = dict(shared or {})
    for a, b in shared.items():
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"shared map entry {a!r}: {b!r} is not a pair of int vertex ids")
        if not (0 <= a < g2.n):
            raise ValueError(f"shared key {a} out of range for the second graph")
        if not (0 <= b < g1.n):
            raise ValueError(f"shared value {b} out of range for the first graph")
    if len(set(shared.values())) != len(shared):
        raise ValueError("shared map must be injective")

    fresh = iter(range(g1.n, g1.n + g2.n))
    ids = [shared[v] if v in shared else next(fresh) for v in range(g2.n)]
    g2_edges = {tuple(sorted((ids[u], ids[v]))) for u, v in g2.edges}
    union = build_graph(g1.n + g2.n - len(shared), sorted(set(g1.edges) | g2_edges))
    intersection_edges = sorted(set(g1.edges) & g2_edges)
    touched = sorted({v for e in intersection_edges for v in e})
    remap = {v: i for i, v in enumerate(touched)}
    inter = build_graph(len(touched), [(remap[u], remap[v]) for u, v in intersection_edges])

    phi_union = sparing_number_exact(union).phi
    phi_1 = sparing_number_exact(g1).phi
    phi_2 = sparing_number_exact(g2).phi
    phi_inter = sparing_number_exact(inter).phi
    witness = {
        "phi_union": phi_union,
        "phi_g1": phi_1,
        "phi_g2": phi_2,
        "phi_intersection": phi_inter,
        "union": _describe(union),
        "intersection_edges": [list(e) for e in intersection_edges],
        "isolated_shared_vertices": sorted(set(shared.values()).difference(touched)),
    }
    inputs = {"g1": _describe(g1), "g2": _describe(g2), "shared_vertices": len(shared)}
    return _report("union-additivity", inputs, phi_union, phi_1 + phi_2 - phi_inter, witness)


def check_odd_cycle_decomposition(graph: Graph) -> TheoremReport:
    """phi = sum(ceil(n_i / 2)) - nu over an edge-disjoint cycle decomposition.

    Applicable to even-degree graphs whose found decomposition has at most one
    even cycle. The witness always records the decomposition used and whether
    the matching number is additive over its cycles (it need not be when
    cycles share vertices; with two or more even cycles that additivity is
    the known point of failure).
    """
    inputs = _describe(graph)
    try:
        cycles = decompose_into_cycles(graph)
        nu = maximum_matching(graph)[0]
    except NotEulerianError as exc:
        return _not_applicable(
            "odd-cycle-decomposition",
            inputs,
            "every vertex degree is even",
            {"odd_degree_vertex": exc.vertex},
        )
    except TooLargeError as exc:
        return _over_limit("odd-cycle-decomposition", inputs, exc)
    sizes = [len(c) for c in cycles]
    cycle_nus = [s // 2 for s in sizes]
    witness = {
        "cycles": [list(c) for c in cycles],
        "cycle_sizes": sizes,
        "matching_number": nu,
        "cycle_matching_numbers": cycle_nus,
        "matching_additive_over_cycles": nu == sum(cycle_nus),
    }
    if sum(1 for s in sizes if s % 2 == 0) > 1:
        return _not_applicable(
            "odd-cycle-decomposition",
            inputs,
            "at most one even cycle in the decomposition",
            witness,
        )
    lhs = sparing_number_exact(graph).phi
    rhs = sum((s + 1) // 2 for s in sizes) - nu
    return _report("odd-cycle-decomposition", inputs, lhs, rhs, witness)


def check_cover_theorems(graph: Graph) -> TheoremReport:
    """Mono-indexed vertex count of an optimal labeling versus the covering number.

    Builds an actual labeling on a maximum independent set and counts its
    singleton vertices; sub-verdicts in the witness check that count against
    beta and n - alpha, that the cover witness touches every edge, and the
    identity alpha + beta = n.
    """
    alpha, independent = independence_number(graph)
    beta, cover = vertex_cover_number(graph)
    labeling = construct_labeling(graph, independent)
    mono_vertices = [v for v in range(graph.n) if len(labeling.label(v)) == 1]
    cover_set = set(cover)
    lhs = len(mono_vertices)
    witness = {
        "alpha": alpha,
        "beta": beta,
        "mono_vertex_count": lhs,
        "equals_beta": lhs == beta,
        "equals_n_minus_alpha": lhs == graph.n - alpha,
        "non_mono_count_equals_alpha": graph.n - lhs == alpha,
        "cover_touches_every_edge": all(
            e[0] in cover_set or e[1] in cover_set for e in graph.edges
        ),
        "alpha_plus_beta_equals_n": alpha + beta == graph.n,
    }
    return _report("cover-independence", _describe(graph), lhs, beta, witness)


def check_bipartization_theorem(graph: Graph) -> TheoremReport:
    """Definition-true sparing number versus the edge bipartization number.

    The two can disagree; mismatches carry both certificates so the report is
    self-contained.
    """
    certificate = sparing_number_exact(graph)
    bipartization = max_bipartite_subgraph(graph)
    lhs = certificate.phi
    rhs = graph.m - bipartization.b
    witness = {
        "sparing_certificate": certificate.to_json_dict(),
        "bipartization_certificate": bipartization.to_json_dict(),
    }
    return _report("bipartization-equals-sparing", _describe(graph), lhs, rhs, witness)


GRAPH_CHECKERS = (
    check_chromatic_class_formula,
    check_chi_phi_gap,
    check_matching_formula,
    check_odd_cycle_decomposition,
    check_cover_theorems,
    check_bipartization_theorem,
)


def run_all_checkers(graph: Graph) -> tuple[TheoremReport, ...]:
    """Run every single-graph checker, returning reports in ``GRAPH_CHECKERS`` order."""
    return tuple(checker(graph) for checker in GRAPH_CHECKERS)
