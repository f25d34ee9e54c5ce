"""Executable checkers relating the sparing number to other graph parameters.

Every checker returns a ``TheoremReport`` whose verdict is recomputable from
its embedded lhs/rhs values; a checker whose hypothesis is unmet returns
"not-applicable" with the unmet hypothesis named, never "fails". A failing
relation is data, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graph import (
    Graph,
    build_graph,
    decompose_into_cycles,
    is_cycle_graph,
    is_path_graph,
)
from .labeling import construct_labeling
from .solvers import (
    MATCHING_VERTEX_LIMIT,
    chromatic_number,
    independence_number,
    matching_number,
    max_bipartite_subgraph,
    sparing_number_exact,
    vertex_cover_number,
)

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class TheoremReport:
    """Self-contained verdict: holds iff lhs == rhs, with a numeric witness payload."""

    theorem: str
    inputs: Mapping
    lhs: int | None
    rhs: int | None
    verdict: str
    witness: Mapping

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs": dict(self.inputs),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "witness": dict(self.witness),
        }


def _describe(graph: Graph) -> dict:
    return {"n": graph.n, "m": graph.m}


def _verdict(lhs: int, rhs: int) -> str:
    return HOLDS if lhs == rhs else FAILS


def _not_applicable(theorem: str, inputs: dict, hypothesis: str, extra: dict | None = None) -> TheoremReport:
    witness = {"unmet_hypothesis": hypothesis}
    if extra:
        witness.update(extra)
    return TheoremReport(theorem, inputs, None, None, NOT_APPLICABLE, witness)


def check_chromatic_class_formula(graph: Graph) -> TheoremReport:
    """Sparing number versus the vertex count outside the two largest color classes.

    Uses one solver-produced optimal coloring; classes are ordered by size
    descending with ties broken by smallest class index.
    """
    chi, classes = chromatic_number(graph)
    order = sorted(range(chi), key=lambda c: (-len(classes[c]), c))
    keep = set(order[:2])
    rhs = sum(len(classes[c]) for c in range(chi) if c not in keep)
    lhs = sparing_number_exact(graph).phi
    witness = {
        "chromatic_number": chi,
        "class_sizes_desc": [len(classes[c]) for c in order],
        "largest_classes": [sorted(classes[c]) for c in order[:2]],
    }
    return TheoremReport(
        "chromatic-class-formula", _describe(graph), lhs, rhs, _verdict(lhs, rhs), witness
    )


def check_chi_phi_gap(graph: Graph) -> TheoremReport:
    """chi - phi = 2 on paths and cycles."""
    inputs = _describe(graph)
    if not (is_path_graph(graph) or is_cycle_graph(graph)):
        return _not_applicable("chi-phi-gap", inputs, "graph is a path or a cycle")
    chi, _ = chromatic_number(graph)
    phi = sparing_number_exact(graph).phi
    lhs = chi - phi
    witness = {"chromatic_number": chi, "phi": phi}
    return TheoremReport("chi-phi-gap", inputs, lhs, 2, _verdict(lhs, 2), witness)


def check_matching_formula(graph: Graph) -> TheoremReport:
    """phi = ceil(n/2) - nu on paths and cycles (reported as computed)."""
    inputs = _describe(graph)
    if not (is_path_graph(graph) or is_cycle_graph(graph)):
        return _not_applicable("matching-formula", inputs, "graph is a path or a cycle")
    if graph.n > MATCHING_VERTEX_LIMIT:
        return _not_applicable(
            "matching-formula", inputs, f"matching solver limit (n <= {MATCHING_VERTEX_LIMIT})"
        )
    nu = matching_number(graph)
    lhs = sparing_number_exact(graph).phi
    rhs = (graph.n + 1) // 2 - nu
    witness = {"matching_number": nu, "half_ceiling": (graph.n + 1) // 2}
    return TheoremReport("matching-formula", inputs, lhs, rhs, _verdict(lhs, rhs), witness)


def check_union_formula(
    g1: Graph, g2: Graph, shared: Mapping[int, int] | None = None
) -> TheoremReport:
    """phi(G1 u G2) versus phi(G1) + phi(G2) - phi(G1 n G2).

    ``shared`` injectively maps G2 vertex ids onto G1 vertex ids; unmapped G2
    vertices get fresh ids above G1's range (in ascending G2 order). The
    intersection consists of the edges present in both graphs after gluing;
    shared vertices touching no shared edge contribute nothing by the
    convention phi(edgeless) = 0, which is noted in the witness.
    """
    shared = dict(shared or {})
    for a, b in shared.items():
        if not (0 <= a < g2.n):
            raise ValueError(f"shared key {a} out of range for the second graph")
        if not (0 <= b < g1.n):
            raise ValueError(f"shared value {b} out of range for the first graph")
    if len(set(shared.values())) != len(shared):
        raise ValueError("shared map must be injective")

    mapping: dict[int, int] = {}
    fresh = g1.n
    for v in range(g2.n):
        if v in shared:
            mapping[v] = shared[v]
        else:
            mapping[v] = fresh
            fresh += 1
    g2_edges = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g2.edges}
    union_edges = set(g1.edges) | g2_edges
    union = build_graph(fresh, sorted(union_edges))
    intersection_edges = sorted(set(g1.edges) & g2_edges)

    phi_union = sparing_number_exact(union).phi
    phi_1 = sparing_number_exact(g1).phi
    phi_2 = sparing_number_exact(g2).phi
    if intersection_edges:
        vertices = sorted({v for e in intersection_edges for v in e})
        remap = {v: i for i, v in enumerate(vertices)}
        inter = build_graph(len(vertices), [(remap[u], remap[v]) for u, v in intersection_edges])
        phi_inter = sparing_number_exact(inter).phi
    else:
        phi_inter = 0

    touched = {v for e in intersection_edges for v in e}
    isolated_shared = sorted(set(shared.values()) - touched)
    lhs = phi_union
    rhs = phi_1 + phi_2 - phi_inter
    witness = {
        "phi_union": phi_union,
        "phi_g1": phi_1,
        "phi_g2": phi_2,
        "phi_intersection": phi_inter,
        "union": _describe(union),
        "intersection_edges": [list(e) for e in intersection_edges],
        "isolated_shared_vertices": isolated_shared,
    }
    inputs = {"g1": _describe(g1), "g2": _describe(g2), "shared_vertices": len(shared)}
    return TheoremReport("union-additivity", inputs, lhs, rhs, _verdict(lhs, rhs), witness)


def check_odd_cycle_decomposition(graph: Graph) -> TheoremReport:
    """phi = sum(ceil(n_i / 2)) - nu over an edge-disjoint cycle decomposition.

    Applicable to even-degree graphs whose found decomposition has at most one
    even cycle. The witness always records the decomposition used and whether
    the matching number is additive over its cycles (it need not be when
    cycles share vertices; with two or more even cycles that additivity is
    the known point of failure).
    """
    inputs = _describe(graph)
    odd = [v for v in range(graph.n) if graph.degree(v) % 2]
    if odd:
        return _not_applicable(
            "odd-cycle-decomposition",
            inputs,
            "every vertex degree is even",
            {"odd_degree_vertex": odd[0]},
        )
    if graph.n > MATCHING_VERTEX_LIMIT:
        return _not_applicable(
            "odd-cycle-decomposition",
            inputs,
            f"matching solver limit (n <= {MATCHING_VERTEX_LIMIT})",
        )
    decomposition = decompose_into_cycles(graph)
    sizes = [len(c) for c in decomposition.cycles]
    nu = matching_number(graph)
    cycle_nus = [s // 2 for s in sizes]
    witness = {
        "cycles": [list(c) for c in decomposition.cycles],
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
    return TheoremReport(
        "odd-cycle-decomposition", inputs, lhs, rhs, _verdict(lhs, rhs), witness
    )


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
    return TheoremReport(
        "cover-independence", _describe(graph), lhs, beta, _verdict(lhs, beta), witness
    )


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
    return TheoremReport(
        "bipartization-equals-sparing", _describe(graph), lhs, rhs, _verdict(lhs, rhs), witness
    )


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
