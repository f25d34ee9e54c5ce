"""Set-label arithmetic, weak-labeling verification, and constructive realization.

A set-label is a non-empty finite set of non-negative integers, stored as a
sorted tuple. A labeling assigns a set-label to every vertex; each edge is
induced the sumset of its endpoint labels. The labeling is *weak* when every
edge label is exactly as large as the larger endpoint label, which by the
sumset size bounds forces at least one singleton endpoint per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import MissingLabelError, NotIndependentError, NotWeakError
from .graph import Edge, Graph

Label = tuple[int, ...]


def make_label(values: Iterable[int]) -> Label:
    """Normalize to a sorted, duplicate-free label; rejects empty and negative."""
    label = tuple(sorted({int(x) for x in values}))
    if not label:
        raise ValueError("set-labels must be non-empty")
    if label[0] < 0:
        raise ValueError("set-labels contain non-negative integers only")
    return label


def sumset(a: Iterable[int], b: Iterable[int]) -> Label:
    """Pairwise-sum set {x + y : x in a, y in b}, deduplicated and sorted.

    Its size always lies between max(|a|, |b|) and |a| * |b|; it collapses to
    the maximum only when one operand is a singleton. {0} is the identity.
    """
    ta, tb = make_label(a), make_label(b)
    return tuple(sorted({x + y for x in ta for y in tb}))


@dataclass(frozen=True)
class IasiLabeling:
    """Vertex set-labels plus the edge sumsets they induce on a given graph."""

    vertex_labels: Mapping[int, Label]

    def __post_init__(self):
        normalized = {int(v): make_label(lbl) for v, lbl in self.vertex_labels.items()}
        object.__setattr__(self, "vertex_labels", normalized)

    def label(self, v: int) -> Label:
        try:
            return self.vertex_labels[v]
        except KeyError:
            raise MissingLabelError(v) from None

    def edge_labels(self, graph: Graph) -> dict[Edge, Label]:
        return {e: sumset(self.label(e[0]), self.label(e[1])) for e in graph.edges}

    def edge_indexing_numbers(self, graph: Graph) -> dict[Edge, int]:
        """Set-indexing number (label cardinality) of every edge."""
        return {e: len(lbl) for e, lbl in self.edge_labels(graph).items()}

    def to_json_dict(self) -> dict:
        return {
            "vertex_labels": {
                str(v): list(self.vertex_labels[v]) for v in sorted(self.vertex_labels)
            }
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "IasiLabeling":
        if not isinstance(data, Mapping):
            raise ValueError("labeling JSON must be an object")
        raw = data.get("vertex_labels")
        if not isinstance(raw, Mapping):
            raise ValueError('labeling JSON must contain a "vertex_labels" object')
        for k, v in raw.items():
            # type() rather than isinstance(): JSON true/false decode to bool, a subclass of int
            if not isinstance(v, list) or not all(type(x) is int for x in v):
                raise ValueError(f"label of vertex {k} must be a list of integers, got {v!r}")
        return cls({int(k): v for k, v in raw.items()})


@dataclass(frozen=True)
class LabelingReport:
    """Verification outcome: three flags plus the first violating pair of each failure."""

    vertex_injective: bool
    edge_injective: bool
    weak: bool
    vertex_collision: tuple[int, int] | None
    edge_collision: tuple[Edge, Edge] | None
    weak_violation: Edge | None
    edge_indexing_numbers: Mapping[Edge, int]

    @property
    def valid_weak(self) -> bool:
        return self.vertex_injective and self.edge_injective and self.weak

    def to_json_dict(self) -> dict:
        return {
            "vertex_injective": self.vertex_injective,
            "edge_injective": self.edge_injective,
            "weak": self.weak,
            "valid_weak": self.valid_weak,
            "vertex_collision": list(self.vertex_collision) if self.vertex_collision else None,
            "edge_collision": (
                [list(self.edge_collision[0]), list(self.edge_collision[1])]
                if self.edge_collision
                else None
            ),
            "weak_violation": list(self.weak_violation) if self.weak_violation else None,
            "edge_indexing_numbers": [
                [e[0], e[1], k] for e, k in sorted(self.edge_indexing_numbers.items())
            ],
        }


def verify_iasi(graph: Graph, labeling: IasiLabeling) -> LabelingReport:
    """Check vertex-injectivity, edge-injectivity (by set equality) and weakness.

    Vertices and edges are scanned in ascending order, so the recorded
    witnesses are the first violations. Raises ``MissingLabelError`` when a
    vertex of the graph has no label.
    """
    labels = [labeling.label(v) for v in range(graph.n)]

    vertex_collision = None
    seen_vertex: dict[Label, int] = {}
    for v, lbl in enumerate(labels):
        if lbl in seen_vertex:
            if vertex_collision is None:
                vertex_collision = (seen_vertex[lbl], v)
        else:
            seen_vertex[lbl] = v

    edge_collision = None
    weak_violation = None
    numbers: dict[Edge, int] = {}
    seen_edge: dict[Label, Edge] = {}
    for e in graph.edges:
        lbl = sumset(labels[e[0]], labels[e[1]])
        numbers[e] = len(lbl)
        if lbl in seen_edge:
            if edge_collision is None:
                edge_collision = (seen_edge[lbl], e)
        else:
            seen_edge[lbl] = e
        if weak_violation is None and len(lbl) != max(len(labels[e[0]]), len(labels[e[1]])):
            weak_violation = e

    return LabelingReport(
        vertex_injective=vertex_collision is None,
        edge_injective=edge_collision is None,
        weak=weak_violation is None,
        vertex_collision=vertex_collision,
        edge_collision=edge_collision,
        weak_violation=weak_violation,
        edge_indexing_numbers=numbers,
    )


def mono_indexed_edges(graph: Graph, labeling: IasiLabeling) -> tuple[Edge, ...]:
    """Edges whose induced label is a singleton.

    Only meaningful for weak labelings; raises ``NotWeakError`` (with the
    violating edge) when the weak condition fails.
    """
    report = verify_iasi(graph, labeling)
    if not report.weak:
        raise NotWeakError(report.weak_violation)
    return tuple(e for e in graph.edges if report.edge_indexing_numbers[e] == 1)


@lru_cache(maxsize=None)
def spread_values(count: int) -> tuple[int, ...]:
    """First ``count`` values of the greedy sequence with pairwise-distinct pair sums.

    Distinct sums over distinct pairs make every vertex label and every edge
    sumset distinct by construction, so labelings built from these values are
    injective without retries while keeping the integers small.
    """
    values: list[int] = []
    sums: set[int] = set()
    candidate = 0
    while len(values) < count:
        if all(candidate + x not in sums for x in values):
            sums.update(candidate + x for x in values)
            values.append(candidate)
        candidate += 1
    return tuple(values)


def pattern_labeling(graph: Graph, non_singleton: Iterable[int]) -> IasiLabeling:
    """Deterministic labeling whose 2-element labels sit exactly on ``non_singleton``.

    Vertex v gets {a_v} or {a_v, a_v + 1} where the a_v have pairwise-distinct
    pair sums. Any vertex pattern is accepted; whether the result is weak
    depends on the pattern (an edge between two non-singleton vertices gets a
    3-element sumset), which a verifier rediscovers from the arithmetic.
    """
    pattern = {int(v) for v in non_singleton}
    for v in pattern:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} out of range 0..{graph.n - 1}")
    base = spread_values(graph.n)
    labels: dict[int, Label] = {}
    for v in range(graph.n):
        labels[v] = (base[v], base[v] + 1) if v in pattern else (base[v],)
    return IasiLabeling(labels)


def construct_labeling(graph: Graph, independent: Iterable[int]) -> IasiLabeling:
    """Weak labeling with non-singleton labels exactly on the independent set.

    The result passes full verification (vertex-injective, edge-injective,
    weak) and its mono-indexed edges are exactly the edges avoiding the set.
    Raises ``NotIndependentError`` on the first adjacent pair found.
    """
    chosen = sorted({int(v) for v in independent})
    for v in chosen:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} out of range 0..{graph.n - 1}")
    mask = 0
    for v in chosen:
        mask |= 1 << v
    for u in chosen:
        later = graph.adj[u] & mask & ~((1 << (u + 1)) - 1)
        if later:
            v = (later & -later).bit_length() - 1
            raise NotIndependentError(u, v)
    return pattern_labeling(graph, chosen)
