"""Set-label arithmetic, weak-labeling verification, and constructive realization.

A set-label is a non-empty finite set of non-negative integers, stored as a
sorted tuple. A labeling assigns a set-label to every vertex; each edge is
induced the sumset of its endpoint labels. The labeling is *weak* when every
edge label is exactly as large as the larger endpoint label, which by the
sumset size bounds forces at least one singleton endpoint per edge.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import lru_cache

from .errors import MissingLabelError, NotIndependentError, NotWeakError, TooLargeError
from .graph import Edge, Graph, _to_json, by_vertex_id

Label = tuple[int, ...]

# verify_iasi refuses a labeling whose edge sumsets need more additions than
# this, before it forms the first one: |a| * |b| per edge grows with the square
# of the label sizes, so a small hostile file could otherwise take seconds
SUMSET_WORK_LIMIT = 2_000_000


def _listed(values, what: str) -> tuple:
    """``values`` as a tuple; ``ValueError`` naming ``what`` if it is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a list of integers, got {values!r}") from None


def make_label(values: Iterable[int]) -> Label:
    """Normalize to a sorted, duplicate-free label.

    Raises ``ValueError`` if ``values`` is not iterable, or is empty, or holds
    a negative number or anything that is not an ``int``.
    """
    values = _listed(values, "a set-label")
    # type() rather than isinstance(): bool is a subclass of int
    bad = [x for x in values if type(x) is not int]
    if bad:
        raise ValueError(f"set-labels contain integers only, got {bad[0]!r}")
    label = tuple(sorted(set(values)))
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


class IasiLabeling(namedtuple("IasiLabeling", "vertex_labels")):
    """Vertex set-labels, keyed by vertex id (see ``by_vertex_id``), each normalized by ``make_label``.

    A label that ``make_label`` refuses raises ``ValueError`` naming its vertex.
    """

    __slots__ = ()

    def __new__(cls, vertex_labels: Mapping) -> IasiLabeling:
        normalized = {}
        for v, lbl in by_vertex_id(vertex_labels, "label").items():
            try:
                normalized[v] = make_label(lbl)
            except ValueError as exc:
                raise ValueError(f"label of vertex {v}: {exc}") from None
        return super().__new__(cls, normalized)

    # namedtuple's own _make calls tuple.__new__, skipping the checks in __new__; its _replace
    # calls this one, so it normalizes too (an unknown field raises ValueError, TypeError from 3.13)
    @classmethod
    def _make(cls, iterable) -> IasiLabeling:
        return cls(*iterable)

    def label(self, v: int) -> Label:
        try:
            return self.vertex_labels[v]
        except KeyError:
            raise MissingLabelError(v) from None

    to_json_dict = _to_json


class LabelingReport(namedtuple("LabelingReport", "vertex_injective edge_injective weak vertex_collision "
                                                  "edge_collision weak_violation edge_indexing_numbers")):
    """Verification outcome: three flags plus the first violating pair of each failure.

    Each witness is None when its flag holds; ``edge_indexing_numbers`` maps
    each edge to the size of its sumset.
    """

    __slots__ = ()

    @property
    def valid_weak(self) -> bool:
        return self.vertex_injective and self.edge_injective and self.weak

    def to_json_dict(self) -> dict:
        numbers = [[u, v, k] for (u, v), k in sorted(self.edge_indexing_numbers.items())]
        return {**_to_json(self._replace(edge_indexing_numbers=numbers)), "valid_weak": self.valid_weak}


def _first_repeat(items):
    """Over distinct ``(item, key)`` pairs, ``(earlier, later)``: the first item whose
    key an earlier item had, and the first item that had it; None if no key repeats."""
    first: dict = {}
    for item, key in items:
        earlier = first.setdefault(key, item)
        if earlier != item:
            return earlier, item
    return None


def verify_iasi(graph: Graph, labeling: IasiLabeling) -> LabelingReport:
    """Check vertex-injectivity, edge-injectivity (by set equality) and weakness.

    Vertices and edges are scanned in ascending order, so the recorded
    witnesses are the first violations. Raises ``MissingLabelError`` when a
    vertex of the graph has no label, and ``ValueError`` naming the lowest
    labeled vertex the graph does not have, so a labeling made for another
    graph does not pass. Raises ``ValueError`` too when the edge sumsets need
    more than ``SUMSET_WORK_LIMIT`` additions (|f(u)| * |f(v)| summed over the
    edges), before forming any of them, and when ``labeling`` is not an
    ``IasiLabeling``.
    """
    if not isinstance(labeling, IasiLabeling):
        raise ValueError(f"labeling must be an IasiLabeling, got {type(labeling).__name__}")
    extra = [v for v in labeling.vertex_labels if not 0 <= v < graph.n]
    if extra:
        raise ValueError(f"labeling labels vertex {min(extra)}, which the graph does not have")
    labels = [labeling.label(v) for v in range(graph.n)]
    work = sum(len(labels[u]) * len(labels[v]) for u, v in graph.edges)
    if work > SUMSET_WORK_LIMIT:
        raise ValueError(
            f"labeling's edge sumsets need {work} additions, more than the limit of {SUMSET_WORK_LIMIT}"
        )

    edge_labels = [sumset(labels[u], labels[v]) for u, v in graph.edges]
    vertex_collision = _first_repeat(enumerate(labels))
    edge_collision = _first_repeat(zip(graph.edges, edge_labels))
    numbers = {e: len(lbl) for e, lbl in zip(graph.edges, edge_labels)}
    weak_violation = next(
        (e for e in graph.edges if numbers[e] != max(len(labels[e[0]]), len(labels[e[1]]))), None
    )

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
    violating edge) when the weak condition fails, and whatever
    ``verify_iasi`` raises.
    """
    report = verify_iasi(graph, labeling)
    if not report.weak:
        raise NotWeakError(report.weak_violation)
    return tuple(e for e in graph.edges if report.edge_indexing_numbers[e] == 1)


def spread_values(count: int) -> tuple[int, ...]:
    """First ``count`` values of the greedy sequence with pairwise-distinct pair sums.

    Distinct sums over distinct pairs make every vertex label and every edge
    sumset distinct by construction, so labelings built from these values are
    injective without retries while keeping the integers small. Raises
    ``ValueError`` unless ``count`` is an ``int`` >= 0, and ``TooLargeError``
    for more than 128 values.
    """
    # type() rather than isinstance(): True would pass for 1
    if type(count) is not int or count < 0:
        raise ValueError(f"the number of values must be an integer >= 0, got {count!r}")
    if count > 128:  # the search grows about as count**3.5; the solvers stop at 32 vertices
        raise TooLargeError("labeling construction", count, 128)
    return _spread_values(count)


# behind spread_values' checks, so it keeps at most 129 answers
@lru_cache(maxsize=None)
def _spread_values(count: int) -> tuple[int, ...]:
    values: list[int] = []
    sums: set[int] = set()
    candidate = 0
    while len(values) < count:
        if all(candidate + x not in sums for x in values):
            sums.update(candidate + x for x in values)
            values.append(candidate)
        candidate += 1
    return tuple(values)


def _vertex_set(graph: Graph, vertices: Iterable[int]) -> set[int]:
    """``vertices`` as a set of vertex ids of ``graph``; anything else raises ``ValueError``."""
    chosen = _listed(vertices, "a vertex set")
    for v in chosen:
        # type() rather than isinstance(): True would pass for vertex 1
        if type(v) is not int or not 0 <= v < graph.n:
            raise ValueError(f"vertex {v!r} is not an int in 0..{graph.n - 1}")
    return set(chosen)


def pattern_labeling(graph: Graph, non_singleton: Iterable[int]) -> IasiLabeling:
    """Deterministic labeling whose 2-element labels sit exactly on ``non_singleton``.

    Vertex v gets {a_v} or {a_v, a_v + 1} where the a_v have pairwise-distinct
    pair sums. Any vertex pattern is accepted; whether the result is weak
    depends on the pattern (an edge between two non-singleton vertices gets a
    3-element sumset), which a verifier rediscovers from the arithmetic.
    """
    pattern = _vertex_set(graph, non_singleton)
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
    chosen = sorted(_vertex_set(graph, independent))
    mask = sum(1 << v for v in chosen)
    for u in chosen:
        later = graph.adj[u] & mask & ~((1 << (u + 1)) - 1)
        if later:
            v = (later & -later).bit_length() - 1
            raise NotIndependentError(u, v)
    return pattern_labeling(graph, chosen)
