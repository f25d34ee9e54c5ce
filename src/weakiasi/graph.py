"""Immutable simple graphs with bit-vector adjacency and a canonical named-graph corpus.

Vertex ids are dense integers ``0..n-1``; an optional name map attaches
human-readable aliases for reports. Every graph is validated on construction
(no loops, no parallel edges, no isolated vertices) and never mutated
afterwards, so instances are safe to share between callers. Edge deletion
produces a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    InvalidEdgeError,
    IsolatedVertexError,
    NotEulerianError,
    UnknownNameError,
)

Edge = tuple[int, int]

NAMED_GRAPHS = ("petersen", "frucht", "grotzsch", "durer", "dodecahedron")
GRAPH_FAMILIES = ("cycle", "path", "complete", "star")

# LCF shifts for the standard 12-vertex cubic realization of the Frucht graph.
_FRUCHT_LCF = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)


@dataclass(frozen=True, repr=False)
class Graph:
    """Simple undirected graph: no loops, no parallel edges, no isolated vertices.

    ``adj[v]`` is a bit-vector with bit ``u`` set iff ``(min(u,v), max(u,v))``
    appears in ``edges``; ``edges`` is sorted with ``u < v`` in each pair.
    """

    n: int
    edges: tuple[Edge, ...]
    adj: tuple[int, ...]
    names: Mapping[int, str] = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        mask = self.adj[v]
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    def name_of(self, v: int) -> str:
        return self.names.get(v, str(v))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    names: Mapping[int, str] | None = None,
) -> Graph:
    """Validate and build a graph on vertices ``0..n-1``.

    Edges are normalized to ``u < v``. Raises ``InvalidEdgeError`` on loops,
    out-of-range ids, or duplicates after normalization, and
    ``IsolatedVertexError`` if any vertex ends up with degree 0.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    normalized: list[Edge] = []
    seen: set[Edge] = set()
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise InvalidEdgeError(u, v, f"vertex id out of range 0..{n - 1}")
        if u == v:
            raise InvalidEdgeError(u, v, "self-loops are not allowed")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise InvalidEdgeError(e[0], e[1], "duplicate edge")
        seen.add(e)
        normalized.append(e)
    if n > 2 * len(normalized):
        # m edges touch at most 2m vertices; name the first untouched one
        # without allocating per vertex, since n may come from hostile input
        touched = {v for e in normalized for v in e}
        raise IsolatedVertexError(next(v for v in range(n) if v not in touched))
    normalized.sort()
    adj = [0] * n
    for u, v in normalized:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for v in range(n):
        if adj[v] == 0:
            raise IsolatedVertexError(v)
    name_map: dict[int, str] = {}
    if names:
        for v, alias in names.items():
            if not (0 <= int(v) < n):
                raise ValueError(f"name refers to unknown vertex {v}")
            name_map[int(v)] = str(alias)
    return Graph(n=n, edges=tuple(normalized), adj=tuple(adj), names=name_map)


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


def _generalized_petersen(k: int, skip: int, outer: str = "u", inner: str = "v") -> Graph:
    """Outer k-cycle 0..k-1, inner star polygon k..2k-1 with the given skip, plus spokes."""
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((i, k + i))
        edges.append((k + i, k + (i + skip) % k))
    names = {i: f"{outer}{i + 1}" for i in range(k)}
    names.update({k + i: f"{inner}{i + 1}" for i in range(k)})
    return build_graph(2 * k, edges, names)


def _lcf_graph(n: int, shifts: Iterable[int]) -> Graph:
    """Cubic graph in LCF notation: an n-cycle plus one chord per vertex."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i, shift in enumerate(shifts):
        j = (i + shift) % n
        edges.add((min(i, j), max(i, j)))
    names = {i: f"v{i + 1}" for i in range(n)}
    return build_graph(n, sorted(edges), names)


def _mycielskian_of_cycle(k: int) -> Graph:
    """Mycielski construction over a k-cycle: cycle 0..k-1, shadows k..2k-1, apex 2k."""
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((k + i, (i + 1) % k))
        edges.append((k + i, (i - 1) % k))
        edges.append((k + i, 2 * k))
    names = {i: f"v{i + 1}" for i in range(2 * k + 1)}
    return build_graph(2 * k + 1, edges, names)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle(n) requires n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("path(n) requires n >= 2")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("complete(n) requires n >= 2")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n: int) -> Graph:
    """Star with a center and n leaves (n + 1 vertices)."""
    if n < 1:
        raise ValueError("star(n) requires n >= 1")
    return build_graph(n + 1, [(0, i) for i in range(1, n + 1)])


_FAMILY_BUILDERS = {
    "cycle": cycle_graph,
    "path": path_graph,
    "complete": complete_graph,
    "star": star_graph,
}


def named_graph(name: str, param: int | None = None) -> Graph:
    """Build a graph from the built-in corpus.

    Fixed graphs: petersen, frucht, grotzsch, durer, dodecahedron.
    Parameterized families: cycle(n), path(n), complete(n), star(n).
    """
    key = name.strip().lower()
    if key in _FAMILY_BUILDERS:
        if param is None:
            raise ValueError(f"{key}(n) requires a parameter")
        return _FAMILY_BUILDERS[key](param)
    if key in NAMED_GRAPHS:
        if param is not None:
            raise ValueError(f"{key} does not take a parameter")
        if key == "petersen":
            return _generalized_petersen(5, 2)
        if key == "durer":
            return _generalized_petersen(6, 2)
        if key == "dodecahedron":
            return _generalized_petersen(10, 2)
        if key == "frucht":
            return _lcf_graph(12, _FRUCHT_LCF)
        return _mycielskian_of_cycle(5)
    raise UnknownNameError(name, NAMED_GRAPHS + GRAPH_FAMILIES)


def named_catalog() -> dict:
    """Catalog of the fixed corpus (with sizes) and the parameterized families."""
    fixed = []
    for name in NAMED_GRAPHS:
        g = named_graph(name)
        fixed.append({"name": name, "vertices": g.n, "edges": g.m})
    families = [
        {"name": "cycle", "parameter": "n >= 3"},
        {"name": "path", "parameter": "n >= 2"},
        {"name": "complete", "parameter": "n >= 2"},
        {"name": "star", "parameter": "n >= 1 (n leaves, n + 1 vertices)"},
    ]
    return {"named": fixed, "families": families}


# ---------------------------------------------------------------------------
# Structural predicates and decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteCheck:
    """Bipartiteness verdict with a witness: a bipartition, or one odd cycle."""

    bipartite: bool
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    odd_cycle: tuple[int, ...] | None


@dataclass(frozen=True)
class CycleDecomposition:
    """Edge-disjoint cycles whose union is the whole edge set."""

    cycles: tuple[tuple[int, ...], ...]


def _canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    # smallest vertex first, then toward its smaller neighbor
    i = cycle.index(min(cycle))
    rotated = cycle[i:] + cycle[:i]
    if rotated[-1] < rotated[1]:
        rotated = (rotated[0],) + tuple(reversed(rotated[1:]))
    return rotated


def is_bipartite(graph: Graph) -> BipartiteCheck:
    """2-color the graph, or exhibit an odd cycle when that is impossible.

    Deterministic: BFS from the smallest unvisited vertex, neighbors in
    ascending order. The odd-cycle witness is a simple cycle, reported in
    canonical rotation.
    """
    color = [-1] * graph.n
    parent = [-1] * graph.n
    depth = [0] * graph.n
    for root in range(graph.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in graph.neighbors(u):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return BipartiteCheck(False, None, _odd_cycle(parent, depth, u, v))
    part0 = tuple(v for v in range(graph.n) if color[v] == 0)
    part1 = tuple(v for v in range(graph.n) if color[v] == 1)
    return BipartiteCheck(True, (part0, part1), None)


def _odd_cycle(parent: list[int], depth: list[int], u: int, v: int) -> tuple[int, ...]:
    # walk both endpoints up to their lowest common BFS ancestor
    path_u, path_v = [u], [v]
    while depth[path_u[-1]] > depth[path_v[-1]]:
        path_u.append(parent[path_u[-1]])
    while depth[path_v[-1]] > depth[path_u[-1]]:
        path_v.append(parent[path_v[-1]])
    while path_u[-1] != path_v[-1]:
        path_u.append(parent[path_u[-1]])
        path_v.append(parent[path_v[-1]])
    cycle = tuple(path_u) + tuple(reversed(path_v[:-1]))
    return _canonical_cycle(cycle)


def decompose_into_cycles(graph: Graph) -> CycleDecomposition:
    """Partition the edge set into simple cycles by repeated greedy extraction.

    Requires every vertex degree to be even (``NotEulerianError`` otherwise).
    Walks from the smallest vertex with remaining edges, always toward the
    smallest unused neighbor; the first repeated vertex closes a cycle, whose
    edges are removed. Edges walked before the cycle started are restored.
    """
    for v in range(graph.n):
        d = graph.degree(v)
        if d % 2:
            raise NotEulerianError(v, d)
    adj = [set(graph.neighbors(v)) for v in range(graph.n)]
    edges_left = graph.m
    cycles: list[tuple[int, ...]] = []
    start = 0
    while edges_left:
        while start < graph.n and not adj[start]:
            start += 1
        stack = [start]
        position = {start: 0}
        while True:
            cur = stack[-1]
            nxt = min(adj[cur])
            adj[cur].discard(nxt)
            adj[nxt].discard(cur)
            if nxt in position:
                i = position[nxt]
                cycle = tuple(stack[i:])
                cycles.append(_canonical_cycle(cycle))
                edges_left -= len(cycle)
                # restore the walked-but-unused prefix edges
                for j in range(i):
                    adj[stack[j]].add(stack[j + 1])
                    adj[stack[j + 1]].add(stack[j])
                break
            position[nxt] = len(stack)
            stack.append(nxt)
    return CycleDecomposition(tuple(cycles))


def connected_components(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, each sorted, ordered by smallest member."""
    seen = [False] * graph.n
    components: list[tuple[int, ...]] = []
    for root in range(graph.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        components.append(tuple(sorted(queue)))
    return tuple(components)


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled densely.

    Returns the subgraph and the back-map: position ``i`` holds the original
    id of new vertex ``i``. Raises ``IsolatedVertexError`` if some chosen
    vertex has no chosen neighbor.
    """
    chosen = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(chosen)}
    edges = [
        (index[u], index[v])
        for u, v in graph.edges
        if u in index and v in index
    ]
    return build_graph(len(chosen), edges), chosen


def remove_edges(graph: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """New graph without the given edges; removing an absent edge is an error."""
    present = set(graph.edges)
    doomed = set()
    for u, v in edges:
        e = (u, v) if u < v else (v, u)
        if e not in present:
            raise InvalidEdgeError(u, v, "edge not present in graph")
        doomed.add(e)
    return build_graph(graph.n, [e for e in graph.edges if e not in doomed], graph.names)


def is_connected(graph: Graph) -> bool:
    return graph.n == 0 or len(connected_components(graph)) == 1


def is_cycle_graph(graph: Graph) -> bool:
    return (
        graph.n >= 3
        and is_connected(graph)
        and all(d == 2 for d in graph.degrees())
    )


def is_path_graph(graph: Graph) -> bool:
    if graph.n < 2 or not is_connected(graph):
        return False
    degs = sorted(graph.degrees())
    return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])


def degree_stats(graph: Graph) -> dict:
    degs = graph.degrees()
    return {
        "n": graph.n,
        "m": graph.m,
        "min_degree": min(degs) if degs else 0,
        "max_degree": max(degs) if degs else 0,
        "avg_degree": round(sum(degs) / graph.n, 4) if graph.n else 0.0,
    }
