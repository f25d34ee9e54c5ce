"""Immutable simple graphs with bit-vector adjacency and a canonical named-graph corpus.

Vertex ids are dense integers ``0..n-1``; an optional name map, ``names``,
attaches aliases for reports. Every graph is validated on construction (no
loops, no parallel edges, no isolated vertices) and never mutated afterwards,
so instances are safe to share. The module also finds components and cycle
decompositions; the relation checkers test their own hypotheses.

Each record, ``Graph`` among them, is one subclass of a ``collections.namedtuple``
with ``__slots__ = ()``, holding its docstring, methods and any normalizing
``__new__``: immutable, and a tuple too (iterable, indexable, equal to a tuple).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import partial

from .errors import (
    InvalidEdgeError,
    IsolatedVertexError,
    NotEulerianError,
    TooLargeError,
    UnknownNameError,
)

Edge = tuple[int, int]

# adj[v] is an int as wide as v's highest neighbour id, so the adjacency of n
# vertices may take about n * n / 16 bytes; 2**14 keeps that near 17 MB
GRAPH_VERTEX_LIMIT = 1 << 14

# LCF shifts for the standard 12-vertex cubic realization of the Frucht graph.
_FRUCHT_LCF = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _to_json(value):
    """``value`` in JSON's own types, the one encoder behind the records' ``to_json_dict``.

    A record (anything with ``_asdict``) becomes an object of its fields, a
    mapping gets ``str`` keys, and a tuple or list becomes a list.
    """
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, Mapping):
        return {str(k): _to_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return value


class Graph(namedtuple("Graph", "n edges adj names")):
    """Simple undirected graph: no loops, no parallel edges, no isolated vertices.

    ``adj[v]`` is a bit-vector with bit ``u`` set iff ``(min(u,v), max(u,v))``
    appears in ``edges``; ``edges`` is sorted with ``u < v`` in each pair. A
    graph hashes by ``adj`` (``names`` is a dict), so it can key a cache.
    """

    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _plain_decimal(text) -> int:
    """``text`` as a non-negative integer, if it is a string in canonical decimal.

    Anything else raises ``ValueError``: a sign, whitespace, leading zeros, a
    digit separator or a non-ASCII digit (``"+0"``, ``" 1"``, ``"00"``,
    ``"1_0"``, ``"٢"``) would let one number go by several spellings.
    """
    if type(text) is str and text.isascii() and text.isdigit():
        if text == "0" or text[0] != "0":
            return int(text)
    raise ValueError(f"not a plain decimal integer: {text!r}")


def by_vertex_id(mapping: Mapping, what: str) -> dict:
    """``mapping`` re-keyed by vertex id, from ``int`` keys or canonical decimal strings.

    Raises ``ValueError`` if ``mapping`` is not a ``Mapping``, for any other
    key (see ``_plain_decimal``), and for two keys naming one vertex.
    """
    if not isinstance(mapping, Mapping):
        raise ValueError(f"{what}s must be a mapping of vertex ids, got {type(mapping).__name__}")
    out: dict = {}
    for key, value in mapping.items():
        try:
            v = key if type(key) is int else _plain_decimal(key)
        except ValueError:
            raise ValueError(f"{what} key must be a vertex id in plain decimal, got {key!r}") from None
        if v in out:
            raise ValueError(f"{what} of vertex {v} given twice")
        out[v] = value
    return out


def _refuse_above_limit(vertices: int) -> None:
    """The one vertex-count bound, which each family checks before listing any edge."""
    if vertices > GRAPH_VERTEX_LIMIT:
        raise TooLargeError("graph", vertices, GRAPH_VERTEX_LIMIT)


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    names: Mapping[int, str] | None = None,
) -> Graph:
    """Validate and build a graph on vertices ``0..n-1``.

    Edges are normalized to ``u < v``. Raises ``ValueError`` if ``n`` or an id
    is not an ``int``, ``edges`` is not iterable or an edge is not a pair,
    ``InvalidEdgeError`` on loops, out-of-range ids, or duplicates,
    ``IsolatedVertexError`` if any vertex ends up with degree 0, and
    ``TooLargeError`` above ``GRAPH_VERTEX_LIMIT`` vertices. ``names``, if
    not ``None``, must be a mapping (see ``by_vertex_id``) of existing
    vertices to ``str`` aliases; anything else raises ``ValueError``.
    """
    # type() rather than isinstance(): True and False are ints too
    if type(n) is not int:
        raise ValueError(f'vertex count "n" must be an integer, got {n!r}')
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not isinstance(edges, Iterable):
        raise ValueError(f"edges must be an iterable of pairs, got {type(edges).__name__}")
    normalized: list[Edge] = []
    seen: set[Edge] = set()
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise ValueError(f"an edge must be a pair of vertex ids, got {edge!r}") from None
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge endpoints must be integers, got {[u, v]!r}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise InvalidEdgeError(u, v, f"vertex id out of range 0..{n - 1}")
        if u == v:
            raise InvalidEdgeError(u, v, "self-loops are not allowed")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise InvalidEdgeError(e[0], e[1], "duplicate edge")
        seen.add(e)
        normalized.append(e)
    touched = set().union(*normalized)
    if len(touched) < n:
        # the scan stops within len(touched) + 1 ids and nothing is allocated
        # per vertex before this check, since n may come from hostile input
        raise IsolatedVertexError(next(v for v in range(n) if v not in touched))
    _refuse_above_limit(n)
    normalized.sort()
    adj = [0] * n
    for u, v in normalized:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    name_map = by_vertex_id({} if names is None else names, "name")
    for v, alias in name_map.items():
        if type(alias) is not str:
            raise ValueError(f"names must be strings, got {alias!r}")
        if not (0 <= v < n):
            raise ValueError(f"name refers to unknown vertex {v}")
    return Graph(n=n, edges=tuple(normalized), adj=tuple(adj), names=name_map)


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


def _generalized_petersen(k: int, skip: int) -> Graph:
    """Outer k-cycle 0..k-1, inner star polygon k..2k-1 with the given skip, plus spokes."""
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((i, k + i))
        edges.append((k + i, k + (i + skip) % k))
    names = {i: f"u{i + 1}" for i in range(k)}
    names.update({k + i: f"v{i + 1}" for i in range(k)})
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


# family -> (its least n, its vertices beyond n), the one statement of both
_FAMILIES = {"cycle": (3, 0), "path": (2, 0), "complete": (2, 0), "star": (1, 1)}


def _family_member(family: str, n, edges) -> Graph:
    """``family``'s member ``n``, after the one check of ``n``; only then is ``edges()`` called.

    ``ValueError`` if ``n`` is not an ``int`` (a ``bool`` is not one here) or
    is below the family's least size, ``TooLargeError`` if the member has
    more than ``GRAPH_VERTEX_LIMIT`` vertices.
    """
    if type(n) is not int:
        raise ValueError(f"{family}(n) requires an integer n, got {n!r}")
    least, extra = _FAMILIES[family]
    if n < least:
        raise ValueError(f"{family}(n) requires n >= {least}")
    _refuse_above_limit(n + extra)
    return build_graph(n + extra, edges())


def cycle_graph(n: int) -> Graph:
    return _family_member("cycle", n, lambda: [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return _family_member("path", n, lambda: [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return _family_member("complete", n, lambda: [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n: int) -> Graph:
    """Star with a center and n leaves (n + 1 vertices)."""
    return _family_member("star", n, lambda: [(0, i) for i in range(1, n + 1)])


# name -> builder, which takes n for a family
_CORPUS = {
    "petersen": partial(_generalized_petersen, 5, 2),
    "frucht": partial(_lcf_graph, 12, _FRUCHT_LCF),
    "grotzsch": partial(_mycielskian_of_cycle, 5),
    "durer": partial(_generalized_petersen, 6, 2),
    "dodecahedron": partial(_generalized_petersen, 10, 2),
    "cycle": cycle_graph,
    "path": path_graph,
    "complete": complete_graph,
    "star": star_graph,
}
NAMED_GRAPHS = tuple(name for name in _CORPUS if name not in _FAMILIES)
GRAPH_FAMILIES = tuple(_FAMILIES)


def named_graph(name: str, param: int | None = None) -> Graph:
    """Build a graph from the built-in corpus.

    Fixed graphs: petersen, frucht, grotzsch, durer, dodecahedron.
    Parameterized families: cycle(n), path(n), complete(n), star(n).
    Any other ``name``, a string or not, raises ``UnknownNameError``.
    """
    key = name.strip().lower() if isinstance(name, str) else None
    if key not in _CORPUS:
        raise UnknownNameError(name, tuple(_CORPUS))
    if key not in _FAMILIES:
        if param is not None:
            raise ValueError(f"{key} does not take a parameter")
        return _CORPUS[key]()
    if param is None:
        raise ValueError(f"{key}(n) requires a parameter")
    return _CORPUS[key](param)


def named_catalog() -> dict:
    """Catalog of the fixed corpus (with sizes) and the parameterized families."""
    graphs = {name: named_graph(name) for name in NAMED_GRAPHS}
    return {
        "named": [{"name": name, "vertices": g.n, "edges": g.m} for name, g in graphs.items()],
        # star, the one family with vertices beyond n, counts its leaves
        "families": [
            {"name": name, "parameter": f"n >= {least}" + (f" (n leaves, n + {extra} vertices)" if extra else "")}
            for name, (least, extra) in _FAMILIES.items()
        ],
    }


# ---------------------------------------------------------------------------
# Decompositions and degree statistics
# ---------------------------------------------------------------------------


def _canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    # smallest vertex first, then toward its smaller neighbor
    i = cycle.index(min(cycle))
    rotated = cycle[i:] + cycle[:i]
    if rotated[-1] < rotated[1]:
        rotated = (rotated[0],) + tuple(reversed(rotated[1:]))
    return rotated


def decompose_into_cycles(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """The edge set as edge-disjoint simple cycles, peeled off one walk at a time.

    Requires every vertex degree to be even (``NotEulerianError`` otherwise).
    Walks from the smallest vertex with remaining edges, always toward the
    smallest unused neighbor; the first repeated vertex closes a cycle, whose
    edges are removed, and the walk goes on from that vertex.
    """
    for v, d in enumerate(graph.degrees()):
        if d % 2:
            raise NotEulerianError(v, d)
    adj = list(graph.adj)
    cycles: list[tuple[int, ...]] = []
    for start in range(graph.n):
        stack = [start]
        position = {start: 0}
        # while the walk is away from start, start keeps an odd number of
        # unused edges, so the loop ends only with the walk back at start
        while adj[start]:
            cur = stack[-1]
            low = adj[cur] & -adj[cur]
            nxt = low.bit_length() - 1
            adj[cur] ^= low
            adj[nxt] ^= 1 << cur
            if nxt in position:
                i = position[nxt]
                cycles.append(_canonical_cycle(tuple(stack[i:])))
                for v in stack[i + 1:]:
                    del position[v]
                del stack[i + 1:]
            else:
                position[nxt] = len(stack)
                stack.append(nxt)
    return tuple(cycles)


def connected_components(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, each sorted, ordered by smallest member."""
    adj = graph.adj
    left = (1 << graph.n) - 1
    components: list[tuple[int, ...]] = []
    while left:
        reached = frontier = left & -left
        while frontier:
            grown = 0
            for u in _bits(frontier):
                grown |= adj[u]
            frontier = grown & ~reached
            reached |= frontier
        left &= ~reached
        components.append(tuple(_bits(reached)))
    return tuple(components)


def degree_stats(graph: Graph) -> dict:
    degs = graph.degrees()
    return {
        "n": graph.n,
        "m": graph.m,
        "min_degree": min(degs) if degs else 0,
        "max_degree": max(degs) if degs else 0,
        "avg_degree": round(sum(degs) / graph.n, 4) if graph.n else 0.0,
    }
