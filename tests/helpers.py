"""Shared test helpers: independent brute-force oracles and seeded generators.

The brute forces here deliberately avoid the library's solver code paths so
expected values are computed through a second route.
"""

from __future__ import annotations

import itertools
import random

from weakiasi import Graph, build_graph


def bowtie() -> Graph:
    """Two triangles sharing vertex 2."""
    return build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def two_squares_sharing_vertex() -> Graph:
    """Two 4-cycles glued at vertex 0 (Eulerian, two even cycles)."""
    return build_graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)])


def butterfly_at_one() -> Graph:
    """Two triangles sharing vertex 1; the walk from 0 closes its first cycle at 1."""
    return build_graph(5, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the sides 0..a-1 and a..a+b-1."""
    return build_graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def is_independent(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(not g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))


def covers_all_edges(g: Graph, vertices) -> bool:
    inside = set(vertices)
    return all(u in inside or v in inside for u, v in g.edges)


def brute_min_mono(g: Graph) -> int:
    """Minimum, over independent subsets, of the edge count avoiding the subset."""
    best = g.m
    for mask in range(1 << g.n):
        ok = True
        for v in range(g.n):
            if mask >> v & 1 and g.adj[v] & mask:
                ok = False
                break
        if not ok:
            continue
        mono = sum(1 for u, v in g.edges if not (mask >> u | mask >> v) & 1)
        if mono < best:
            best = mono
    return best


def brute_max_cut(g: Graph) -> int:
    best = 0
    for mask in range(1 << max(g.n - 1, 0)):
        cut = sum(1 for u, v in g.edges if ((mask >> u) ^ (mask >> v)) & 1)
        if cut > best:
            best = cut
    return best


def brute_max_cut_certificate(g: Graph):
    """(b, removed_edges, bipartition) by trying all 2^(n-1) bipartitions.

    Vertex 0 stays on side 0; among maximum cuts the lexicographically
    smallest removed-edge list wins, the tie rule the solver documents.
    """
    best = None
    for mask in range(1 << max(g.n - 1, 0)):
        side1 = mask << 1
        removed = [(u, v) for u, v in g.edges if not ((side1 >> u) ^ (side1 >> v)) & 1]
        if best is None or (len(removed), removed) < (len(best[0]), best[0]):
            best = (removed, side1)
    removed, side1 = best
    part0 = tuple(v for v in range(g.n) if not side1 >> v & 1)
    part1 = tuple(v for v in range(g.n) if side1 >> v & 1)
    return g.m - len(removed), tuple(removed), (part0, part1)


def bipartization_problem(g: Graph, cert) -> str | None:
    """Why a max-cut certificate fails to prove itself from its own witness, or None.

    A certificate proves that G minus its removed edges is bipartite with b
    edges when its two parts partition V, every kept edge crosses the parts,
    every removed edge is an edge of G that does not, and b + |removed| == m.
    """
    part0, part1 = cert.bipartition
    if sorted(part0 + part1) != list(range(g.n)):
        return "the parts do not partition V"
    removed = set(cert.removed_edges)
    if len(removed) != len(cert.removed_edges) or not removed <= set(g.edges):
        return "the removed edges are not distinct edges of G"
    side0 = set(part0)
    for u, v in g.edges:
        if ((u in side0) != (v in side0)) == ((u, v) in removed):
            kind = "removed edge crosses" if (u, v) in removed else "kept edge does not cross"
            return f"{kind} the parts: {(u, v)}"
    if cert.b + len(cert.removed_edges) != g.m:
        return "b + |removed| != m"
    return None


def _brute_matching_size(edges) -> int:
    def rec(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        best = rec(i + 1, used)
        if not (used >> u | used >> v) & 1:
            best = max(best, 1 + rec(i + 1, used | 1 << u | 1 << v))
        return best

    return rec(0, 0)


def brute_matching(g: Graph) -> int:
    return _brute_matching_size(g.edges)


def brute_matching_witness(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(nu, edges) by the documented rule, with nu of each vertex subset brute-forced.

    Take the lowest remaining vertex: leave it unmatched if nu allows it,
    otherwise match it to its smallest neighbour that keeps nu; repeat. Reads
    only the edge list.
    """

    def nu(alive: frozenset) -> int:
        return _brute_matching_size([(u, v) for u, v in g.edges if u in alive and v in alive])

    alive = frozenset(range(g.n))
    target = nu(alive)
    picked = []
    while alive:
        v = min(alive)
        rest = alive - {v}
        if nu(rest) == target:
            alive = rest
            continue
        near = sorted(b if a == v else a for a, b in g.edges if v in (a, b) and {a, b} <= alive)
        u = next(u for u in near if 1 + nu(rest - {u}) == target)
        picked.append((v, u))
        alive = rest - {u}
        target -= 1
    return len(picked), tuple(picked)


def brute_is_k_colorable(g: Graph, k: int) -> bool:
    """Plain product enumeration with the first vertex pinned to color 0."""
    if g.n == 0:
        return True
    for rest in itertools.product(range(k), repeat=g.n - 1):
        coloring = (0,) + rest
        if all(coloring[u] != coloring[v] for u, v in g.edges):
            return True
    return False


def brute_chromatic_witness(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Color classes of the first proper coloring in (-degree, id) vertex order.

    For k = 1, 2, ... colorings are enumerated in that order, each vertex
    taking a color at most one above the largest used so far, smallest color
    first; the first proper one is returned as sorted classes indexed by color.
    A prefix that already gives both ends of an edge one color is skipped,
    since every coloring extending it is improper.
    """
    degree = [sum(v in e for e in g.edges) for v in range(g.n)]
    order = sorted(range(g.n), key=lambda v: (-degree[v], v))
    earlier = [[j for j in range(i) if g.has_edge(order[i], order[j])] for i in range(g.n)]

    def colorings(prefix: tuple[int, ...], k: int, top: int):
        i = len(prefix)
        if i == g.n:
            yield prefix
            return
        for c in range(min(top + 1, k - 1) + 1):
            if all(prefix[j] != c for j in earlier[i]):
                yield from colorings(prefix + (c,), k, max(top, c))

    for k in range(1, g.n + 1):
        for colors in colorings((), k, -1):
            color_of = dict(zip(order, colors))
            if all(color_of[u] != color_of[v] for u, v in g.edges):
                return tuple(tuple(v for v in range(g.n) if color_of[v] == c) for c in range(k))
    return ()


def first_fit_color_count(g: Graph) -> int:
    """Colors of the first-fit coloring in (-degree, id) order, each vertex taking
    the smallest color no earlier neighbour has: the first leaf of the chi search."""
    degree = [sum(v in e for e in g.edges) for v in range(g.n)]
    color: dict[int, int] = {}
    for v in sorted(range(g.n), key=lambda v: (-degree[v], v)):
        taken = {color[u] for u in color if g.has_edge(u, v)}
        color[v] = min(c for c in range(g.n) if c not in taken)
    return max(color.values()) + 1


def brute_alpha(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        ok = True
        for v in range(g.n):
            if mask >> v & 1 and g.adj[v] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
    return best


def _independent_subsets(g: Graph) -> list[tuple[int, ...]]:
    """Every independent vertex subset as a sorted tuple, read from the edge list only.

    Grown vertex by vertex: v joins each subset holding none of its smaller
    neighbours.
    """
    smaller = [0] * g.n
    for u, v in g.edges:
        smaller[max(u, v)] |= 1 << min(u, v)
    masks = [0]
    for v in range(g.n):
        masks += [s | 1 << v for s in masks if not s & smaller[v]]
    return [tuple(v for v in range(g.n) if s >> v & 1) for s in masks]


def brute_sparing_witness(g: Graph) -> tuple[int, ...]:
    """Lexicographically smallest independent set I minimising the edges avoiding I."""

    def mono(subset):
        inside = set(subset)
        return sum(1 for u, v in g.edges if u not in inside and v not in inside)

    return min(_independent_subsets(g), key=lambda s: (mono(s), s))


def brute_alpha_witness(g: Graph) -> tuple[int, ...]:
    """Lexicographically smallest maximum independent set."""
    return min(_independent_subsets(g), key=lambda s: (-len(s), s))


def forest_heaviest_degree_set(g: Graph) -> int:
    """Largest sum of deg(v) over an independent set of the forest ``g``.

    A leaf-up dynamic program over each tree of the edge list: a vertex
    taken scores its degree plus each child's best without that child, a
    vertex left out scores each child's better value. Raises
    ``ValueError`` if ``g`` has a cycle.
    """
    neighbours: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    parent: dict[int, int | None] = {}
    total = 0
    for root in range(g.n):
        if root in parent:
            continue
        parent[root] = None
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in neighbours[v]:
                if u == parent[v]:
                    continue
                if u in parent:
                    raise ValueError("not a forest")
                parent[u] = v
                stack.append(u)
        taken, left = {}, {}
        for v in reversed(order):
            children = [u for u in neighbours[v] if u != parent[v]]
            taken[v] = len(neighbours[v]) + sum(left[u] for u in children)
            left[v] = sum(max(taken[u], left[u]) for u in children)
        total += max(taken[root], left[root])
    return total


def restart_cycle_decomposition(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The documented cycle decomposition by its first form, read from the edge list.

    Each walk starts at the smallest vertex with unused edges and moves to the
    smallest unused neighbour until a vertex repeats. The cycle it closes is
    removed, the edges walked before that cycle are put back, and the next
    walk starts again from the smallest vertex. Every cycle is written from
    its smallest vertex toward the smaller of that vertex's two neighbours.
    """
    unused: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        unused[u].add(v)
        unused[v].add(u)
    cycles = []
    while any(unused):
        walk = [min(v for v in range(g.n) if unused[v])]
        while True:
            nxt = min(unused[walk[-1]])
            unused[walk[-1]].discard(nxt)
            unused[nxt].discard(walk[-1])
            if nxt in walk:
                i = walk.index(nxt)
                for a, b in zip(walk[:i], walk[1:i + 1]):
                    unused[a].add(b)
                    unused[b].add(a)
                cycle = walk[i:]
                low = cycle.index(min(cycle))
                cycle = cycle[low:] + cycle[:low]
                if cycle[-1] < cycle[1]:
                    cycle = cycle[:1] + cycle[:0:-1]
                cycles.append(tuple(cycle))
                break
            walk.append(nxt)
    return tuple(cycles)


def random_even_degree_graph(rng: random.Random, n: int) -> Graph:
    """A Hamiltonian cycle on n >= 3 vertices, then four random cycles added mod 2.

    Adding a cycle mod 2 keeps every degree even; vertices left with no edge
    are dropped and the others renumbered in order, so the graph may have
    fewer than n vertices.
    """
    edges: set[tuple[int, int]] = set()
    for length in [n] + [rng.randrange(3, n + 1) for _ in range(4)]:
        cycle = rng.sample(range(n), length)
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            edges ^= {(min(u, v), max(u, v))}
    ids = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    return build_graph(len(ids), [(ids[u], ids[v]) for u, v in edges])


def has_triangle(g: Graph) -> bool:
    return any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in itertools.combinations(range(g.n), 3)
    )


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.35) -> Graph:
    """Random spanning tree plus extra edges with the given probability."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def random_independent_set(rng: random.Random, g: Graph) -> tuple[int, ...]:
    chosen: set[int] = set()
    order = list(range(g.n))
    rng.shuffle(order)
    for v in order:
        if rng.random() < 0.65 and all(not g.has_edge(v, u) for u in chosen):
            chosen.add(v)
    return tuple(sorted(chosen))


def all_graphs(n: int, connected: bool):
    """Every labeled graph on exactly n >= 2 vertices with no isolated vertex.

    With ``connected`` only the connected ones, otherwise the disconnected
    ones too.
    """
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        if connected and mask.bit_count() < n - 1:
            continue
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if not all(adj):
            continue
        seen = 1
        frontier = 1
        while connected and frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= nxt
        if connected and seen != (1 << n) - 1:
            continue
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
