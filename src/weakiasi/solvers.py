"""Exact desk-scale solvers: sparing number, maximum cut / bipartization,
matching, chromatic, independence and cover numbers.

All solvers are exact and deterministic. Ties are broken toward the
lexicographically smallest witness (compared as sorted vertex or edge id
lists), so identical inputs always yield identical certificates. Each
connected component is solved in place: a kernel takes the graph and the
component's vertex mask in the original ids, and the results combine
additively (phi, b, nu, alpha, beta) or by maximum (chi). Inputs beyond the
documented limits raise ``TooLargeError`` rather than degrading to
heuristics.

The sparing, independence and cover numbers share one search over the
independent sets I, ``_min_cover_mask``: unit vertex costs on the cover
C = V - I give beta = |C| and alpha = n - |C|; edge costs give
phi = |E(G[C])|. With vertex costs a greedy clique cover of the undecided
vertices bounds the walk from below: I holds at most one vertex of a clique,
so the others join C. The bound cuts only subtrees holding no cheaper cover,
so the first optimum found is unchanged.

The matching number is a memoized dynamic program over vertex masks. When the
lowest vertex has a neighbour it is matched in some maximum matching, so only
those branches are taken, and they stop at a matching of k // 2 edges on k
vertices.

Maximum cut is one branch and bound, ``_max_cut_side``. It places vertices in
the order they first appear in the sorted edge list and keeps a removed-edge
bitmask (edge i at bit m-1-i), so the tie-break between equal cuts is one
integer comparison. Its bound counts, for each undecided vertex, the larger
of its edge counts to the two sides, and the edges among the k undecided
vertices less a greedy edge-disjoint triangle packing, at most k*k // 4
(Poljak & Tuza, "Maximum cuts and large bipartite subgraphs", 1995). A
greedy cut improved by single-vertex flips, which cuts at least m/2 edges,
is the first incumbent.

The chromatic number is one branch and bound over color-class bitmasks,
``_color_classes``: vertices in largest-degree-first order join an open
class or open one new class, and a branch stops once it holds as many classes
as the best coloring found, so the first leaf is the greedy coloring. The
uncolored vertices every open class blocks need a new class each for a
greedy clique among them, so a branch also stops when its classes plus that
clique reach the best count; it holds no smaller coloring, so the first
optimum found is unchanged.

Each graph is solved once. Every answer is a function of ``graph.adj`` (n and
the sorted edges follow from it), so a private store keyed by ``adj`` keeps
the answers of the last distinct graph only: the component masks, the vertex
mask each ``_union_per_component`` call picks (phi, alpha and the max-cut
side), and the chromatic and matching answers, all ints or tuples of ints.
The public functions check their limit before the lookup, so a
``TooLargeError`` is raised on every call and never stored. They build the
sparing, max-cut, independence and cover results from the stored masks on
every call, so no caller gets another's mutable labeling; the chromatic and
matching tuples are returned as stored. A new graph replaces the store as one
``(adj, answers)`` tuple, so a concurrent caller never reads another graph's
answer.
"""

from __future__ import annotations

from functools import wraps
from typing import NamedTuple

from .errors import TooLargeError
from .graph import Edge, Graph, _bits, _to_json, connected_components
from .labeling import IasiLabeling, construct_labeling

SOLVER_VERTEX_LIMIT = 32
MATCHING_VERTEX_LIMIT = 24


# the last graph solved: its adj, and the answers of the helpers decorated
# with _per_graph keyed by (helper, *args)
_solved: tuple[tuple[int, ...], dict] = ((), {})


def _per_graph(helper):
    """``helper(graph, *args)``, which returns an immutable value, run once per graph."""

    @wraps(helper)
    def once(graph: Graph, *args):
        global _solved
        adj, answers = _solved
        if adj != graph.adj:
            adj, answers = graph.adj, {}
            _solved = adj, answers
        key = (helper, *args)
        answer = answers.get(key)
        if answer is None:
            answer = answers[key] = helper(graph, *args)
        return answer

    return once


@_per_graph
def _component_masks(graph: Graph) -> tuple[int, ...]:
    """Vertex mask of each connected component, ordered by smallest member."""
    return tuple(sum(1 << v for v in members) for members in connected_components(graph))


@_per_graph
def _union_per_component(graph: Graph, kernel, *args) -> int:
    """Union of the vertex masks ``kernel(graph, members, *args)`` picks in each component."""
    picked = 0
    for members in _component_masks(graph):
        picked |= kernel(graph, members, *args)
    return picked


def _require(graph: Graph, limit: int, what: str) -> None:
    if graph.n > limit:
        raise TooLargeError(what, graph.n, limit)


# ---------------------------------------------------------------------------
# Sparing number
# ---------------------------------------------------------------------------


class SparingCertificate(NamedTuple):
    """Optimal mono-indexed edge count with a full witness.

    ``independent_set`` is the optimal choice of non-singleton vertices,
    ``mono_edges`` the edges avoiding it, and ``labeling`` a concrete weak
    labeling realizing exactly those mono edges.
    """

    phi: int
    independent_set: tuple[int, ...]
    mono_edges: tuple[Edge, ...]
    labeling: IasiLabeling

    to_json_dict = _to_json


def sparing_number_exact(graph: Graph) -> SparingCertificate:
    """Minimum number of mono-indexed edges over all weak labelings.

    A weak labeling forces its non-singleton vertices to form an independent
    set, and every independent set is realizable, so the optimum is the
    minimum over independent sets I of the edge count of G[V - I]. Per
    component ``_min_cover_mask`` finds it with edge costs only: the edges
    already inside the cover bound every completion from below, and the
    first optimum found is the lexicographically smallest I.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "sparing solver")
    independent = tuple(_bits(_union_per_component(graph, _min_cover_mask, 0, graph.adj)))
    inside = set(independent)
    mono = tuple(e for e in graph.edges if e[0] not in inside and e[1] not in inside)
    labeling = construct_labeling(graph, independent)
    return SparingCertificate(
        phi=len(mono), independent_set=independent, mono_edges=mono, labeling=labeling
    )


# ---------------------------------------------------------------------------
# Maximum bipartite subgraph (maximum cut)
# ---------------------------------------------------------------------------


class BipartizationCertificate(NamedTuple):
    """Maximum bipartite spanning subgraph: kept size b, removed edges, 2-coloring."""

    b: int
    removed_edges: tuple[Edge, ...]
    bipartition: tuple[tuple[int, ...], tuple[int, ...]]

    to_json_dict = _to_json


def max_bipartite_subgraph(graph: Graph) -> BipartizationCertificate:
    """Exact maximum cut: the bipartition maximizing crossing edges.

    Removed edges are the non-crossing edges of the optimal bipartition, so
    ``b + len(removed_edges) == m`` and the remaining graph is bipartite with
    the reported parts. Among optimal cuts the lexicographically smallest
    removed-edge list wins, with the lowest vertex of each component on
    side 0.

    Per component a depth-first branch and bound places the vertices in the
    order they first appear in the sorted edge list, which decides the
    smallest edges first. The removed edges are kept as a bitmask with edge i
    at bit m-1-i: every maximum cut removes the same number of edges, so the
    larger mask is the smaller list and a tie costs one integer comparison.
    The bound on a node is the cut so far, plus, for each undecided vertex,
    the larger of its edge counts to the two sides, plus the edges among the
    undecided vertices less a greedy edge-disjoint triangle packing of them
    (each triangle keeps at most two edges in any cut), capped at k*k // 4 for
    k undecided vertices. A subtree is cut when the bound is below the
    incumbent, or equal to it while even removing every undecided edge cannot
    raise the mask above the incumbent's. The first incumbent is a greedy
    placement improved by single-vertex flips, which cuts at least m/2 edges.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "max-cut solver")
    side1 = _union_per_component(graph, _max_cut_side)
    removed = tuple(e for e in graph.edges if not (side1 >> e[0] ^ side1 >> e[1]) & 1)
    part1 = tuple(_bits(side1))
    part0 = tuple(v for v in range(graph.n) if not side1 >> v & 1)
    return BipartizationCertificate(
        b=graph.m - len(removed), removed_edges=removed, bipartition=(part0, part1)
    )


def bipartization_number(graph: Graph) -> int:
    """Minimum number of edge removals leaving a bipartite graph: m - b.

    It is at most the sparing number: phi >= m - b. For an independent set I
    the edges touching I are exactly the cut (I, V - I), so m - phi is the
    largest cut with an independent side, and no cut exceeds b. Equality holds
    iff some maximum cut has an independent side; the Durer graph (phi 6,
    m - b 4) shows the gap.
    """
    return graph.m - max_bipartite_subgraph(graph).b


def _max_cut_side(graph: Graph, members: int) -> int:
    """Side-1 mask of the component's maximum cut whose removed-edge list is smallest.

    The branch and bound described in ``max_bipartite_subgraph`` over the
    component with vertex mask ``members``: it maximises the pair (cut,
    removed-edge mask), edge i of the graph at bit m-1-i.
    """
    adj, m = graph.adj, graph.m
    edge_bit = {e: 1 << (m - 1 - i) for i, e in enumerate(graph.edges) if members >> e[0] & 1}
    low = (members & -members).bit_length() - 1
    order = list(dict.fromkeys([low, *(v for e in edge_bit for v in e)]))
    n = len(order)
    incident = [0] * graph.n
    for (u, v), b in edge_bit.items():
        incident[u] |= b
        incident[v] |= b

    # per depth d: the vertex placed there, its decided neighbours and the
    # (vertex bit, edge bit) pair of each edge to them
    vertex_bit, back_adj, back_pairs, back_bits = [], [], [], []
    decided = 0
    for v in order:
        back = adj[v] & decided
        pairs = tuple((1 << u, edge_bit[(u, v) if u < v else (v, u)]) for u in _bits(back))
        vertex_bit.append(1 << v)
        back_adj.append(back)
        back_pairs.append(pairs)
        back_bits.append(sum(b for _, b in pairs))
        decided |= 1 << v

    # per depth d, for the undecided set U = order[d:] of k vertices: the bits
    # of every edge touching U, the decided neighbours of each vertex of U,
    # and slack = |E(U, D)| + min(|E(U)| - t(U), k*k // 4), where t(U) is a
    # greedy edge-disjoint triangle packing of G[U]. The packing grows from
    # the deepest level up: each new vertex takes triangles over unused edges.
    open_bits = [0] * (n + 1)
    slack = [0] * (n + 1)
    open_adj: list[tuple[int, ...]] = [()] * (n + 1)
    unused = [0] * graph.n
    undecided = packed = inside = 0
    for d in range(n - 1, -1, -1):
        v = order[d]
        free = adj[v] & undecided
        inside += free.bit_count()
        for a in _bits(free):
            partner = unused[a] & free if free >> a & 1 else 0
            if partner:
                low = partner & -partner
                free &= ~((1 << a) | low)
                unused[a] &= ~low
                unused[low.bit_length() - 1] &= ~(1 << a)
                packed += 1
        unused[v] = free
        for a in _bits(free):
            unused[a] |= 1 << v
        undecided |= 1 << v
        open_bits[d] = open_bits[d + 1] | incident[v]
        k = n - d
        slack[d] = open_bits[d].bit_count() - inside + min(inside - packed, k * k // 4)
        open_adj[d] = tuple(a for a in (adj[w] & ~undecided for w in order[d:]) if a)

    best_side = _local_search_side(graph, members, order)
    best_cut = best_mask = 0
    for (u, v), b in edge_bit.items():
        if (best_side >> u ^ best_side >> v) & 1:
            best_cut += 1
        else:
            best_mask |= b

    def place(d: int, side0: int, side1: int, cut: int, removed: int) -> None:
        nonlocal best_cut, best_mask, best_side
        if d == n:
            if cut > best_cut or (cut == best_cut and removed > best_mask):
                best_cut, best_mask, best_side = cut, removed, side1
            return
        bound = cut + slack[d]
        if bound < best_cut:
            return
        for a in open_adj[d]:
            x, y = (a & side0).bit_count(), (a & side1).bit_count()
            bound -= x if x < y else y
        if bound < best_cut or (bound == best_cut and removed | open_bits[d] <= best_mask):
            return
        removed0 = 0
        for ub, eb in back_pairs[d]:
            if side0 & ub:
                removed0 |= eb
        back, vb = back_adj[d], vertex_bit[d]
        place(d + 1, side0 | vb, side1, cut + (back & side1).bit_count(), removed | removed0)
        removed1 = removed0 ^ back_bits[d]
        place(d + 1, side0, side1 | vb, cut + (back & side0).bit_count(), removed | removed1)

    place(1, vertex_bit[0], 0, 0, 0)
    return best_side


def _local_search_side(graph: Graph, members: int, order: list[int]) -> int:
    """Side-1 mask of a greedy cut of component ``members`` improved by flips, lowest on side 0.

    A flip is made while some vertex has more neighbours on its own side than
    across, so every vertex ends with at least half its edges cut: cut >= m/2.
    """
    adj = graph.adj
    side1 = placed = 0
    for v in order:
        near = adj[v] & placed
        if (near & ~side1).bit_count() > (near & side1).bit_count():
            side1 |= 1 << v
        placed |= 1 << v
    improved = True
    while improved:
        improved = False
        for v in _bits(members):
            same = adj[v] & (side1 if side1 >> v & 1 else ~side1)
            if 2 * same.bit_count() > adj[v].bit_count():
                side1 ^= 1 << v
                improved = True
    if side1 & members & -members:
        side1 ^= members
    return side1


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def maximum_matching(graph: Graph) -> tuple[int, tuple[Edge, ...]]:
    """Maximum set of pairwise non-adjacent edges, with a witness.

    Subset dynamic program over vertex masks (memoized on the remaining
    vertex set), run per component. The lowest vertex v of a mask, if it has
    a neighbour there, is matched in some maximum matching (swap its
    neighbour's edge for the one to v), so the program only branches on v's
    neighbours, and stops at the first one that leaves at most one vertex of
    the mask unmatched. The witness takes the lowest vertex: it stays
    unmatched if nu allows it, otherwise it is matched to its smallest
    neighbour that keeps nu.
    """
    _require(graph, MATCHING_VERTEX_LIMIT, "matching solver")
    return _matching(graph)


@_per_graph
def _matching(graph: Graph) -> tuple[int, tuple[Edge, ...]]:
    mate = [0] * graph.n
    size = sum(_matching_component(graph, members, mate) for members in _component_masks(graph))
    return size, tuple((v, u) for v, u in enumerate(mate) if u)


def matching_number(graph: Graph) -> int:
    return maximum_matching(graph)[0]


def _matching_component(graph: Graph, members: int, mate: list[int]) -> int:
    """nu of the component ``members``; writes each witness edge (v, u), v < u, as mate[v] = u."""
    adj = graph.adj
    memo: dict[int, int] = {0: 0}

    def rec(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        nb = adj[v] & rest
        if not nb:
            best = rec(rest)
        else:
            # some maximum matching covers v: swap its neighbour's edge for uv
            best, cap = 0, mask.bit_count() // 2
            while nb and best < cap:
                ub = nb & -nb
                nb ^= ub
                cand = 1 + rec(rest ^ ub)
                if cand > best:
                    best = cand
        memo[mask] = best
        return best

    size = rec(members)
    mask = members
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if rec(mask) == rec(rest):
            mask = rest
            continue
        nb = adj[v] & rest
        while nb:
            ub = nb & -nb
            nb ^= ub
            if 1 + rec(rest ^ ub) == rec(mask):
                mate[v] = ub.bit_length() - 1
                mask = rest ^ ub
                break
    return size


# ---------------------------------------------------------------------------
# Chromatic number
# ---------------------------------------------------------------------------


def chromatic_number(graph: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact chromatic number with one optimal proper coloring.

    Returns (chi, color classes), classes indexed by color and each sorted.
    The witness is, per component, the first optimal coloring met when the
    vertices are colored in largest-degree-first order (ties to the smaller
    id), each taking the open classes in index order and then one new class;
    class c of the result is the union of the components' classes c.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "chromatic solver")
    return _coloring(graph)


@_per_graph
def _coloring(graph: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    merged = [0] * graph.n
    for members in _component_masks(graph):
        for c, mask in enumerate(_color_classes(graph, members)):
            merged[c] |= mask
    classes = tuple(tuple(_bits(mask)) for mask in merged if mask)
    return len(classes), classes


def _color_classes(graph: Graph, members: int) -> list[int]:
    """Class masks of the component's first optimal coloring, in color order.

    Depth first over the vertices of ``members`` in ``(-degree, id)`` order; a
    branch stops once its classes, plus a greedy clique (lowest vertex first)
    among the uncolored vertices every open class blocks, reach the count of
    the best coloring found so far. Every completion needs that many, and only
    a strictly smaller coloring replaces the incumbent, so the first optimum
    is the one the plain depth-first search finds.
    """
    adj = graph.adj
    order = sorted(_bits(members), key=lambda v: (-adj[v].bit_count(), v))
    n = len(order)
    classes: list[int] = []
    near: list[int] = []  # near[c]: the neighbours of classes[c]
    best = [0] * (n + 1)  # longer than any coloring

    def extend(i: int) -> None:
        nonlocal best
        # no vertex is a neighbour of its own class, so with a class open
        # only uncolored vertices are left
        stuck = members
        for blocked in near:
            stuck &= blocked
        need = len(classes)
        while stuck:
            need += 1
            stuck &= adj[(stuck & -stuck).bit_length() - 1]
        if need >= len(best):
            return
        if i == n:
            best = classes.copy()
            return
        v = order[i]
        bit, adj_v = 1 << v, adj[v]
        for c, cls in enumerate(classes):
            if not cls & adj_v:
                blocked = near[c]
                classes[c], near[c] = cls | bit, blocked | adj_v
                extend(i + 1)
                classes[c], near[c] = cls, blocked
        classes.append(bit)
        near.append(adj_v)
        extend(i + 1)
        classes.pop()
        near.pop()

    extend(0)
    return best


# ---------------------------------------------------------------------------
# Independence and cover numbers
# ---------------------------------------------------------------------------


def independence_number(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set, as the complement of a least cover.

    ``_min_cover_mask`` with unit vertex costs, bounded by the vertices
    already excluded or blocked plus, for each clique of a greedy clique
    cover of the undecided ones, its size less one. The bound cuts only
    branches with no larger independent set, so the witness is the
    lexicographically smallest maximum independent set.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "independence solver")
    independent = tuple(_bits(_union_per_component(graph, _min_cover_mask, 1, (0,) * graph.n)))
    return len(independent), independent


def vertex_cover_number(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum vertex cover as the complement of a maximum independent set.

    beta = n - alpha (Gallai), so the cover is the complement of
    ``independence_number``'s witness. That call walks nothing when the last
    graph solved has this ``graph.adj`` and its alpha is known: the per-graph
    store (see the module docstring) keeps the walk's independent-set mask,
    an int, and both tuples are rebuilt from it on every call.
    """
    alpha, independent = independence_number(graph)
    inside = set(independent)
    cover = tuple(v for v in range(graph.n) if v not in inside)
    assert alpha + len(cover) == graph.n
    return len(cover), cover


def _min_cover_mask(graph: Graph, members: int, vertex_cost: int, edge_adj) -> int:
    """Independent set I (a mask) of a component whose cover C = members - I costs least.

    ``members`` is the component's vertex mask. A vertex u joining C costs
    ``vertex_cost + |edge_adj[u] & C|``. The walk starts with the other
    components' vertices in the cover at no cost, so it skips them, and goes
    include-first in ascending id; a vertex joins C when excluded, or at once
    when a chosen neighbour blocks it, so the running cost bounds every
    completion, ``cost >= best`` prunes, and the first optimum found is the
    lexicographically smallest I. With ``vertex_cost > 0`` the bound adds
    ``vertex_cost`` per vertex of a greedy clique cover of the undecided
    vertices, less one per clique (each free vertex, lowest first, grows a
    clique from its free neighbours, lowest first): I holds at most one
    vertex of each clique (a matching is the case of size-two cliques). The
    bound cuts no strictly cheaper cover, so the first optimum is unchanged.
    """
    n, adj = graph.n, graph.adj
    full = (1 << n) - 1
    best_cost = n * vertex_cost + graph.m + 1
    best_cover = 0

    def walk(idx: int, cover: int, cost: int) -> None:
        nonlocal best_cost, best_cover
        if cost >= best_cost:
            return
        while cover >> idx & 1:
            idx += 1
        if idx == n:
            best_cost, best_cover = cost, cover
            return
        if vertex_cost:
            # all but one vertex of each clique of a greedy clique cover of
            # the undecided vertices join C
            free, forced = ~cover & full >> idx << idx, 0
            while free:
                low = free & -free
                free ^= low
                mates = adj[low.bit_length() - 1] & free
                while mates:
                    low = mates & -mates
                    free ^= low
                    mates &= adj[low.bit_length() - 1]
                    forced += 1
            if cost + vertex_cost * forced >= best_cost:
                return
        new = adj[idx] & ~cover
        blocked, grown = cover, cost + vertex_cost * new.bit_count()
        while new:
            low = new & -new
            new ^= low
            grown += (edge_adj[low.bit_length() - 1] & blocked).bit_count()
            blocked |= low
        walk(idx + 1, blocked, grown)
        walk(idx + 1, cover | 1 << idx, cost + vertex_cost + (edge_adj[idx] & cover).bit_count())

    walk(0, full & ~members, 0)
    return members & ~best_cover
