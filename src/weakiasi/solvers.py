"""Exact desk-scale solvers: sparing number, maximum cut / bipartization,
matching, chromatic, independence and cover numbers.

All solvers are exact and deterministic: each picks its witness by the rule
its docstring states. φ, α and the maximum cut take the lexicographically
smallest optimum (as sorted vertex or edge id lists), β the complement of
α's, and ν and χ the first of their search (ν on P3 gives ``((1, 2),)``, χ on
P4 the classes ``((1, 3), (0, 2))``). Inputs beyond the documented limits
raise ``TooLargeError`` rather than degrading to heuristics, and a ``graph``
that is not a ``Graph`` raises ``ValueError``.

Each connected component is solved in place by a kernel, ``kernel(graph,
members, *args)``, which takes the graph and the component's vertex mask in
the original ids, so no witness is mapped back. Its docstring describes its
search. It returns an immutable answer: a vertex mask
(``_max_weight_independent``, ``_max_cut_side``), a tuple of color-class masks
(``_color_classes``) or a tuple of matched edges (``_matching_component``).
Components share no vertex, so the masks of a union add up.

Each graph is solved once: ``_per_component`` is a ``functools.lru_cache``
(a ``Graph`` hashes by ``adj``) of a graph's component masks and, per kernel
and ``args``, the kernel's answers per component. A ``check-theorems`` graph
takes six entries and ``check_union_formula`` two for each of four graphs,
hence eight. The public functions check their graph and its limit before the lookup, so a
``TooLargeError`` is raised on every call and never cached, and build their
results from the cached answers on every call, so no caller gets another's
mutable labeling.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import TooLargeError
from .graph import Edge, Graph, _bits, _check_graph, _to_json, connected_components
from .labeling import construct_labeling

SOLVER_VERTEX_LIMIT = 32
# nu's recursion is exponential: some 32-vertex graphs take seconds (ROADMAP item 3)
MATCHING_VERTEX_LIMIT = 24


@lru_cache(maxsize=8)
def _per_component(graph: Graph, kernel=None, *args) -> tuple:
    """Per component, by smallest member: its mask with no kernel, else ``kernel(graph, members, *args)``."""
    if kernel is None:
        return tuple(sum(1 << v for v in members) for members in connected_components(graph))
    return tuple(kernel(graph, members, *args) for members in _per_component(graph))


def _require(graph: Graph, limit: int, what: str) -> None:
    _check_graph(graph)
    if graph.n > limit:
        raise TooLargeError(what, graph.n, limit)


# ---------------------------------------------------------------------------
# Sparing number
# ---------------------------------------------------------------------------


class SparingCertificate(namedtuple("SparingCertificate", "phi independent_set mono_edges labeling")):
    """Optimal mono-indexed edge count with a full witness.

    ``independent_set`` is the optimal choice of non-singleton vertices,
    ``mono_edges`` the edges avoiding it, and ``labeling`` a concrete weak
    labeling realizing exactly those mono edges.
    """

    __slots__ = ()

    to_json_dict = _to_json


def sparing_number_exact(graph: Graph) -> SparingCertificate:
    """Minimum number of mono-indexed edges over all weak labelings.

    A weak labeling forces its non-singleton vertices to form an independent
    set, and every independent set is realizable, so the optimum is the
    minimum over independent sets I of the edge count of G[V - I]: m less
    the sum of deg(v) over I. ``_max_weight_independent`` with weight deg(v)
    finds the lexicographically smallest optimal I in each component; on a
    regular graph unit weights give the same walk, which alpha stores too.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "sparing solver")
    degrees = graph.degrees()
    weight = degrees if len(set(degrees)) > 1 else (1,) * graph.n
    independent = tuple(_bits(sum(_per_component(graph, _max_weight_independent, weight))))
    inside = set(independent)
    mono = tuple(e for e in graph.edges if e[0] not in inside and e[1] not in inside)
    labeling = construct_labeling(graph, independent)
    return SparingCertificate(
        phi=len(mono), independent_set=independent, mono_edges=mono, labeling=labeling
    )


# ---------------------------------------------------------------------------
# Maximum bipartite subgraph (maximum cut)
# ---------------------------------------------------------------------------


class BipartizationCertificate(namedtuple("BipartizationCertificate", "b removed_edges bipartition")):
    """Maximum bipartite spanning subgraph: kept size b, removed edges, 2-coloring."""

    __slots__ = ()

    to_json_dict = _to_json


def max_bipartite_subgraph(graph: Graph) -> BipartizationCertificate:
    """Exact maximum cut: the bipartition maximizing crossing edges.

    Removed edges are the non-crossing edges of the optimal bipartition, so
    ``b + len(removed_edges) == m`` and the remaining graph is bipartite with
    the reported parts. Among optimal cuts the lexicographically smallest
    removed-edge list wins, with the lowest vertex of each component on
    side 0. ``_max_cut_side`` finds each component's side 1.

    The bipartization number m - b is at most the sparing number: phi >= m - b.
    For an independent set I the edges touching I are exactly the cut
    (I, V - I), so m - phi is the largest cut with an independent side, and no
    cut exceeds b. Equality holds iff some maximum cut has an independent
    side; the Durer graph (phi 6, m - b 4) shows the gap.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "max-cut solver")
    side1 = sum(_per_component(graph, _max_cut_side))
    removed = tuple(e for e in graph.edges if not (side1 >> e[0] ^ side1 >> e[1]) & 1)
    part1 = tuple(_bits(side1))
    part0 = tuple(v for v in range(graph.n) if not side1 >> v & 1)
    return BipartizationCertificate(
        b=graph.m - len(removed), removed_edges=removed, bipartition=(part0, part1)
    )


def _max_cut_side(graph: Graph, members: int) -> int:
    """Side-1 mask of the component's maximum cut whose removed-edge list is smallest.

    A depth-first branch and bound places the vertices of ``members`` in the
    order they first appear in the sorted edge list, which decides the
    smallest edges first. The removed edges are kept as a bitmask with edge i
    at bit m-1-i: every maximum cut removes the same number of edges, so the
    larger mask is the smaller list and a tie costs one integer comparison.
    Each side carries the mask of its vertices' edges, so placing a vertex
    cuts its edges in the other side's mask and removes those in its own.
    The bound on a node is the cut so far, plus, for each undecided vertex,
    the larger of its edge counts to the two sides, plus the edges among the
    undecided vertices less a greedy edge-disjoint triangle packing of them
    (each triangle keeps at most two edges in any cut), capped at k*k // 4 for
    k undecided vertices (Poljak & Tuza, "Maximum cuts and large bipartite
    subgraphs", 1995). A subtree is cut when the bound is below the
    incumbent, or equal to it while even removing every undecided edge cannot
    raise the mask above the incumbent's. The first incumbent is
    ``_local_search_side``, which cuts at least m/2 edges.
    """
    adj, m = graph.adj, graph.m
    first, incident = {}, [0] * graph.n
    for i, e in enumerate(graph.edges):
        if members >> e[0] & 1:
            for v in e:
                first[v] = None
                incident[v] |= 1 << (m - 1 - i)
    order = list(first)
    n = len(order)

    # per depth d, for the undecided set U = order[d:] of k vertices: the bits
    # of every edge touching U, each vertex of U's decided neighbours with
    # their count, and slack = |E(U, D)| + min(|E(U)| - t(U), k*k // 4), where
    # t(U) is a greedy edge-disjoint triangle packing of G[U]. The packing
    # grows from the deepest level up: each new vertex takes triangles over
    # unused edges.
    open_bits = [0] * (n + 1)
    slack = [0] * (n + 1)
    open_adj: list[tuple[tuple[int, int], ...]] = [()] * (n + 1)
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
        open_adj[d] = tuple((a, a.bit_count()) for a in (adj[w] & ~undecided for w in order[d:]) if a)

    best_side = _local_search_side(graph, members, order)
    sides = [0, 0]
    for v in order:
        sides[best_side >> v & 1] |= incident[v]
    best_cut, best_mask = (sides[0] & sides[1]).bit_count(), sides[0] ^ sides[1]

    def place(d: int, side1: int, edges0: int, edges1: int, cut: int, removed: int) -> None:
        nonlocal best_cut, best_mask, best_side
        if d == n:
            if cut > best_cut or (cut == best_cut and removed > best_mask):
                best_cut, best_mask, best_side = cut, removed, side1
            return
        bound = cut + slack[d]
        if bound < best_cut:
            return
        for a, size in open_adj[d]:
            y = (a & side1).bit_count()
            bound -= size - y if size < 2 * y else y
        if bound < best_cut or (bound == best_cut and removed | open_bits[d] <= best_mask):
            return
        v = order[d]
        e = incident[v]
        place(d + 1, side1, edges0 | e, edges1, cut + (e & edges1).bit_count(), removed | (e & edges0))
        place(d + 1, side1 | 1 << v, edges0, edges1 | e, cut + (e & edges0).bit_count(), removed | (e & edges1))

    place(1, 0, incident[order[0]], 0, 0, 0)
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

    The witness takes the lowest vertex of each component first: it stays
    unmatched if nu allows it, otherwise it is matched to its smallest
    neighbour that keeps nu. ``_matching_component`` finds it.
    """
    _require(graph, MATCHING_VERTEX_LIMIT, "matching solver")
    matched = sorted(e for edges in _per_component(graph, _matching_component) for e in edges)
    return len(matched), tuple(matched)


def _matching_component(graph: Graph, members: int) -> tuple[Edge, ...]:
    """Witness edges (v, u), v < u, of a maximum matching of the component ``members``.

    A recursion over vertex masks, memoized, that decides each mask the way
    the witness rule does. With v the lowest vertex of a mask and rest the
    mask less v, nu(mask) is nu(rest), or nu(rest) + 1 when some neighbour u
    of v in rest has nu(rest - u) = nu(rest); the neighbours are tried in
    ascending order while nu(rest) + 1 still fits in the mask, and the first
    such u is recorded as v's partner. On a mask of even size v's smallest
    neighbour is tried first for a perfect matching, which leaves no vertex
    unmatched, so that neighbour is the rule's choice. The witness follows
    the recorded partners from ``members``.
    """
    adj = graph.adj
    memo: dict[int, int] = {0: 0}
    partner: dict[int, int] = {}  # mask -> bit of its lowest vertex's partner

    def nu(mask: int) -> int:
        known = memo.get(mask)
        if known is not None:
            return known
        low = mask & -mask
        rest = mask ^ low
        near = adj[low.bit_length() - 1] & rest
        size = mask.bit_count()
        if near and not size & 1:
            ub = near & -near
            if 2 * nu(rest ^ ub) + 2 == size:
                memo[mask], partner[mask] = size // 2, ub
                return size // 2
        best = nu(rest)
        if 2 * best + 2 <= size:
            while near:
                ub = near & -near
                near ^= ub
                if nu(rest ^ ub) == best:
                    partner[mask] = ub
                    best += 1
                    break
        memo[mask] = best
        return best

    nu(members)
    matched: list[Edge] = []
    mask = members
    while mask:
        low = mask & -mask
        ub = partner.get(mask, 0)
        if ub:
            matched.append((low.bit_length() - 1, ub.bit_length() - 1))
        mask ^= low | ub
    return tuple(matched)


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
    merged = [0] * graph.n
    for classes in _per_component(graph, _color_classes):
        for c, mask in enumerate(classes):
            merged[c] += mask
    classes = tuple(tuple(_bits(mask)) for mask in merged if mask)
    return len(classes), classes


def _color_classes(graph: Graph, members: int) -> tuple[int, ...]:
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
    best = (0,) * (n + 1)  # longer than any coloring

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
            best = tuple(classes)
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
    """Exact maximum independent set, the lexicographically smallest one.

    ``_max_weight_independent`` with unit weights.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "independence solver")
    independent = tuple(_bits(sum(_per_component(graph, _max_weight_independent, (1,) * graph.n))))
    return len(independent), independent


def vertex_cover_number(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum vertex cover as the complement of a maximum independent set.

    beta = n - alpha (Gallai), so the cover is the complement of
    ``independence_number``'s witness, which is cached (see the module
    docstring) once alpha of this graph is known.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "cover solver")
    alpha, independent = independence_number(graph)
    inside = set(independent)
    cover = tuple(v for v in range(graph.n) if v not in inside)
    assert alpha + len(cover) == graph.n
    return len(cover), cover


def _max_weight_independent(graph: Graph, members: int, weight: tuple[int, ...]) -> int:
    """Mask of the component's smallest independent set of largest ``weight`` sum.

    Each vertex scores W(v) = weight[v]·2ⁿ + 2^(n−1−v). The tie bits of a
    set sum to less than 2ⁿ, so they never outweigh a unit of weight, and of
    two sets of equal weight the one holding the lowest vertex of their
    difference scores higher. So the unique W-maximum is the witness, the
    lexicographically smallest heaviest set, and any branch order finds it.
    The walk keeps ``free``, the undecided vertices of ``members`` that no
    chosen vertex blocks, and branches include-first on the lowest free
    vertex of the heaviest weight group that still has one: including v
    drops v and its neighbours from ``free``, excluding it drops v only. The
    bound is a greedy clique cover of ``free``, each free vertex, lowest
    first, growing a clique from its free neighbours: the set holds at most
    one vertex of a clique, so each clique adds its largest W until the bound
    passes the incumbent. Only a strictly larger score replaces the
    incumbent, so no cut loses the witness. In a component of one weight,
    even inside a graph of several, the branch order is the id order, whose
    first optimum is already the smallest set, so W is the weight alone.
    """
    adj, n = graph.adj, graph.n
    groups: dict[int, int] = {}
    for v in _bits(members):
        groups[weight[v]] = groups.get(weight[v], 0) | 1 << v
    heavy_first = [groups[w] for w in sorted(groups, reverse=True)]
    score = weight if len(heavy_first) == 1 else [w << n | 1 << (n - 1 - v) for v, w in enumerate(weight)]
    best_gain, best = -1, 0

    def walk(free: int, chosen: int, gain: int, g: int) -> None:
        nonlocal best_gain, best
        bound, rest = gain, free
        while rest and bound <= best_gain:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            heaviest, mates = score[v], adj[v] & rest
            while mates:
                low = mates & -mates
                u = low.bit_length() - 1
                rest ^= low
                mates &= adj[u]
                if score[u] > heaviest:
                    heaviest = score[u]
            bound += heaviest
        if bound <= best_gain:
            return
        if not free:
            best_gain, best = gain, chosen
            return
        group = free & heavy_first[g]
        while not group:
            g += 1
            group = free & heavy_first[g]
        low = group & -group
        v = low.bit_length() - 1
        walk(free & ~(adj[v] | low), chosen | low, gain + score[v], g)
        walk(free ^ low, chosen, gain, g)

    walk(members, 0, 0, 0)
    return best
