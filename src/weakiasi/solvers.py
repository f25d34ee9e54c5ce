"""Exact desk-scale solvers: sparing number, maximum cut / bipartization,
matching, chromatic, independence and cover numbers.

All solvers are exact and deterministic. Ties are broken toward the
lexicographically smallest witness (compared as sorted vertex or edge id
lists), so identical inputs always yield identical certificates. Disconnected
inputs are solved per connected component and combined additively (phi, b,
nu, alpha, beta) or by maximum (chi). Inputs beyond the documented limits
raise ``TooLargeError`` rather than degrading to heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLargeError
from .graph import Edge, Graph, connected_components, induced_subgraph
from .labeling import IasiLabeling, construct_labeling

SOLVER_VERTEX_LIMIT = 32
MATCHING_VERTEX_LIMIT = 24


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _per_component(graph: Graph):
    for members in connected_components(graph):
        yield induced_subgraph(graph, members)


def _require(graph: Graph, limit: int, what: str) -> None:
    if graph.n > limit:
        raise TooLargeError(what, graph.n, limit)


# ---------------------------------------------------------------------------
# Sparing number
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparingCertificate:
    """Optimal mono-indexed edge count with a full witness.

    ``independent_set`` is the optimal choice of non-singleton vertices,
    ``mono_edges`` the edges avoiding it, and ``labeling`` a concrete weak
    labeling realizing exactly those mono edges.
    """

    phi: int
    independent_set: tuple[int, ...]
    mono_edges: tuple[Edge, ...]
    labeling: IasiLabeling

    def to_json_dict(self) -> dict:
        return {
            "phi": self.phi,
            "independent_set": list(self.independent_set),
            "mono_edges": [list(e) for e in self.mono_edges],
            "labeling": self.labeling.to_json_dict(),
        }


def sparing_number_exact(graph: Graph) -> SparingCertificate:
    """Minimum number of mono-indexed edges over all weak labelings.

    A weak labeling forces its non-singleton vertices to form an independent
    set, and every independent set is realizable, so the optimum is the
    minimum over independent sets I of the number of edges avoiding I. The
    search is a per-component depth-first branch and bound over bit-vectors
    that prunes as soon as the edges already forced mono reach the incumbent;
    the include-first vertex order makes the first optimum found the
    lexicographically smallest one.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "sparing solver")
    members: list[int] = []
    for sub, back in _per_component(graph):
        mask = _min_mono_mask(sub)
        members.extend(back[i] for i in _bits(mask))
    independent = tuple(sorted(members))
    inside = set(independent)
    mono = tuple(e for e in graph.edges if e[0] not in inside and e[1] not in inside)
    labeling = construct_labeling(graph, independent)
    return SparingCertificate(
        phi=len(mono), independent_set=independent, mono_edges=mono, labeling=labeling
    )


def _min_mono_mask(graph: Graph) -> int:
    n, adj = graph.n, graph.adj
    best_count = graph.m + 1
    best_mask = 0

    def walk(idx: int, chosen: int, blocked: int, excluded: int, forced: int) -> None:
        nonlocal best_count, best_mask
        if forced >= best_count:
            return
        if idx == n:
            best_count, best_mask = forced, chosen
            return
        bit = 1 << idx
        if not blocked & bit:
            walk(idx + 1, chosen | bit, blocked | adj[idx], excluded, forced)
        walk(idx + 1, chosen, blocked, excluded | bit, forced + (adj[idx] & excluded).bit_count())

    walk(0, 0, 0, 0, 0)
    return best_mask


# ---------------------------------------------------------------------------
# Maximum bipartite subgraph (maximum cut)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartizationCertificate:
    """Maximum bipartite spanning subgraph: kept size b, removed edges, 2-coloring."""

    b: int
    removed_edges: tuple[Edge, ...]
    bipartition: tuple[tuple[int, ...], tuple[int, ...]]

    def to_json_dict(self) -> dict:
        return {
            "b": self.b,
            "removed_edges": [list(e) for e in self.removed_edges],
            "bipartition": [list(self.bipartition[0]), list(self.bipartition[1])],
        }


def max_bipartite_subgraph(graph: Graph) -> BipartizationCertificate:
    """Exact maximum cut: the bipartition maximizing crossing edges.

    Removed edges are the non-crossing edges of the optimal bipartition, so
    ``b + len(removed_edges) == m`` and the remaining graph is bipartite with
    the reported parts. Per component a depth-first branch and bound places
    vertices in id order, with vertex 0 fixed on side 0, and prunes when the
    cut so far plus every edge not yet decided cannot reach the incumbent;
    among optimal cuts the lexicographically smallest removed-edge list wins.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "max-cut solver")
    side1: set[int] = set()
    for sub, back in _per_component(graph):
        mask = _max_cut_branch_bound(sub)
        side1.update(back[i] for i in _bits(mask))
    removed = tuple(e for e in graph.edges if (e[0] in side1) == (e[1] in side1))
    part1 = tuple(sorted(side1))
    part0 = tuple(v for v in range(graph.n) if v not in side1)
    return BipartizationCertificate(
        b=graph.m - len(removed), removed_edges=removed, bipartition=(part0, part1)
    )


def bipartization_number(graph: Graph) -> int:
    """Minimum number of edge removals leaving a bipartite graph: m - b."""
    return graph.m - max_bipartite_subgraph(graph).b


def _removed_for(graph: Graph, side1: int) -> list[Edge]:
    return [e for e in graph.edges if not ((side1 >> e[0]) ^ (side1 >> e[1])) & 1]


def _max_cut_branch_bound(graph: Graph) -> int:
    n, adj, m = graph.n, graph.adj, graph.m
    below = [adj[v] & ((1 << v) - 1) for v in range(n)]
    decided_after = [0] * (n + 1)
    for v in range(n):
        decided_after[v + 1] = decided_after[v] + below[v].bit_count()
    best_cut = -1
    best_side = 0
    best_removed: list[Edge] = []

    def place(v: int, side1: int, cut: int) -> None:
        nonlocal best_cut, best_side, best_removed
        if cut + (m - decided_after[v]) < best_cut:
            return
        if v == n:
            if cut > best_cut:
                best_cut, best_side = cut, side1
                best_removed = _removed_for(graph, side1)
            elif cut == best_cut:
                candidate = _removed_for(graph, side1)
                if candidate < best_removed:
                    best_side, best_removed = side1, candidate
            return
        side0 = ((1 << v) - 1) & ~side1
        place(v + 1, side1, cut + (below[v] & side1).bit_count())
        if v > 0:
            place(v + 1, side1 | (1 << v), cut + (below[v] & side0).bit_count())

    place(0, 0, 0)
    return best_side


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def maximum_matching(graph: Graph) -> tuple[int, tuple[Edge, ...]]:
    """Maximum set of pairwise non-adjacent edges, with a witness.

    Subset dynamic program over vertex masks (memoized on the remaining
    vertex set), run per component; the witness is reconstructed greedily
    toward smallest vertex ids.
    """
    _require(graph, MATCHING_VERTEX_LIMIT, "matching solver")
    total = 0
    picked: list[Edge] = []
    for sub, back in _per_component(graph):
        size, local = _matching_component(sub)
        total += size
        picked.extend(tuple(sorted((back[u], back[v]))) for u, v in local)
    return total, tuple(sorted(picked))


def matching_number(graph: Graph) -> int:
    return maximum_matching(graph)[0]


def _matching_component(graph: Graph) -> tuple[int, list[Edge]]:
    adj = graph.adj
    memo: dict[int, int] = {0: 0}

    def rec(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        best = rec(rest)
        nb = adj[v] & rest
        while nb:
            ub = nb & -nb
            nb ^= ub
            cand = 1 + rec(rest ^ ub)
            if cand > best:
                best = cand
        memo[mask] = best
        return best

    full = (1 << graph.n) - 1
    size = rec(full)
    edges: list[Edge] = []
    mask = full
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
                edges.append((v, ub.bit_length() - 1))
                mask = rest ^ ub
                break
    return size, edges


# ---------------------------------------------------------------------------
# Chromatic number
# ---------------------------------------------------------------------------


def chromatic_number(graph: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact chromatic number with one optimal proper coloring.

    Iterative deepening over the color count; within each attempt,
    backtracking in largest-degree-first order with the usual symmetry break
    (at most one brand-new color per step). Returns (chi, color classes),
    classes indexed by color and each sorted.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "chromatic solver")
    assignment = [0] * graph.n
    chi = 0
    for sub, back in _per_component(graph):
        k, colors = _chromatic_component(sub)
        chi = max(chi, k)
        for i, c in enumerate(colors):
            assignment[back[i]] = c
    classes = tuple(
        tuple(v for v in range(graph.n) if assignment[v] == c) for c in range(chi)
    )
    return chi, classes


def _chromatic_component(graph: Graph) -> tuple[int, list[int]]:
    n, adj = graph.n, graph.adj
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    colors = [-1] * n

    def attempt(pos: int, k: int, used: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        taken = 0
        nb = adj[v]
        while nb:
            low = nb & -nb
            nb ^= low
            c = colors[low.bit_length() - 1]
            if c >= 0:
                taken |= 1 << c
        top = min(k - 1, used)
        for c in range(top + 1):
            if taken >> c & 1:
                continue
            colors[v] = c
            if attempt(pos + 1, k, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    for k in range(1, n + 1):
        if attempt(0, k, 0):
            return k, colors
    raise AssertionError("n colors always suffice")


# ---------------------------------------------------------------------------
# Independence and cover numbers
# ---------------------------------------------------------------------------


def independence_number(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set via branch and bound on bit-vectors.

    The include-first ascending-id order plus strict-improvement acceptance
    yields the lexicographically smallest maximum independent set.
    """
    _require(graph, SOLVER_VERTEX_LIMIT, "independence solver")
    alpha = 0
    members: list[int] = []
    for sub, back in _per_component(graph):
        mask = _max_independent_mask(sub)
        alpha += mask.bit_count()
        members.extend(back[i] for i in _bits(mask))
    return alpha, tuple(sorted(members))


def vertex_cover_number(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum vertex cover as the complement of a maximum independent set."""
    alpha, independent = independence_number(graph)
    inside = set(independent)
    cover = tuple(v for v in range(graph.n) if v not in inside)
    assert alpha + len(cover) == graph.n
    return len(cover), cover


def _max_independent_mask(graph: Graph) -> int:
    n, adj = graph.n, graph.adj
    full = (1 << n) - 1
    best_size = -1
    best_mask = 0

    def walk(idx: int, chosen: int, blocked: int, count: int) -> None:
        nonlocal best_size, best_mask
        available = ((full >> idx) << idx) & ~blocked
        if count + available.bit_count() <= best_size:
            return
        if idx == n:
            best_size, best_mask = count, chosen
            return
        bit = 1 << idx
        if not blocked & bit:
            walk(idx + 1, chosen | bit, blocked | adj[idx], count + 1)
        walk(idx + 1, chosen, blocked, count)

    walk(0, 0, 0, 0)
    return best_mask
