"""Relations between the solvers' answers, as Hypothesis properties.

Each property is a proved inequality or identity, so it checks the solvers
by a second route on random connected graphs with at most 10 vertices.
"""

from hypothesis import given, strategies as st

from weakiasi import (
    build_graph,
    chromatic_number,
    independence_number,
    max_bipartite_subgraph,
    maximum_matching,
    sparing_number_exact,
    vertex_cover_number,
)


@st.composite
def connected_graphs(draw, max_n=10):
    """A random spanning tree on 2..max_n vertices plus any other edges."""
    n = draw(st.integers(2, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return build_graph(n, sorted(tree | set(extra)))


@given(connected_graphs())
def test_sparing_at_least_edges_outside_max_cut(g):
    # I is independent, so the cut (I, V - I) crosses sum deg(I) = m - phi edges
    cert = sparing_number_exact(g)
    inside = set(cert.independent_set)
    crossing = sum(1 for u, v in g.edges if (u in inside) != (v in inside))
    assert crossing == g.m - cert.phi
    assert cert.phi >= g.m - max_bipartite_subgraph(g).b


@given(connected_graphs())
def test_edwards_bound(g):
    # b >= m/2 + (n - 1)/4 on connected graphs (Edwards 1973)
    assert 4 * max_bipartite_subgraph(g).b >= 2 * g.m + g.n - 1


@given(connected_graphs())
def test_alpha_plus_beta_is_n(g):
    beta, cover = vertex_cover_number(g)
    assert all(u in cover or v in cover for u, v in g.edges)
    assert independence_number(g)[0] + beta == g.n


@given(connected_graphs())
def test_matching_at_most_half_the_vertices(g):
    assert maximum_matching(g)[0] <= g.n // 2


@given(connected_graphs())
def test_chromatic_at_most_max_degree_plus_one(g):
    assert chromatic_number(g)[0] <= max(a.bit_count() for a in g.adj) + 1
