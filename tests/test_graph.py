import random
import re

import pytest

from weakiasi import (
    InvalidEdgeError,
    IsolatedVertexError,
    NotEulerianError,
    TooLargeError,
    UnknownNameError,
    build_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    decompose_into_cycles,
    named_catalog,
    named_graph,
    path_graph,
    star_graph,
)

from weakiasi import graph
from weakiasi.solvers import BipartizationCertificate

from helpers import (
    all_graphs,
    bipartization_problem,
    bowtie,
    butterfly_at_one,
    has_triangle,
    random_even_degree_graph,
    restart_cycle_decomposition,
)


def assert_valid_cycle(g, cycle):
    """A closed walk with distinct vertices whose consecutive pairs are edges."""
    assert len(set(cycle)) == len(cycle) >= 3
    closed = list(cycle) + [cycle[0]]
    for u, v in zip(closed, closed[1:]):
        assert g.has_edge(u, v)


class TestBuildGraph:
    def test_cycle_construction(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert g.n == 5 and g.m == 5
        assert g.degrees() == (2, 2, 2, 2, 2)

    def test_edges_normalized_and_sorted(self):
        g = build_graph(3, [(2, 1), (1, 0), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_isolated_vertex_detected(self):
        with pytest.raises(IsolatedVertexError) as exc:
            build_graph(3, [(0, 1)])
        assert exc.value.vertex == 2

    @pytest.mark.parametrize(
        "n,edges,lowest",
        [
            (5, [(3, 4)], 0),  # n > 2m: more vertices than the edges can touch
            (4, [(0, 1), (0, 2)], 3),  # n <= 2m
            (5, [(0, 3), (0, 4), (3, 4)], 1),  # n <= 2m, vertices 1 and 2 isolated
        ],
    )
    def test_lowest_isolated_vertex_named(self, n, edges, lowest):
        with pytest.raises(IsolatedVertexError) as exc:
            build_graph(n, edges)
        assert exc.value.vertex == lowest

    def test_huge_vertex_count_fails_fast(self):
        # a per-vertex list of 10**12 entries would exhaust memory long before failing
        with pytest.raises(IsolatedVertexError) as exc:
            build_graph(10**12, [(0, 1), (1, 2)])
        assert exc.value.vertex == 3

    def test_complete_graph(self):
        g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert g.m == 6
        assert all(d == 3 for d in g.degrees())

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdgeError):
            build_graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidEdgeError):
            build_graph(3, [(0, 3), (1, 2)])
        with pytest.raises(InvalidEdgeError):
            build_graph(3, [(-1, 1), (0, 2)])

    def test_duplicate_after_normalization_rejected(self):
        with pytest.raises(InvalidEdgeError):
            build_graph(2, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("vertex", [True, 1.0, 1.5, "1"])
    def test_non_int_vertex_id_rejected(self, vertex):
        # True == 1 and 1.0 == 1, so only the type tells them from a valid id
        for edges in ([(vertex, 2), (0, 1)], [(0, 1), (2, vertex)]):
            with pytest.raises(ValueError, match="endpoints must be integers"):
                build_graph(3, edges)

    @pytest.mark.parametrize("n", [3.0, True, "3"])
    def test_non_int_vertex_count_rejected(self, n):
        with pytest.raises(ValueError, match='"n" must be an integer'):
            build_graph(n, [(0, 1)])

    def test_first_bad_edge_is_reported(self):
        with pytest.raises(InvalidEdgeError):
            build_graph(3, [(0, 5), (True, 2)])
        with pytest.raises(ValueError, match="endpoints must be integers"):
            build_graph(3, [(True, 2), (0, 5)])

    @pytest.mark.parametrize("vertex", [3, -1])
    def test_name_of_a_vertex_outside_the_graph_rejected(self, vertex):
        with pytest.raises(ValueError, match=f"^name refers to unknown vertex {vertex}$"):
            build_graph(3, [(0, 1), (1, 2)], names={0: "a", vertex: "x"})

    @pytest.mark.parametrize("names", [[], ["a", "b"], (), 0, False, "ab"])
    def test_names_that_are_not_a_mapping_rejected(self, names):
        with pytest.raises(ValueError, match="^names must be a mapping"):
            build_graph(2, [(0, 1)], names=names)

    @pytest.mark.parametrize("alias", [5, None, True, b"a", ["a"]])
    def test_alias_that_is_not_a_string_rejected(self, alias):
        with pytest.raises(ValueError, match="names must be strings"):
            build_graph(2, [(0, 1)], names={0: "a", 1: alias})

    def test_adjacency_matches_edges(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        for u in range(4):
            for v in range(4):
                assert g.has_edge(u, v) == (((min(u, v), max(u, v))) in set(g.edges))


class TestNamedGraphs:
    @pytest.mark.parametrize(
        "name,n,m",
        [
            ("petersen", 10, 15),
            ("frucht", 12, 18),
            ("grotzsch", 11, 20),
            ("durer", 12, 18),
            ("dodecahedron", 20, 30),
        ],
    )
    def test_counts(self, name, n, m):
        g = named_graph(name)
        assert (g.n, g.m) == (n, m)

    @pytest.mark.parametrize("name", ["petersen", "frucht", "durer", "dodecahedron"])
    def test_cubic(self, name):
        assert all(d == 3 for d in named_graph(name).degrees())

    def test_grotzsch_degree_sequence(self):
        degs = tuple(sorted(named_graph("grotzsch").degrees(), reverse=True))
        assert degs == (5, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3)

    def test_grotzsch_triangle_free(self):
        assert not has_triangle(named_graph("grotzsch"))

    def test_grotzsch_is_mycielskian_of_c5(self):
        nx = pytest.importorskip("networkx")
        g = named_graph("grotzsch")
        ours = nx.Graph()
        ours.add_nodes_from(range(g.n))
        ours.add_edges_from(g.edges)
        assert nx.is_isomorphic(ours, nx.mycielski_graph(4))

    def test_petersen_not_bipartite(self):
        # the outer cycle u1..u5 is odd
        assert_valid_cycle(named_graph("petersen"), (0, 1, 2, 3, 4))

    def test_vertex_aliases(self):
        g = named_graph("petersen")
        assert g.names[0] == "u1"
        assert g.names[5] == "v1"

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            named_graph("heawood")

    @pytest.mark.parametrize("name", [5, None, ["cycle"]])
    def test_name_that_is_not_a_string_unknown(self, name):
        with pytest.raises(UnknownNameError):
            named_graph(name)

    def test_families(self):
        assert named_graph("cycle", 6).m == 6
        assert named_graph("path", 4).m == 3
        assert named_graph("complete", 5).m == 10
        assert named_graph("star", 4).degrees() == (4, 1, 1, 1, 1)

    def test_family_parameter_bounds(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            path_graph(1)
        with pytest.raises(ValueError):
            named_graph("cycle")
        with pytest.raises(ValueError):
            named_graph("petersen", 5)

    @pytest.mark.parametrize(
        "build,size,message",
        [(complete_graph, 1, r"^complete\(n\) requires n >= 2$"), (star_graph, 0, r"^star\(n\) requires n >= 1$")],
    )
    def test_family_below_its_smallest_size_rejected(self, build, size, message):
        with pytest.raises(ValueError, match=message):
            build(size)

    @pytest.mark.parametrize("build,leaves", [(cycle_graph, 0), (path_graph, 0), (complete_graph, 0), (star_graph, 1)])
    def test_family_above_the_vertex_bound_refused_before_its_edges(self, build, leaves, monkeypatch):
        # star(n) has n + 1 vertices; the bound is read at call time, and a
        # family above it never reaches build_graph
        monkeypatch.setattr(graph, "GRAPH_VERTEX_LIMIT", 64)
        assert build(64 - leaves).n == 64

        def refuse(*args):
            raise AssertionError("build_graph called above the vertex bound")

        monkeypatch.setattr(graph, "build_graph", refuse)
        with pytest.raises(TooLargeError) as exc:
            build(65 - leaves)
        assert (exc.value.what, exc.value.n, exc.value.limit) == ("graph", 65, 64)

    @pytest.mark.parametrize("n", [5.0, "5", True, None], ids=["float", "str", "bool", "None"])
    @pytest.mark.parametrize("family", ["cycle", "path", "complete", "star"])
    def test_family_parameter_that_is_not_an_integer_rejected(self, family, n, monkeypatch):
        # True is an int to isinstance() and to "<": star(True) once built K2
        def refuse(*args):
            raise AssertionError("build_graph called with a non-integer family parameter")

        monkeypatch.setattr(graph, "build_graph", refuse)
        build = {"cycle": cycle_graph, "path": path_graph, "complete": complete_graph, "star": star_graph}[family]
        with pytest.raises(ValueError, match=rf"^{family}\(n\) requires an integer n, got {re.escape(repr(n))}$"):
            build(n)
        with pytest.raises(ValueError):
            named_graph(family, n)

    def test_catalog(self):
        assert named_catalog() == {
            "named": [
                {"name": "petersen", "vertices": 10, "edges": 15},
                {"name": "frucht", "vertices": 12, "edges": 18},
                {"name": "grotzsch", "vertices": 11, "edges": 20},
                {"name": "durer", "vertices": 12, "edges": 18},
                {"name": "dodecahedron", "vertices": 20, "edges": 30},
            ],
            "families": [
                {"name": "cycle", "parameter": "n >= 3"},
                {"name": "path", "parameter": "n >= 2"},
                {"name": "complete", "parameter": "n >= 2"},
                {"name": "star", "parameter": "n >= 1 (n leaves, n + 1 vertices)"},
            ],
        }


class TestBipartite:
    """The witness check every max-cut certificate test applies: it accepts a
    certificate that proves G minus its removed edges bipartite, and nothing else."""

    def test_even_cycle(self):
        cert = BipartizationCertificate(4, (), ((0, 2), (1, 3)))
        assert bipartization_problem(cycle_graph(4), cert) is None

    def test_odd_cycle_witness(self):
        g = cycle_graph(5)
        # no bipartition keeps all five edges; dropping (0, 1) leaves a path
        for mask in range(1 << g.n):
            side1 = tuple(v for v in range(g.n) if mask >> v & 1)
            side0 = tuple(v for v in range(g.n) if not mask >> v & 1)
            assert bipartization_problem(g, BipartizationCertificate(5, (), (side0, side1)))
        cert = BipartizationCertificate(4, ((0, 1),), ((0, 1, 3), (2, 4)))
        assert bipartization_problem(g, cert) is None

    def test_every_edge_crosses_reported_parts(self):
        g = named_graph("path", 7)
        parts = ((0, 2, 4, 6), (1, 3, 5))
        assert bipartization_problem(g, BipartizationCertificate(6, (), parts)) is None
        for bad in (
            BipartizationCertificate(6, (), ((0, 2, 4), (1, 3, 5, 6))),  # kept (5, 6) inside a part
            BipartizationCertificate(5, ((0, 1),), parts),  # removed (0, 1) crosses
            BipartizationCertificate(5, ((0, 2),), parts),  # (0, 2) is no edge
            BipartizationCertificate(5, (), parts),  # b + |removed| != m
            BipartizationCertificate(6, (), ((0, 2, 4), (1, 3, 5))),  # vertex 6 in no part
            BipartizationCertificate(6, (), ((0, 2, 4, 6), (1, 3, 5, 6))),  # vertex 6 in both
        ):
            assert bipartization_problem(g, bad), bad

    def test_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        for parts in (((0, 2), (1, 3)), ((0, 3), (1, 2))):
            assert bipartization_problem(g, BipartizationCertificate(2, (), parts)) is None


class TestCycleDecomposition:
    def test_cycle_decomposes_into_itself(self):
        assert decompose_into_cycles(cycle_graph(5)) == ((0, 1, 2, 3, 4),)

    def test_bowtie(self):
        g = bowtie()
        cycles = decompose_into_cycles(g)
        assert cycles == ((0, 1, 2), (2, 3, 4))
        # exhaustive cover check: edge-disjoint and exactly E(G)
        seen = []
        for cycle in cycles:
            closed = list(cycle) + [cycle[0]]
            seen.extend(tuple(sorted(e)) for e in zip(closed, closed[1:]))
        assert len(seen) == len(set(seen)) == g.m
        assert set(seen) == set(g.edges)

    def test_complete_five_by_the_rule(self):
        # from 0: 0-1-2 closes at 0; on from 0: 0-3-1-4 closes at 0; then from 2: 2-3-4
        assert decompose_into_cycles(complete_graph(5)) == ((0, 1, 2), (0, 3, 1, 4), (2, 3, 4))

    def test_butterfly_goes_on_from_the_closing_vertex(self):
        # 0-1-2-3 closes at 1; the walk goes on from 1 to 4 and closes at 0
        assert decompose_into_cycles(butterfly_at_one()) == ((1, 2, 3), (0, 1, 4))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_equals_the_restarting_walk_on_small_graphs(self, n):
        count = 0
        for g in all_graphs(n, connected=False):
            if all(d % 2 == 0 for d in g.degrees()):
                count += 1
                assert decompose_into_cycles(g) == restart_cycle_decomposition(g), g.edges
        # labeled even-degree graphs with no isolated vertex: inclusion-exclusion over
        # the isolated ones, with 2^C(k-1, 2) even-degree graphs on k labeled vertices
        assert count == {3: 1, 4: 3, 5: 38, 6: 730}[n]

    def test_equals_the_restarting_walk_on_random_graphs(self):
        rng = random.Random(1402)
        for _ in range(300):
            g = random_even_degree_graph(rng, rng.randrange(3, 33))
            assert decompose_into_cycles(g) == restart_cycle_decomposition(g), g.edges

    def test_path_not_eulerian(self):
        with pytest.raises(NotEulerianError) as exc:
            decompose_into_cycles(path_graph(4))
        assert exc.value.degree % 2 == 1

    @pytest.mark.parametrize("g", [complete_graph(5), butterfly_at_one(), bowtie()])
    def test_partition_property(self, g):
        seen = []
        for cycle in decompose_into_cycles(g):
            assert_valid_cycle(g, cycle)
            closed = list(cycle) + [cycle[0]]
            seen.extend(tuple(sorted(e)) for e in zip(closed, closed[1:]))
        assert sorted(seen) == list(g.edges)


class TestStructure:
    def test_components(self):
        g = build_graph(6, [(0, 3), (1, 4), (2, 5)])
        assert connected_components(g) == ((0, 3), (1, 4), (2, 5))

    def test_remove_edges_cannot_isolate(self):
        # dropping the only edge of P2 would leave both ends isolated
        g = path_graph(2)
        with pytest.raises(IsolatedVertexError) as exc:
            build_graph(g.n, [e for e in g.edges if e != (0, 1)])
        assert exc.value.vertex == 0
