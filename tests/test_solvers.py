import itertools
import random

import pytest

from weakiasi import (
    TooLargeError,
    bipartization_number,
    build_graph,
    chromatic_number,
    complete_graph,
    cycle_graph,
    independence_number,
    is_bipartite,
    matching_number,
    max_bipartite_subgraph,
    maximum_matching,
    mono_indexed_edges,
    named_graph,
    path_graph,
    remove_edges,
    sparing_number_exact,
    vertex_cover_number,
    verify_iasi,
)

from helpers import (
    all_connected_graphs,
    bowtie,
    brute_alpha,
    brute_is_k_colorable,
    brute_matching,
    brute_max_cut,
    brute_max_cut_certificate,
    brute_min_mono,
    covers_all_edges,
    has_triangle,
    is_independent,
    random_connected_graph,
)


def assert_sparing_certificate_consistent(g, cert):
    assert is_independent(g, cert.independent_set)
    inside = set(cert.independent_set)
    induced = tuple(e for e in g.edges if e[0] not in inside and e[1] not in inside)
    assert cert.mono_edges == induced
    assert cert.phi == len(cert.mono_edges)
    assert verify_iasi(g, cert.labeling).valid_weak
    assert mono_indexed_edges(g, cert.labeling) == cert.mono_edges


class TestSparing:
    def test_odd_cycle(self):
        cert = sparing_number_exact(cycle_graph(5))
        assert cert.phi == 1
        assert cert.independent_set == (0, 2)
        assert cert.mono_edges == ((3, 4),)

    def test_even_cycle(self):
        assert sparing_number_exact(cycle_graph(4)).phi == 0

    def test_petersen(self):
        cert = sparing_number_exact(named_graph("petersen"))
        assert cert.phi == 3
        assert_sparing_certificate_consistent(named_graph("petersen"), cert)

    def test_k4_matches_brute_force(self):
        g = complete_graph(4)
        cert = sparing_number_exact(g)
        assert cert.phi == 3 == brute_min_mono(g)

    def test_bowtie(self):
        g = bowtie()
        assert sparing_number_exact(g).phi == 2 == brute_min_mono(g)

    def test_durer_reports_differ_from_removal_count(self):
        g = named_graph("durer")
        phi = sparing_number_exact(g).phi
        removal = bipartization_number(g)
        assert phi == 6 == brute_min_mono(g)
        assert removal == 4
        assert phi != removal

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(101)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 10))
            cert = sparing_number_exact(g)
            assert cert.phi == brute_min_mono(g)
            assert_sparing_certificate_consistent(g, cert)

    def test_bipartite_graphs_are_zero(self):
        for g in (path_graph(6), cycle_graph(8), build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])):
            assert sparing_number_exact(g).phi == 0
            assert bipartization_number(g) == 0

    def test_disconnected_additive(self):
        two_c5 = build_graph(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 1) % 5) for i in range(5)],
        )
        cert = sparing_number_exact(two_c5)
        assert cert.phi == 2
        assert cert.independent_set == (0, 2, 5, 7)

    def test_determinism(self):
        g = named_graph("frucht")
        assert sparing_number_exact(g) == sparing_number_exact(g)

    def test_too_large(self):
        with pytest.raises(TooLargeError) as exc:
            sparing_number_exact(path_graph(33))
        assert exc.value.limit == 32


class TestMaxCut:
    def test_already_bipartite(self):
        cert = max_bipartite_subgraph(cycle_graph(4))
        assert cert.b == 4
        assert cert.removed_edges == ()
        assert cert.bipartition == ((0, 2), (1, 3))

    def test_c5_lexicographically_smallest_removal(self):
        cert = max_bipartite_subgraph(cycle_graph(5))
        assert cert.b == 4
        assert cert.removed_edges == ((0, 1),)

    def test_petersen(self):
        g = named_graph("petersen")
        cert = max_bipartite_subgraph(g)
        assert cert.b == 12
        assert len(cert.removed_edges) == 3

    def test_frucht(self):
        assert max_bipartite_subgraph(named_graph("frucht")).b == 15

    def test_certificate_identities(self):
        for name in ("petersen", "frucht", "grotzsch", "durer", "dodecahedron"):
            g = named_graph(name)
            cert = max_bipartite_subgraph(g)
            assert cert.b + len(cert.removed_edges) == g.m
            stripped = remove_edges(g, cert.removed_edges)
            assert is_bipartite(stripped).bipartite
            part0 = set(cert.bipartition[0])
            kept = set(g.edges) - set(cert.removed_edges)
            assert all((u in part0) != (v in part0) for u, v in kept)

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(77)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 10))
            assert max_bipartite_subgraph(g).b == brute_max_cut(g)

    def test_certificate_matches_exhaustive_search(self):
        rng = random.Random(909)
        graphs = [g for n in range(2, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng, rng.randint(6, 10)) for _ in range(20)]
        for g in graphs:
            cert = max_bipartite_subgraph(g)
            assert (cert.b, cert.removed_edges, cert.bipartition) == brute_max_cut_certificate(g)

    def test_odd_cycle_above_22_vertices(self):
        cert = max_bipartite_subgraph(cycle_graph(23))
        assert cert.b == 22
        assert cert.removed_edges == ((0, 1),)

    def test_disconnected_additive(self):
        g = build_graph(
            8,
            [(i, (i + 1) % 3) for i in range(3)]
            + [(3 + i, 3 + (i + 1) % 5) for i in range(5)],
        )
        assert max_bipartite_subgraph(g).b == 2 + 4


class TestMatching:
    def test_path(self):
        assert matching_number(path_graph(4)) == 2

    def test_odd_cycle(self):
        assert matching_number(cycle_graph(5)) == 2

    def test_petersen_perfect_matching(self):
        g = named_graph("petersen")
        size, edges = maximum_matching(g)
        assert size == 5
        assert len(edges) == 5
        touched = [v for e in edges for v in e]
        assert sorted(touched) == list(range(10))

    @pytest.mark.parametrize("n", range(3, 21))
    def test_cycle_and_path_formula(self, n):
        assert matching_number(cycle_graph(n)) == n // 2
        assert matching_number(path_graph(n)) == n // 2

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(33)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 9), extra=0.25)
            size, edges = maximum_matching(g)
            assert size == brute_matching(g)
            used = [v for e in edges for v in e]
            assert len(used) == len(set(used))
            assert all(g.has_edge(u, v) for u, v in edges)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            matching_number(cycle_graph(25))


class TestChromatic:
    def test_small_cycles(self):
        assert chromatic_number(cycle_graph(5))[0] == 3
        assert chromatic_number(cycle_graph(4))[0] == 2

    def test_grotzsch_needs_four_colors(self):
        g = named_graph("grotzsch")
        chi, classes = chromatic_number(g)
        assert chi == 4
        assert not has_triangle(g)
        assert not brute_is_k_colorable(g, 3)

    def test_petersen(self):
        assert chromatic_number(named_graph("petersen"))[0] == 3

    def test_complete(self):
        assert chromatic_number(complete_graph(6))[0] == 6

    def test_classes_form_proper_partition(self):
        g = named_graph("durer")
        chi, classes = chromatic_number(g)
        all_vertices = sorted(v for cls in classes for v in cls)
        assert all_vertices == list(range(g.n))
        for cls in classes:
            members = set(cls)
            assert not any(g.has_edge(u, v) for u, v in itertools.combinations(members, 2))

    def test_disconnected_takes_max(self):
        g = build_graph(
            7,
            [(0, 1), (1, 2), (2, 0)] + [(3 + i, 3 + (i + 1) % 4) for i in range(4)],
        )
        chi, classes = chromatic_number(g)
        assert chi == 3
        assert len(classes) == 3


class TestIndependence:
    def test_small_cycle(self):
        alpha, witness = independence_number(cycle_graph(5))
        assert (alpha, witness) == (2, (0, 2))
        beta, cover = vertex_cover_number(cycle_graph(5))
        assert beta == 3
        assert covers_all_edges(cycle_graph(5), cover)

    def test_petersen(self):
        g = named_graph("petersen")
        alpha, witness = independence_number(g)
        assert alpha == 4
        assert is_independent(g, witness)
        # no 5-vertex subset is independent
        assert all(
            not is_independent(g, combo)
            for combo in itertools.combinations(range(10), 5)
        )

    def test_complete(self):
        alpha, witness = independence_number(complete_graph(4))
        assert (alpha, witness) == (1, (0,))
        assert vertex_cover_number(complete_graph(4))[0] == 3

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(55)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 11))
            alpha, witness = independence_number(g)
            assert alpha == brute_alpha(g)
            assert is_independent(g, witness)
            beta, cover = vertex_cover_number(g)
            assert alpha + beta == g.n
            assert covers_all_edges(g, cover)

    def test_dodecahedron(self):
        alpha, witness = independence_number(named_graph("dodecahedron"))
        assert alpha == 8
        assert is_independent(named_graph("dodecahedron"), witness)
