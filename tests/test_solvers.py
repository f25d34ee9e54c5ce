import itertools
import random

import pytest

from weakiasi import (
    TooLargeError,
    bipartization_number,
    build_graph,
    chromatic_number,
    complete_graph,
    connected_components,
    cycle_graph,
    independence_number,
    matching_number,
    max_bipartite_subgraph,
    maximum_matching,
    mono_indexed_edges,
    named_graph,
    path_graph,
    sparing_number_exact,
    vertex_cover_number,
    verify_iasi,
)

from helpers import (
    all_graphs,
    bipartization_problem,
    bowtie,
    brute_alpha,
    brute_alpha_witness,
    brute_chromatic_witness,
    brute_is_k_colorable,
    brute_matching,
    brute_matching_witness,
    brute_max_cut,
    brute_max_cut_certificate,
    brute_min_mono,
    brute_sparing_witness,
    complete_bipartite,
    covers_all_edges,
    first_fit_color_count,
    has_triangle,
    is_independent,
    random_connected_graph,
)

# dense random graphs per witness test: the clique bounds of chi and alpha
# prune most there, and sparse graphs rarely reach them
DENSE_GRAPHS = 200


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
            assert bipartization_problem(g, max_bipartite_subgraph(g)) is None, name

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(77)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 10))
            assert max_bipartite_subgraph(g).b == brute_max_cut(g)

    def test_certificate_matches_exhaustive_search(self):
        # the brute force fixes only vertex 0, so the bipartition is checked by
        # its own rule: the removed edges are exactly the edges within a side,
        # and the lowest vertex of each component is on side 0. The kept edges
        # of a maximum cut connect each component (else flipping one part
        # would cut more), so the rule fixes the bipartition
        rng = random.Random(909)
        graphs = [g for n in range(2, 7) for g in all_graphs(n, connected=False)]
        graphs += [random_connected_graph(rng, rng.randint(6, 10)) for _ in range(20)]
        for g in graphs:
            cert = max_bipartite_subgraph(g)
            assert (cert.b, cert.removed_edges) == brute_max_cut_certificate(g)[:2]
            assert bipartization_problem(g, cert) is None
            assert not set(cert.bipartition[1]) & {members[0] for members in connected_components(g)}

    @pytest.mark.parametrize("n", range(2, 19))
    def test_complete_graph_closed_form(self, n):
        # K_n has C(n, n/2)/2 maximum cuts, every one balanced; the smallest
        # removed-edge list keeps the lowest ids together on side 0
        half = (n + 1) // 2
        part0, part1 = tuple(range(half)), tuple(range(half, n))
        removed = tuple(
            (u, v) for u, v in itertools.combinations(range(n), 2) if (u < half) == (v < half)
        )
        want = (n * n // 4, removed, (part0, part1))
        if n <= 10:
            assert brute_max_cut_certificate(complete_graph(n)) == want
        cert = max_bipartite_subgraph(complete_graph(n))
        assert (cert.b, cert.removed_edges, cert.bipartition) == want

    def test_dense_random_graphs_match_exhaustive_search(self):
        rng = random.Random(4871)
        for n in range(8, 13):
            for _ in range(6):
                g = random_connected_graph(rng, n, extra=rng.choice([0.6, 0.75, 0.9]))
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

    @pytest.mark.parametrize("n", range(3, 25))
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

    def test_complete_graph_at_the_limit(self):
        # K_23 has nu = 11 < 12, so vertex 0 is matched, to its smallest
        # neighbour 1, and so on down the ids
        want = (12, tuple((2 * i, 2 * i + 1) for i in range(12)))
        assert maximum_matching(complete_graph(24)) == want

    @pytest.mark.parametrize("left, right", [(12, 12), (10, 14)])
    def test_complete_bipartite_at_the_limit(self, left, right):
        # K_{a,b}, a <= b: nu = a, and K_{a-1,b} has nu = a - 1, so each left
        # vertex i is matched, to the smallest free right vertex a + i
        want = (left, tuple((i, left + i) for i in range(left)))
        assert maximum_matching(complete_bipartite(left, right)) == want

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
        assert_proper_coloring(g, classes)

    def test_disconnected_takes_max(self):
        g = build_graph(
            7,
            [(0, 1), (1, 2), (2, 0)] + [(3 + i, 3 + (i + 1) % 4) for i in range(4)],
        )
        chi, classes = chromatic_number(g)
        assert chi == 3
        assert len(classes) == 3

    def test_mycielski_of_grotzsch_needs_five_colors(self):
        # Mycielski's construction keeps the graph triangle-free and raises chi
        # by one, so M5 = M(Grotzsch) has chi = 5 with cliques of size 2 only
        g4 = named_graph("grotzsch")
        n = g4.n
        edges = list(g4.edges)
        edges += [(u, n + v) for v, u in g4.edges] + [(v, n + u) for v, u in g4.edges]
        edges += [(n + v, 2 * n) for v in range(n)]
        g = build_graph(2 * n + 1, edges)
        assert g.n == 23 and not has_triangle(g)
        chi, classes = chromatic_number(g)
        assert chi == 5
        assert_proper_coloring(g, classes)

    @pytest.mark.parametrize(
        "g, chi",
        [(complete_graph(32), 32), (complete_bipartite(16, 16), 2), (cycle_graph(31), 3)],
        ids=["K32", "K16,16", "C31"],
    )
    def test_closed_forms_at_the_limit(self, g, chi):
        got, classes = chromatic_number(g)
        assert got == chi
        assert_proper_coloring(g, classes)


def assert_proper_coloring(g, classes):
    assert sorted(v for cls in classes for v in cls) == list(range(g.n))
    for cls in classes:
        assert not any(g.has_edge(u, v) for u, v in itertools.combinations(cls, 2))


def test_chromatic_witness_matches_exhaustive_search():
    # the witness is the first optimal coloring in (-degree, id) order, each
    # vertex taking the smallest color that still leads to an optimum
    rng = random.Random(1979)
    graphs = [g for n in range(2, 6) for g in all_graphs(n, connected=True)]
    graphs += [random_connected_graph(rng, rng.randint(6, 9)) for _ in range(20)]
    # dense graphs, where the clique look-ahead cuts most branches
    graphs += [
        random_connected_graph(rng, rng.randint(7, 10), extra=rng.uniform(0.5, 0.9))
        for _ in range(DENSE_GRAPHS)
    ]
    # on those the first leaf, first fit, is almost always optimal, so a bound
    # that prunes too eagerly rarely changes the answer; on these it is not
    hard = []
    while len(hard) < DENSE_GRAPHS:
        g = random_connected_graph(rng, rng.randint(11, 13), extra=rng.uniform(0.4, 0.8))
        if first_fit_color_count(g) > len(brute_chromatic_witness(g)):
            hard.append(g)
    for g in graphs + hard:
        want = brute_chromatic_witness(g)
        assert chromatic_number(g) == (len(want), want)


def test_chromatic_witness_of_disconnected_graph_merges_components():
    # each component gets its own first optimal coloring; class c is the
    # union of the components' classes c
    wheel = build_graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    ring = cycle_graph(5)
    ids = {"wheel": (0, 2, 4, 6, 8, 10), "ring": (1, 3, 5, 7, 9)}
    g = build_graph(
        11,
        [(ids["wheel"][u], ids["wheel"][v]) for u, v in wheel.edges]
        + [(ids["ring"][u], ids["ring"][v]) for u, v in ring.edges],
    )
    merged = [set() for _ in range(4)]
    for part, name in ((wheel, "wheel"), (ring, "ring")):
        for c, members in enumerate(brute_chromatic_witness(part)):
            merged[c].update(ids[name][v] for v in members)
    want = tuple(tuple(sorted(members)) for members in merged)
    assert chromatic_number(g) == (4, want)


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

    @pytest.mark.parametrize("n", range(24, 33))
    def test_path_and_cycle_at_the_limit(self, n):
        # the smallest maximum independent set is the even vertices; on an odd
        # cycle it stops at n - 3, since n - 1 is a neighbour of 0
        for g, alpha in ((path_graph(n), (n + 1) // 2), (cycle_graph(n), n // 2)):
            want = tuple(range(0, 2 * alpha, 2))
            assert independence_number(g) == (alpha, want)
            assert vertex_cover_number(g) == (n - alpha, tuple(v for v in range(n) if v not in want))

    def test_dense_graphs_at_the_limit(self):
        # K_32: alpha = 1, by vertex 0; K_{16,16}: alpha = 16, by the side 0..15
        assert independence_number(complete_graph(32)) == (1, (0,))
        assert vertex_cover_number(complete_graph(32)) == (31, tuple(range(1, 32)))
        g = complete_bipartite(16, 16)
        assert independence_number(g) == (16, tuple(range(16)))
        assert vertex_cover_number(g) == (16, tuple(range(16, 32)))


def test_independent_set_witnesses_match_exhaustive_search():
    # phi, alpha and beta are one search over independent sets with different
    # costs; every witness must be the lexicographically smallest optimum
    rng = random.Random(404)
    graphs = [g for n in range(2, 7) for g in all_graphs(n, connected=False)]
    graphs += [random_connected_graph(rng, rng.randint(6, 12)) for _ in range(20)]
    # dense graphs, where the clique cover bound cuts most branches
    graphs += [
        random_connected_graph(rng, rng.randint(7, 10), extra=rng.uniform(0.5, 0.9))
        for _ in range(DENSE_GRAPHS)
    ]
    for g in graphs:
        assert sparing_number_exact(g).independent_set == brute_sparing_witness(g)
        alpha_witness = brute_alpha_witness(g)
        assert independence_number(g) == (len(alpha_witness), alpha_witness)
        beta, cover = vertex_cover_number(g)
        assert tuple(v for v in range(g.n) if v not in cover) == alpha_witness
        assert beta == g.n - len(alpha_witness)


def test_matching_witness_matches_exhaustive_search():
    # the witness leaves the lowest vertex unmatched when nu allows it and
    # otherwise matches it to its smallest neighbour that keeps nu
    rng = random.Random(2419)
    graphs = [g for n in range(2, 7) for g in all_graphs(n, connected=False)]
    graphs += [random_connected_graph(rng, rng.randint(7, 10)) for _ in range(20)]
    for g in graphs:
        assert maximum_matching(g) == brute_matching_witness(g)


def test_matching_witness_of_disconnected_graph_with_interleaved_ids():
    # a triangle 0-2-4 with the tail 4-6-8 on the even ids and the path
    # 1-3-5-7-9 on the odd ids; nu lets each component leave its lowest vertex
    # unmatched
    g = build_graph(10, [(0, 2), (0, 4), (2, 4), (4, 6), (6, 8), (1, 3), (3, 5), (5, 7), (7, 9)])
    want = (4, ((2, 4), (3, 5), (6, 8), (7, 9)))
    assert brute_matching_witness(g) == want
    assert maximum_matching(g) == want


def test_matching_and_independence_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1402)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 14), extra=rng.choice([0.1, 0.3, 0.6]))
        ref = nx.Graph(g.edges)
        nu = len(nx.max_weight_matching(ref, maxcardinality=True))
        assert matching_number(g) == nu
        _, alpha = nx.max_weight_clique(nx.complement(ref), weight=None)
        assert independence_number(g)[0] == alpha
