import itertools
import random
import sys
import threading

import pytest

from weakiasi import (
    TooLargeError,
    build_graph,
    chromatic_number,
    complete_graph,
    connected_components,
    construct_labeling,
    cycle_graph,
    independence_number,
    max_bipartite_subgraph,
    maximum_matching,
    mono_indexed_edges,
    named_graph,
    path_graph,
    sparing_number_exact,
    star_graph,
    vertex_cover_number,
    verify_iasi,
)
from weakiasi import solvers
from weakiasi.theorems import run_all_checkers

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
    forest_heaviest_degree_set,
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
        removal = g.m - max_bipartite_subgraph(g).b
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
            assert g.m - max_bipartite_subgraph(g).b == 0

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
        # another graph in between and a freshly built equal graph, so the
        # second certificate is solved again, not the first one remembered
        first = sparing_number_exact(named_graph("frucht"))
        sparing_number_exact(named_graph("petersen"))
        assert sparing_number_exact(named_graph("frucht")) == first

    @pytest.mark.parametrize("n", range(24, 33))
    def test_path_at_the_limit(self, n):
        # each edge has one even end, so the even vertices give phi = 0; the ends
        # weigh 1 and the inner vertices 2, so the odd side weighs as much, and
        # the search branches on vertex 1 first, but the side holding 0 wins
        cert = sparing_number_exact(path_graph(n))
        assert (cert.phi, cert.independent_set) == (0, tuple(range(0, n, 2)))

    @pytest.mark.parametrize(
        "g, witness",
        [
            (star_graph(31), (0,)),
            (complete_bipartite(8, 24), tuple(range(8))),
            (complete_bipartite(24, 8), tuple(range(24))),
        ],
        ids=["star-31", "K8,24", "K24,8"],
    )
    def test_complete_bipartite_at_the_limit(self, g, witness):
        # either side covers every edge, so phi = 0 and the side holding 0 wins,
        # also in K24,8, where the heavier side 24..31 is branched on first
        cert = sparing_number_exact(g)
        assert (cert.phi, cert.independent_set) == (0, witness)

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
        # components whose ids interleave, so each reads edge positions
        # scattered over the whole edge list: two 5-cycles on the even and
        # the odd ids, and Petersen beside K4
        graphs.append(build_graph(10, [(i, (i + 2) % 10) for i in range(10)]))
        ids = (0, 2, 3, 5, 6, 8, 9, 11, 12, 13)
        petersen = [(ids[u], ids[v]) for u, v in named_graph("petersen").edges]
        graphs.append(build_graph(14, petersen + list(itertools.combinations((1, 4, 7, 10), 2))))
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
        assert maximum_matching(path_graph(4))[0] == 2

    def test_odd_cycle(self):
        assert maximum_matching(cycle_graph(5))[0] == 2

    def test_petersen_perfect_matching(self):
        g = named_graph("petersen")
        size, edges = maximum_matching(g)
        assert size == 5
        assert len(edges) == 5
        touched = [v for e in edges for v in e]
        assert sorted(touched) == list(range(10))

    @pytest.mark.parametrize("n", range(3, 25))
    def test_cycle_and_path_formula(self, n):
        # nu = n // 2 on both. The path 1..n-1 keeps nu exactly when n is odd,
        # so vertex 0 stays unmatched on an odd path or cycle and is matched
        # to 1 on an even one, and the rest is a path: edges (i, i + 1) from
        # n % 2 in steps of 2
        want = (n // 2, tuple((i, i + 1) for i in range(n % 2, n - 1, 2)))
        assert maximum_matching(cycle_graph(n)) == want
        assert maximum_matching(path_graph(n)) == want

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

    @pytest.mark.parametrize("left, right", [(12, 12), (10, 14), (8, 16)])
    def test_complete_bipartite_at_the_limit(self, left, right):
        # K_{a,b}, a <= b: nu = a, and K_{a-1,b} has nu = a - 1, so each left
        # vertex i is matched, to the smallest free right vertex a + i
        want = (left, tuple((i, left + i) for i in range(left)))
        assert maximum_matching(complete_bipartite(left, right)) == want

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            maximum_matching(cycle_graph(25))


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
    # weights; every witness must be the lexicographically smallest optimum
    rng = random.Random(404)
    graphs = [g for n in range(2, 7) for g in all_graphs(n, connected=False)]
    graphs += [random_connected_graph(rng, rng.randint(6, 12)) for _ in range(20)]
    # dense graphs, where the clique cover bound cuts most branches
    graphs += [
        random_connected_graph(rng, rng.randint(7, 10), extra=rng.uniform(0.5, 0.9))
        for _ in range(DENSE_GRAPHS)
    ]
    # trees and near-trees, where the clique cover bound is loosest for phi
    graphs += [
        random_connected_graph(rng, n, extra=extra)
        for extra in (0.0, 0.1)
        for n in range(10, 15)
        for _ in range(4)
    ]
    for g in graphs:
        assert sparing_number_exact(g).independent_set == brute_sparing_witness(g)
        alpha_witness = brute_alpha_witness(g)
        assert independence_number(g) == (len(alpha_witness), alpha_witness)
        beta, cover = vertex_cover_number(g)
        assert tuple(v for v in range(g.n) if v not in cover) == alpha_witness
        assert beta == g.n - len(alpha_witness)


def test_phi_on_forests_at_the_limit_matches_a_tree_dp():
    # phi = m - the heaviest independent set with weight deg(v), which a leaf-up
    # DP finds exactly on a forest
    rng = random.Random(2432)
    forests = [random_connected_graph(rng, rng.randint(24, 32), extra=0.0) for _ in range(30)]
    for _ in range(6):
        edges, n = [], 0
        while n < 24:
            size = rng.randint(2, 32 - n)
            edges += [(u + n, v + n) for u, v in random_connected_graph(rng, size, extra=0.0).edges]
            n += size
        forests.append(build_graph(n, edges))
    # path(16) beside star(15)
    forests.append(build_graph(32, [(i, i + 1) for i in range(15)] + [(16, i) for i in range(17, 32)]))
    for g in forests:
        heaviest = forest_heaviest_degree_set(g)
        cert = sparing_number_exact(g)
        assert cert.phi == g.m - heaviest
        assert is_independent(g, cert.independent_set)
        assert sum(g.degrees()[v] for v in cert.independent_set) == heaviest


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
    graphs = [random_connected_graph(rng, rng.randint(2, 14), extra=rng.choice([0.1, 0.3, 0.6])) for _ in range(30)]
    graphs += [random_connected_graph(rng, n, extra=rng.choice([0.1, 0.3, 0.6])) for n in range(15, 25)]
    for g in graphs:
        ref = nx.Graph(g.edges)
        nu, edges = maximum_matching(g)
        assert nu == len(nx.max_weight_matching(ref, maxcardinality=True))
        # the witness is a matching of that size
        assert len({v for e in edges for v in e}) == 2 * nu and set(edges) <= set(g.edges)
        _, alpha = nx.max_weight_clique(nx.complement(ref), weight=None)
        assert independence_number(g)[0] == alpha


# The solvers keep the answers of the last graph solved, keyed by its
# adjacency. Each answer below is compared with one found by exhaustive search
# or given by the definitions, not only with another solver call.


def _phi_answer(g):
    cert = sparing_number_exact(g)
    assert verify_iasi(g, cert.labeling).valid_weak
    return tuple(cert)


def _phi_expected(g):
    independent = brute_sparing_witness(g)
    mono = tuple(e for e in g.edges if not set(e) & set(independent))
    assert len(mono) == brute_min_mono(g)
    return len(mono), independent, mono, construct_labeling(g, independent)


def _beta_expected(g):
    alpha_witness = brute_alpha_witness(g)
    cover = tuple(v for v in range(g.n) if v not in alpha_witness)
    return len(cover), cover


STORED_ANSWERS = {
    "phi": (_phi_answer, _phi_expected),
    "alpha": (independence_number, lambda g: (len(brute_alpha_witness(g)), brute_alpha_witness(g))),
    "beta": (vertex_cover_number, _beta_expected),
    "chi": (chromatic_number, lambda g: (len(brute_chromatic_witness(g)), brute_chromatic_witness(g))),
    "nu": (maximum_matching, brute_matching_witness),
    "cut": (lambda g: tuple(max_bipartite_subgraph(g)), brute_max_cut_certificate),
}


@pytest.mark.parametrize("answer", STORED_ANSWERS)
def test_store_gives_a_graph_its_own_answers_after_another(answer):
    solve, expected = STORED_ANSWERS[answer]
    # two graphs on 10 vertices, so only the adjacency tells them apart
    a, b = named_graph("petersen"), complete_bipartite(4, 6)
    assert [solve(g) for g in (a, b, a)] == [expected(g) for g in (a, b, a)]


@pytest.mark.parametrize("answer", STORED_ANSWERS)
def test_graphs_differing_only_in_names_get_equal_answers(answer):
    solve, expected = STORED_ANSWERS[answer]
    plain = bowtie()
    named = build_graph(plain.n, plain.edges, names={v: f"v{v}" for v in range(plain.n)})
    assert named.adj == plain.adj and named != plain
    assert solve(plain) == solve(named) == expected(plain)


def test_mutating_a_returned_labeling_leaves_the_next_call_alone():
    g = named_graph("petersen")
    first = sparing_number_exact(g).labeling
    first.vertex_labels.clear()
    second = sparing_number_exact(g).labeling
    assert second.vertex_labels is not first.vertex_labels
    assert second == construct_labeling(g, brute_sparing_witness(g))
    assert verify_iasi(g, second).valid_weak


SOLVER_NAMES = {
    sparing_number_exact: "sparing solver",
    max_bipartite_subgraph: "max-cut solver",
    maximum_matching: "matching solver",
    chromatic_number: "chromatic solver",
    independence_number: "independence solver",
    vertex_cover_number: "cover solver",
}


@pytest.mark.parametrize("solve", SOLVER_NAMES)
def test_too_large_raises_on_every_call(solve):
    g = path_graph(33)
    for _ in range(2):
        with pytest.raises(TooLargeError) as exc:
            solve(g)
        assert exc.value.what == SOLVER_NAMES[solve]


def test_matching_limit_holds_on_a_graph_already_solved():
    # alpha of C25 is 12, by the even vertices below 24
    g = cycle_graph(25)
    assert independence_number(g) == (12, tuple(range(0, 24, 2)))
    for _ in range(2):
        with pytest.raises(TooLargeError) as exc:
            maximum_matching(g)
        assert exc.value.limit == 24


@pytest.fixture
def kernel_runs(monkeypatch):
    """(function, component mask, weights) for each run of a kernel and of
    ``connected_components``, starting from an empty store."""
    runs = []
    solvers._per_component.cache_clear()
    for name in ("_max_weight_independent", "_color_classes", "_matching_component", "_max_cut_side"):
        kernel = getattr(solvers, name)

        def counted(graph, members, *args, _name=name, _kernel=kernel):
            runs.append((_name, members, args[0] if _name == "_max_weight_independent" else None))
            return _kernel(graph, members, *args)

        monkeypatch.setattr(solvers, name, counted)
    components = solvers.connected_components

    def counted_components(graph):
        runs.append(("connected_components", None, None))
        return components(graph)

    monkeypatch.setattr(solvers, "connected_components", counted_components)
    return runs


def test_checkers_run_each_kernel_once_per_answer(kernel_runs):
    # the six checkers ask 13 solver calls of a cycle, for phi, alpha (twice
    # more through beta), chi, nu and the maximum cut; a cycle is regular, so
    # phi walks with alpha's unit weights and takes alpha's answer
    reports = run_all_checkers(cycle_graph(9))
    assert [r.verdict for r in reports] == ["holds"] * 6
    every = (1 << 9) - 1
    assert sorted(kernel_runs, key=repr) == sorted(
        [
            ("connected_components", None, None),
            ("_max_weight_independent", every, (1,) * 9),
            ("_color_classes", every, None),
            ("_matching_component", every, None),
            ("_max_cut_side", every, None),
        ],
        key=repr,
    )


def test_checkers_walk_phi_and_alpha_apart_on_a_non_regular_graph(kernel_runs):
    # the Grotzsch graph has degrees 3, 4 and 5, so phi walks with the degrees
    # and alpha with unit weights; its odd degrees leave nu unasked
    g = named_graph("grotzsch")
    reports = run_all_checkers(g)
    assert reports[4].witness["alpha"] == len(brute_alpha_witness(g))
    assert reports[5].lhs == brute_min_mono(g)
    every = (1 << 11) - 1
    assert sorted(kernel_runs, key=repr) == sorted(
        [
            ("connected_components", None, None),
            ("_max_weight_independent", every, g.degrees()),
            ("_max_weight_independent", every, (1,) * 11),
            ("_color_classes", every, None),
            ("_max_cut_side", every, None),
        ],
        key=repr,
    )


def test_invariants_sequence_walks_alpha_once_per_component(kernel_runs):
    # phi, alpha, beta, chi and nu, the benchmark's invariants calls, on a
    # 5-cycle and a 4-cycle: the graph is regular, so phi and beta take
    # alpha's walk, and every kernel runs once per component and answer
    g = build_graph(9, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 4) for i in range(4)])
    assert sparing_number_exact(g).phi == 1
    assert independence_number(g) == (4, (0, 2, 5, 7))
    assert vertex_cover_number(g) == (5, (1, 3, 4, 6, 8))
    assert chromatic_number(g) == (3, brute_chromatic_witness(g))
    assert maximum_matching(g) == brute_matching_witness(g)
    runs = [("connected_components", None, None)]
    for members in (0b11111, 0b111100000):
        runs += [
            ("_max_weight_independent", members, (1,) * 9),
            ("_color_classes", members, None),
            ("_matching_component", members, None),
        ]
    assert sorted(kernel_runs, key=repr) == sorted(runs, key=repr)


def test_store_holds_only_immutable_answers():
    # the triangle 0-2-4 with the tail 4-6-8 and the path 1-3-5-7-9: the
    # invariants calls and the checkers store the component masks and one
    # answer per kernel and weights, each an int or a tuple of them
    solvers._per_component.cache_clear()
    g = build_graph(10, [(0, 2), (0, 4), (2, 4), (4, 6), (6, 8), (1, 3), (3, 5), (5, 7), (7, 9)])
    for solve in (sparing_number_exact, independence_number, vertex_cover_number, chromatic_number):
        solve(g)
    assert maximum_matching(g) == brute_matching_witness(g)
    run_all_checkers(g)

    def ints_or_tuples(value):
        return type(value) is int or type(value) is tuple and all(map(ints_or_tuples, value))

    info = solvers._per_component.cache_info()
    assert info.currsize == 6
    keys = [
        (),
        (solvers._max_weight_independent, g.degrees()),
        (solvers._max_weight_independent, (1,) * 10),
        (solvers._color_classes,),
        (solvers._matching_component,),
        (solvers._max_cut_side,),
    ]
    for key in keys:
        answer = solvers._per_component(g, *key)
        assert ints_or_tuples(answer), key
        hash(answer)
    assert solvers._per_component.cache_info().misses == info.misses


def test_empty_graph_is_solved_from_an_emptied_store():
    # the empty graph has no component, so each solver call on it finds its
    # masks and answers empty tuples
    g = build_graph(0, [])
    solvers._per_component.cache_clear()
    assert sparing_number_exact(g)[:3] == (0, (), ())
    solvers._per_component.cache_clear()
    assert max_bipartite_subgraph(g) == (0, (), ((), ()))


def test_graphs_key_the_store_by_their_adjacency(kernel_runs):
    # a graph hashes by adj, names or not, so an equal graph built again finds
    # its answers stored; nine other graphs of two entries each push them out
    # of the store's eight, and the graph is solved again to the same cut
    for g in (cycle_graph(5), named_graph("petersen")):
        assert hash(g) == hash(g.adj)
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    first = max_bipartite_subgraph(build_graph(4, edges))
    assert len(kernel_runs) == 2
    assert max_bipartite_subgraph(build_graph(4, edges)) == first
    assert len(kernel_runs) == 2
    for n in range(3, 12):
        max_bipartite_subgraph(cycle_graph(n))
    assert max_bipartite_subgraph(build_graph(4, edges)) == first
    assert len(kernel_runs) == 2 + 9 * 2 + 2


def test_threads_sharing_the_store_get_their_own_graphs_answers():
    # four threads on two cores, switching every microsecond, each alternating
    # between two graphs of 10 vertices; a thread that read the other graph's
    # stored answer would report it
    graphs = (named_graph("petersen"), complete_bipartite(4, 6))
    want = [
        (len(brute_alpha_witness(g)), brute_alpha_witness(g), brute_sparing_witness(g)) for g in graphs
    ]
    wrong = []

    def solve(first):
        for i in range(600):
            k = (first + i) % 2
            got = (*independence_number(graphs[k]), sparing_number_exact(graphs[k]).independent_set)
            if got != want[k]:
                wrong.append((k, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# cubic-n32-i8 of perfbench/corpus.py, the cubic graph on which chi searched longest
CUBIC_N32_I8 = (
    (0, 4), (0, 29), (0, 30), (1, 11), (1, 21), (1, 27), (2, 15), (2, 22), (2, 23), (3, 11), (3, 14), (3, 18),
    (4, 18), (4, 30), (5, 8), (5, 16), (5, 31), (6, 7), (6, 23), (6, 24), (7, 26), (7, 28), (8, 12), (8, 15),
    (9, 11), (9, 17), (9, 24), (10, 13), (10, 29), (10, 31), (12, 14), (12, 20), (13, 19), (13, 20), (14, 16),
    (15, 16), (17, 20), (17, 27), (18, 21), (19, 25), (19, 26), (21, 22), (22, 30), (23, 28), (24, 28), (25, 27),
    (25, 29), (26, 31),
)
SEARCHES = {"place", "walk", "extend", "nu"}  # each kernel's recursive search step


def search_calls(solve, graphs) -> int:
    """Calls of the kernels' search steps while ``solve`` runs on each of ``graphs`` from an empty store."""
    calls = 0

    def on_call(frame, event, arg):
        # returning None traces no lines, so only call events reach here
        nonlocal calls
        code = frame.f_code
        if code.co_name in SEARCHES and code.co_filename == solvers.__file__:
            calls += 1

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for g in graphs:
            solvers._per_component.cache_clear()
            solve(g)
    finally:
        sys.settrace(previous)
    return calls


def _sparse_n32():
    tree = random_connected_graph(random.Random(3), 32, extra=0)
    return [path_graph(32), tree, random_connected_graph(random.Random(4), 32, extra=0.2)]


# Search steps per solver over a fixed set of graphs, the same on CPython
# 3.10 to 3.13. A budget only tightens: a change that lowers a total lowers
# its budget with it, and one that raises a total fails here.
SEARCH_BUDGETS = {
    "max cut": (
        max_bipartite_subgraph,
        lambda: [
            random_connected_graph(random.Random(1), 28, extra=0.35),
            random_connected_graph(random.Random(2), 28, extra=0.6),
            complete_graph(20),
            build_graph(32, CUBIC_N32_I8),
        ],
        354_510,
    ),
    "chi": (chromatic_number, lambda: [build_graph(32, CUBIC_N32_I8)], 110_564),
    "phi": (sparing_number_exact, _sparse_n32, 521),
    "alpha": (independence_number, _sparse_n32, 465),
}


@pytest.mark.parametrize("solver", SEARCH_BUDGETS)
def test_search_stays_within_its_budget(solver):
    solve, graphs, budget = SEARCH_BUDGETS[solver]
    previous = sys.gettrace()
    calls = search_calls(solve, graphs())
    assert sys.gettrace() is previous
    # above 0, so a renamed search step cannot pass unseen
    assert 0 < calls <= budget

