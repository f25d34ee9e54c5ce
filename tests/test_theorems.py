import random

import pytest

from weakiasi import (
    build_graph,
    chromatic_number,
    complete_graph,
    connected_components,
    cycle_graph,
    named_graph,
    path_graph,
    star_graph,
)
from weakiasi.theorems import (
    GRAPH_CHECKERS,
    check_bipartization_theorem,
    check_chi_phi_gap,
    check_chromatic_class_formula,
    check_cover_theorems,
    check_matching_formula,
    check_odd_cycle_decomposition,
    check_union_formula,
    _path_or_cycle,
    run_all_checkers,
)

from helpers import (
    all_graphs,
    bowtie,
    brute_min_mono,
    random_connected_graph,
    two_squares_sharing_vertex,
)


def assert_report_self_contained(report):
    if report.verdict == "not-applicable":
        assert report.lhs is None and report.rhs is None
        assert "unmet_hypothesis" in report.witness
    else:
        assert report.verdict == ("holds" if report.lhs == report.rhs else "fails")


class TestChromaticClassFormula:
    def test_odd_cycle_holds(self):
        report = check_chromatic_class_formula(cycle_graph(5))
        assert report.witness["class_sizes_desc"] == [2, 2, 1]
        assert (report.lhs, report.rhs, report.verdict) == (1, 1, "holds")

    def test_path_holds(self):
        report = check_chromatic_class_formula(path_graph(5))
        assert (report.lhs, report.rhs, report.verdict) == (0, 0, "holds")

    def test_k4_exposes_scope(self):
        # four singleton classes: claimed value 2, actual value 3
        report = check_chromatic_class_formula(complete_graph(4))
        assert (report.lhs, report.rhs, report.verdict) == (3, 2, "fails")

    def test_classes_ordered_by_size_then_index(self):
        # the spec: classes by size descending, ties to the smaller class index
        for g in (g for n in range(2, 7) for g in all_graphs(n, connected=True)):
            chi, classes = chromatic_number(g)
            order = sorted(range(chi), key=lambda c: (-len(classes[c]), c))
            report = check_chromatic_class_formula(g)
            assert report.witness["class_sizes_desc"] == [len(classes[c]) for c in order], g.edges
            assert report.witness["largest_classes"] == [list(classes[c]) for c in order[:2]], g.edges
            assert report.rhs == sum(len(classes[c]) for c in order[2:]), g.edges


class TestPathOrCycle:
    def test_path_cycle_predicates(self):
        assert _path_or_cycle(path_graph(2))
        assert _path_or_cycle(path_graph(9))
        assert _path_or_cycle(cycle_graph(3))
        assert _path_or_cycle(cycle_graph(4))
        assert not _path_or_cycle(star_graph(3))
        assert not _path_or_cycle(build_graph(0, []))
        assert not _path_or_cycle(build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
        assert not _path_or_cycle(build_graph(5, [(0, 1), (2, 3), (3, 4), (4, 2)]))

    def test_agrees_with_connected_and_no_degree_above_two(self):
        # a connected graph whose degrees are at most 2 is a path or a cycle
        for g in (g for n in range(2, 6) for g in all_graphs(n, connected=False)):
            expected = len(connected_components(g)) == 1 and max(g.degrees()) <= 2
            assert _path_or_cycle(g) == expected, g.edges


class TestChiPhiGap:
    @pytest.mark.parametrize("n", [6, 7])
    def test_cycles_hold(self, n):
        report = check_chi_phi_gap(cycle_graph(n))
        assert report.verdict == "holds"
        assert report.lhs == 2

    def test_hypothesis_gate(self):
        report = check_chi_phi_gap(named_graph("petersen"))
        assert report.verdict == "not-applicable"
        assert "path or a cycle" in report.witness["unmet_hypothesis"]


class TestMatchingFormula:
    def test_odd_cycle(self):
        report = check_matching_formula(cycle_graph(5))
        assert (report.lhs, report.rhs, report.verdict) == (1, 1, "holds")
        assert report.witness["matching_number"] == 2

    def test_even_cycle(self):
        report = check_matching_formula(cycle_graph(6))
        assert (report.lhs, report.rhs, report.verdict) == (0, 0, "holds")

    def test_odd_path_discrepancy_reported(self):
        # ceil(7/2) - nu = 4 - 3 = 1, but the true value is 0
        report = check_matching_formula(path_graph(7))
        assert (report.lhs, report.rhs, report.verdict) == (0, 1, "fails")

    def test_even_paths_hold(self):
        for n in range(4, 21, 2):
            assert check_matching_formula(path_graph(n)).verdict == "holds"

    def test_hypothesis_gate(self):
        assert check_matching_formula(complete_graph(4)).verdict == "not-applicable"


class TestUnionFormula:
    def test_disjoint_union_additive(self):
        report = check_union_formula(cycle_graph(5), cycle_graph(5), shared={})
        assert (report.lhs, report.rhs, report.verdict) == (2, 2, "holds")
        assert report.witness["phi_intersection"] == 0

    def test_empty_graphs(self):
        report = check_union_formula(build_graph(0, []), build_graph(0, []))
        assert (report.lhs, report.rhs, report.verdict) == (0, 0, "holds")

    def test_identical_graphs(self):
        shared = {i: i for i in range(5)}
        report = check_union_formula(cycle_graph(5), cycle_graph(5), shared=shared)
        assert (report.lhs, report.rhs, report.verdict) == (1, 1, "holds")
        assert report.witness["phi_intersection"] == 1

    def test_sharing_one_edge_fails_and_is_reported(self):
        report = check_union_formula(cycle_graph(5), cycle_graph(5), shared={0: 0, 1: 1})
        assert (report.lhs, report.rhs, report.verdict) == (1, 2, "fails")
        # cross-check the union value through the brute-force route
        union = build_graph(
            8,
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 5), (5, 6), (6, 7), (0, 7)],
        )
        assert brute_min_mono(union) == 1

    def test_shared_vertex_without_shared_edge(self):
        # bowtie built as two triangles glued at one vertex
        report = check_union_formula(cycle_graph(3), cycle_graph(3), shared={0: 0})
        assert (report.lhs, report.rhs, report.verdict) == (2, 2, "holds")
        assert report.witness["isolated_shared_vertices"] == [0]

    @staticmethod
    def glue(g1, g2, shared):
        """(union, intersection, the intersection's vertices and edges in union ids), from edge lists.

        G2's unshared vertices take the ids after G1's, in G2's order; the
        intersection is renumbered onto the vertices its edges touch.
        """
        unshared = [v for v in range(g2.n) if v not in shared]
        ids = {**shared, **{v: g1.n + i for i, v in enumerate(unshared)}}
        first = {frozenset(e) for e in g1.edges}
        second = {frozenset((ids[u], ids[v])) for u, v in g2.edges}
        union = build_graph(g1.n + len(unshared), [tuple(e) for e in first | second])
        common = first & second
        touched = sorted(set().union(*common))
        inter = build_graph(len(touched), [tuple(touched.index(v) for v in e) for e in common])
        return union, inter, touched, sorted(tuple(sorted(e)) for e in common)

    def test_random_pairs_against_brute_force(self):
        rng = random.Random(2302)
        pairs = [
            (path_graph(3), path_graph(3), {0: 0}),  # a shared vertex, no shared edge
            (cycle_graph(4), cycle_graph(3), {}),  # nothing shared
        ]
        for _ in range(200):
            g1 = random_connected_graph(rng, rng.randint(2, 5))
            g2 = random_connected_graph(rng, rng.randint(2, 5))
            k = rng.randint(0, min(g1.n, g2.n))
            pairs.append((g1, g2, dict(zip(rng.sample(range(g2.n), k), rng.sample(range(g1.n), k)))))
        kinds = set()
        for g1, g2, shared in pairs:
            union, inter, touched, common = self.glue(g1, g2, shared)
            kinds.add((bool(shared), bool(common)))
            report = check_union_formula(g1, g2, shared)
            w = report.witness
            expected = (brute_min_mono(union), brute_min_mono(g1), brute_min_mono(g2), brute_min_mono(inter))
            assert (w["phi_union"], w["phi_g1"], w["phi_g2"], w["phi_intersection"]) == expected, shared
            assert w["union"] == {"n": union.n, "m": union.m}
            assert w["intersection_edges"] == [list(e) for e in common]
            assert w["isolated_shared_vertices"] == sorted(set(shared.values()) - set(touched))
            assert (report.lhs, report.rhs) == (expected[0], expected[1] + expected[2] - expected[3])
            assert_report_self_contained(report)
        # nothing shared, shared vertices but no shared edge, and shared edges
        assert kinds == {(False, False), (True, False), (True, True)}

    def test_invalid_shared_maps(self):
        with pytest.raises(ValueError):
            check_union_formula(cycle_graph(3), cycle_graph(3), shared={0: 9})
        with pytest.raises(ValueError):
            check_union_formula(cycle_graph(4), cycle_graph(4), shared={0: 1, 1: 1})
        # a bool or an integral float equals an int id, so only the type tells them apart
        for shared in ({"0": 1}, {0: "1"}, {0: 1.0}, {True: 0}, {0.0: 1}):
            with pytest.raises(ValueError, match="int vertex ids"):
                check_union_formula(cycle_graph(3), cycle_graph(3), shared=shared)

    def test_shared_key_outside_the_second_graph(self):
        with pytest.raises(ValueError, match="^shared key 3 out of range for the second graph$"):
            check_union_formula(cycle_graph(4), cycle_graph(3), shared={3: 0})


class TestOddCycleDecomposition:
    def test_bowtie_holds(self):
        report = check_odd_cycle_decomposition(bowtie())
        assert (report.lhs, report.rhs, report.verdict) == (2, 2, "holds")
        assert report.witness["matching_additive_over_cycles"] is True

    def test_single_odd_cycle(self):
        report = check_odd_cycle_decomposition(cycle_graph(5))
        assert (report.lhs, report.rhs, report.verdict) == (1, 1, "holds")

    def test_k5_formula_fails(self):
        report = check_odd_cycle_decomposition(complete_graph(5))
        assert sorted(report.witness["cycle_sizes"]) == [3, 3, 4]
        assert (report.lhs, report.rhs, report.verdict) == (6, 4, "fails")
        assert report.witness["matching_additive_over_cycles"] is False

    def test_two_even_cycles_not_applicable_and_additivity_fails(self):
        report = check_odd_cycle_decomposition(two_squares_sharing_vertex())
        assert report.verdict == "not-applicable"
        assert "even cycle" in report.witness["unmet_hypothesis"]
        assert report.witness["matching_additive_over_cycles"] is False
        assert report.witness["matching_number"] == 3

    def test_non_eulerian_gate(self):
        report = check_odd_cycle_decomposition(named_graph("petersen"))
        assert report.verdict == "not-applicable"
        assert "even" in report.witness["unmet_hypothesis"]

    def test_lowest_odd_degree_vertex_is_named(self):
        # a triangle with a pendant edge at 2: degrees 2, 2, 3, 1
        report = check_odd_cycle_decomposition(build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
        assert report.verdict == "not-applicable"
        assert report.witness == {"unmet_hypothesis": "every vertex degree is even", "odd_degree_vertex": 2}
        assert_report_self_contained(report)


class TestMatchingLimit:
    # the matching solver takes at most 24 vertices; past that the two
    # checkers that need nu report the limit instead of a verdict
    LIMIT = {"unmet_hypothesis": "matching solver limit (n <= 24)"}

    @pytest.mark.parametrize("n", [25, 26])
    def test_cycles_past_the_limit_are_not_applicable(self, n):
        for check in (check_matching_formula, check_odd_cycle_decomposition):
            report = check(cycle_graph(n))
            assert (report.verdict, report.witness) == ("not-applicable", self.LIMIT), check
            assert_report_self_contained(report)

    def test_odd_degrees_are_reported_before_the_limit(self):
        g = path_graph(30)
        assert check_matching_formula(g).witness == self.LIMIT
        report = check_odd_cycle_decomposition(g)
        assert report.verdict == "not-applicable"
        assert report.witness == {"unmet_hypothesis": "every vertex degree is even", "odd_degree_vertex": 0}


class TestCoverTheorems:
    def test_small_cycle(self):
        report = check_cover_theorems(cycle_graph(5))
        assert (report.lhs, report.rhs, report.verdict) == (3, 3, "holds")
        assert report.witness["alpha"] == 2

    def test_petersen(self):
        report = check_cover_theorems(named_graph("petersen"))
        assert report.lhs == 6 == 10 - report.witness["alpha"]
        assert report.verdict == "holds"

    def test_complete_five(self):
        report = check_cover_theorems(complete_graph(5))
        assert report.witness["alpha"] == 1
        assert (report.lhs, report.rhs, report.verdict) == (4, 4, "holds")

    def test_structural_flags(self):
        for g in (cycle_graph(7), named_graph("durer"), bowtie()):
            witness = check_cover_theorems(g).witness
            assert witness["cover_touches_every_edge"]
            assert witness["alpha_plus_beta_equals_n"]
            assert witness["equals_n_minus_alpha"]
            assert witness["non_mono_count_equals_alpha"]


class TestBipartizationTheorem:
    def test_petersen_holds(self):
        report = check_bipartization_theorem(named_graph("petersen"))
        assert (report.lhs, report.rhs, report.verdict) == (3, 3, "holds")

    def test_odd_cycle_holds(self):
        report = check_bipartization_theorem(cycle_graph(7))
        assert (report.lhs, report.rhs, report.verdict) == (1, 1, "holds")

    def test_durer_mismatch_carries_both_certificates(self):
        report = check_bipartization_theorem(named_graph("durer"))
        assert (report.lhs, report.rhs, report.verdict) == (6, 4, "fails")
        assert report.witness["sparing_certificate"]["phi"] == 6
        assert len(report.witness["bipartization_certificate"]["removed_edges"]) == 4

    def test_grotzsch_mismatch_carries_both_certificates(self):
        report = check_bipartization_theorem(named_graph("grotzsch"))
        assert (report.lhs, report.rhs, report.verdict) == (5, 4, "fails")
        assert report.witness["sparing_certificate"]["phi"] == 5
        assert report.witness["bipartization_certificate"]["b"] == 16
        assert len(report.witness["bipartization_certificate"]["removed_edges"]) == 4


class TestRunner:
    def test_all_checkers_run_and_reports_are_self_contained(self):
        reports = run_all_checkers(named_graph("grotzsch"))
        assert len(reports) == 6
        for report in reports:
            assert_report_self_contained(report)

    def test_reports_follow_checker_order(self):
        g = named_graph("frucht")
        reports = run_all_checkers(g)
        assert [r.theorem for r in reports] == [
            "chromatic-class-formula",
            "chi-phi-gap",
            "matching-formula",
            "odd-cycle-decomposition",
            "cover-independence",
            "bipartization-equals-sparing",
        ]
        assert reports == tuple(checker(g) for checker in GRAPH_CHECKERS)

    def test_json_shape(self):
        report = check_chi_phi_gap(cycle_graph(6)).to_json_dict()
        assert set(report) == {"theorem", "inputs", "lhs", "rhs", "verdict", "witness"}
