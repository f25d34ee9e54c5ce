import pytest

from weakiasi import (
    GRAPH_CHECKERS,
    build_graph,
    check_bipartization_theorem,
    check_chi_phi_gap,
    check_chromatic_class_formula,
    check_cover_theorems,
    check_matching_formula,
    check_odd_cycle_decomposition,
    check_union_formula,
    complete_graph,
    cycle_graph,
    named_graph,
    path_graph,
    run_all_checkers,
)

from helpers import bowtie, brute_min_mono, two_squares_sharing_vertex


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

    def test_invalid_shared_maps(self):
        with pytest.raises(ValueError):
            check_union_formula(cycle_graph(3), cycle_graph(3), shared={0: 9})
        with pytest.raises(ValueError):
            check_union_formula(cycle_graph(4), cycle_graph(4), shared={0: 1, 1: 1})


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
