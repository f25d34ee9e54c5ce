import random

import pytest

from weakiasi import (
    TooLargeError,
    build_graph,
    complete_graph,
    cycle_graph,
    pattern_labeling,
    verify_iasi,
)
from weakiasi.errors import IsolatedVertexError
from weakiasi.oracle import cross_validate, sparing_oracle

from helpers import all_graphs, is_independent, random_connected_graph


class TestOracleValues:
    def test_triangle(self):
        assert sparing_oracle(cycle_graph(3))[0] == 1

    def test_even_cycle(self):
        assert sparing_oracle(cycle_graph(4))[0] == 0

    def test_k4(self):
        assert sparing_oracle(complete_graph(4))[0] == 3

    def test_witness_labeling_is_valid_and_optimal(self):
        g = cycle_graph(5)
        phi, labeling = sparing_oracle(g)
        report = verify_iasi(g, labeling)
        assert report.valid_weak
        assert phi == 1 == sum(1 for k in report.edge_indexing_numbers.values() if k == 1)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            sparing_oracle(cycle_graph(8))


class TestCrossValidation:
    def test_odd_cycle(self):
        result = cross_validate(cycle_graph(5))
        assert result.agree
        assert result.oracle_phi == result.solver_phi == 1

    def test_k4_minus_edge(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        result = cross_validate(g)
        assert result.agree
        assert result.oracle_phi == 1

    def test_exhaustive_small_graphs(self):
        for n in (2, 3, 4):
            for g in all_graphs(n, connected=True):
                assert cross_validate(g).agree


class TestPatternEquivalence:
    def test_feasibility_iff_independent_pattern(self):
        """Weakness of a pattern labeling, judged purely from sumsets, must
        coincide with the pattern being an independent set (both directions)."""
        graphs = list(all_graphs(4, connected=True))
        rng = random.Random(9090)
        graphs += [random_connected_graph(rng, 6) for _ in range(12)]
        for g in graphs:
            for mask in range(1 << g.n):
                pattern = [v for v in range(g.n) if mask >> v & 1]
                report = verify_iasi(g, pattern_labeling(g, pattern))
                feasible = report.valid_weak
                assert feasible == is_independent(g, pattern)


def test_phi_monotone_under_edge_deletion():
    rng = random.Random(31337)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 6))
        phi = sparing_oracle(g)[0]
        for edge in g.edges:
            try:
                smaller = build_graph(g.n, [e for e in g.edges if e != edge])
            except IsolatedVertexError:
                continue
            assert sparing_oracle(smaller)[0] <= phi
