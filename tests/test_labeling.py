import itertools
import random

import pytest
from hypothesis import given, strategies as st

from weakiasi import (
    IasiLabeling,
    MissingLabelError,
    NotIndependentError,
    NotWeakError,
    TooLargeError,
    build_graph,
    complete_graph,
    construct_labeling,
    cycle_graph,
    make_label,
    mono_indexed_edges,
    path_graph,
    pattern_labeling,
    spread_values,
    sumset,
    verify_iasi,
)

import weakiasi.labeling
from helpers import random_connected_graph, random_independent_set

labels = st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=5).map(
    lambda s: tuple(sorted(s))
)


class TestSumset:
    def test_zero_singleton_is_identity(self):
        assert sumset({0}, {1, 2}) == (1, 2)

    def test_collision_collapses(self):
        # four pairs, one collision: 0+1 == 1+0
        assert sumset({0, 1}, {0, 1}) == (0, 1, 2)

    def test_make_label_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_label([])
        with pytest.raises(ValueError):
            make_label([-1, 2])
        # a value that is not an int is refused, never truncated, and so is a bool
        for bad in ([True, 3], [3.9], ["2"]):
            with pytest.raises(ValueError):
                make_label(bad)
        with pytest.raises(ValueError):
            IasiLabeling({0: [2.7]})
        assert make_label([3, 1, 3]) == (1, 3)

    @given(labels, labels)
    def test_commutative(self, a, b):
        assert sumset(a, b) == sumset(b, a)

    @given(labels, labels, labels)
    def test_associative(self, a, b, c):
        assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))

    @given(labels)
    def test_zero_is_identity(self, a):
        assert sumset(a, (0,)) == a

    @given(labels, labels)
    def test_size_bounds(self, a, b):
        size = len(sumset(a, b))
        assert max(len(a), len(b)) <= size <= len(a) * len(b)

    def test_strict_lower_bound_when_both_non_singleton(self):
        # |A+B| >= |A|+|B|-1 > max for integer sets of size >= 2
        universe = range(6)
        pool = [
            tuple(c)
            for size in (2, 3)
            for c in itertools.combinations(universe, size)
        ]
        for a in pool:
            for b in pool:
                assert len(sumset(a, b)) > max(len(a), len(b))


class TestVerify:
    def test_consecutive_singletons_on_c4_collide_on_edges(self):
        g = cycle_graph(4)
        labeling = IasiLabeling({0: (0,), 1: (1,), 2: (2,), 3: (3,)})
        report = verify_iasi(g, labeling)
        assert report.vertex_injective
        assert not report.edge_injective
        # (0,3) and (1,2) both sum to {3}; edges scanned in sorted order
        assert report.edge_collision == ((0, 3), (1, 2))
        assert report.weak

    def test_single_edge_weak(self):
        g = build_graph(2, [(0, 1)])
        report = verify_iasi(g, IasiLabeling({0: (0,), 1: (0, 1)}))
        assert report.valid_weak
        assert report.edge_indexing_numbers[(0, 1)] == 2

    def test_adjacent_non_singletons_break_weakness(self):
        g = cycle_graph(3)
        report = verify_iasi(g, IasiLabeling({0: (0, 1), 1: (2, 3), 2: (5,)}))
        # {0,1}+{2,3} = {2,3,4} has size 3 > 2
        assert not report.weak
        assert report.weak_violation == (0, 1)
        assert report.vertex_injective and report.edge_injective

    def test_vertex_collision_reported(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        report = verify_iasi(g, IasiLabeling({0: (7,), 1: (1,), 2: (7,)}))
        assert not report.vertex_injective
        assert report.vertex_collision == (0, 2)

    def test_missing_label(self):
        g = cycle_graph(4)
        with pytest.raises(MissingLabelError) as exc:
            verify_iasi(g, IasiLabeling({0: (0,), 1: (1,), 2: (2,)}))
        assert exc.value.vertex == 3

    def test_label_on_vertex_outside_graph(self):
        g = cycle_graph(4)
        labels = {0: (0,), 1: (1,), 2: (2,), 3: (3,)}
        with pytest.raises(ValueError, match="vertex 9,"):
            verify_iasi(g, IasiLabeling({**labels, 12: (5,), 9: (4,)}))
        with pytest.raises(ValueError, match="vertex 4,"):
            verify_iasi(g, IasiLabeling({**labels, 4: (4,)}))

    def test_hostile_label_sizes_are_refused_before_any_sumset(self, monkeypatch):
        # two 3,000-element labels on K2: 9,000,000 additions for one edge
        g = build_graph(2, [(0, 1)])
        hostile = IasiLabeling({0: range(0, 6000, 2), 1: range(1, 6000, 2)})

        def no_sumset(*args):
            raise AssertionError("sumset called")

        monkeypatch.setattr(weakiasi.labeling, "sumset", no_sumset)
        with pytest.raises(ValueError, match="9000000 additions"):
            verify_iasi(g, hostile)

    def test_sumset_work_limit_is_inclusive(self, monkeypatch):
        # a path 0-1-2 with labels of sizes 1, 3, 2: 1*3 + 3*2 = 9 additions
        g = build_graph(3, [(0, 1), (1, 2)])
        labeling = IasiLabeling({0: (0,), 1: (1, 2, 3), 2: (10, 20)})
        monkeypatch.setattr(weakiasi.labeling, "SUMSET_WORK_LIMIT", 9)
        assert verify_iasi(g, labeling).edge_indexing_numbers == {(0, 1): 3, (1, 2): 6}
        monkeypatch.setattr(weakiasi.labeling, "SUMSET_WORK_LIMIT", 8)
        with pytest.raises(ValueError, match="more than the limit of 8"):
            verify_iasi(g, labeling)

    def test_report_json_contains_witnesses(self):
        g = cycle_graph(3)
        report = verify_iasi(g, IasiLabeling({0: (0, 1), 1: (2, 3), 2: (5,)}))
        data = report.to_json_dict()
        assert data["weak"] is False
        assert data["weak_violation"] == [0, 1]
        assert [0, 1, 3] in data["edge_indexing_numbers"]


class TestMonoIndexedEdges:
    def test_both_singletons(self):
        g = build_graph(2, [(0, 1)])
        assert mono_indexed_edges(g, IasiLabeling({0: (0,), 1: (5,)})) == ((0, 1),)

    def test_one_non_singleton_endpoint(self):
        g = build_graph(2, [(0, 1)])
        assert mono_indexed_edges(g, IasiLabeling({0: (0,), 1: (1, 2)})) == ()

    def test_not_weak_raises(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(NotWeakError):
            mono_indexed_edges(g, IasiLabeling({0: (0, 1), 1: (2, 3)}))


class TestConstruction:
    def test_c4_alternating_set_has_no_mono_edges(self):
        g = cycle_graph(4)
        labeling = construct_labeling(g, (0, 2))
        assert verify_iasi(g, labeling).valid_weak
        assert mono_indexed_edges(g, labeling) == ()

    def test_c5_leaves_exactly_one_mono_edge(self):
        g = cycle_graph(5)
        labeling = construct_labeling(g, (0, 2))
        assert verify_iasi(g, labeling).valid_weak
        assert mono_indexed_edges(g, labeling) == ((3, 4),)

    def test_k4_single_vertex_leaves_triangle(self):
        g = complete_graph(4)
        labeling = construct_labeling(g, (0,))
        assert mono_indexed_edges(g, labeling) == ((1, 2), (1, 3), (2, 3))

    def test_not_independent(self):
        with pytest.raises(NotIndependentError) as exc:
            construct_labeling(cycle_graph(4), (0, 1))
        assert (exc.value.u, exc.value.v) == (0, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            construct_labeling(cycle_graph(4), (0, 9))
        # a vertex id is an int: 0.9 is not vertex 0, "2" not vertex 2, True not vertex 1
        for bad in ([0.9], ["2"], [True], [-1]):
            with pytest.raises(ValueError):
                construct_labeling(cycle_graph(5), bad)
            with pytest.raises(ValueError):
                pattern_labeling(cycle_graph(5), bad)

    def test_label_shapes(self):
        g = cycle_graph(5)
        labeling = construct_labeling(g, (1, 3))
        for v in range(5):
            expected = 2 if v in (1, 3) else 1
            assert len(labeling.label(v)) == expected

    def test_deterministic(self):
        g = random_connected_graph(random.Random(5), 9)
        ind = random_independent_set(random.Random(6), g)
        assert construct_labeling(g, ind) == construct_labeling(g, ind)

    def test_random_instances_fully_valid(self):
        rng = random.Random(424242)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 12))
            independent = random_independent_set(rng, g)
            labeling = construct_labeling(g, independent)
            report = verify_iasi(g, labeling)
            assert report.valid_weak
            inside = set(independent)
            expected = tuple(
                e for e in g.edges if e[0] not in inside and e[1] not in inside
            )
            assert mono_indexed_edges(g, labeling) == expected

    def test_pattern_labeling_rediscovers_infeasibility(self):
        g = cycle_graph(4)
        report = verify_iasi(g, pattern_labeling(g, (0, 1)))
        assert not report.weak
        assert report.vertex_injective and report.edge_injective


def test_spread_values_have_distinct_pair_sums():
    values = spread_values(32)
    sums = [values[i] + values[j] for i in range(32) for j in range(i + 1, 32)]
    assert len(sums) == len(set(sums))
    assert values == tuple(sorted(values))


def test_spread_values_refuse_more_than_128_before_searching():
    # the greedy search grows about as count**3.5, so 1000 values would take
    # hours; the refusal comes first, with the count and the limit
    assert len(spread_values(128)) == 128
    with pytest.raises(TooLargeError) as exc:
        spread_values(129)
    assert (exc.value.n, exc.value.limit) == (129, 128)
    for build in (construct_labeling, pattern_labeling):
        with pytest.raises(TooLargeError, match="^labeling construction supports at most 128 vertices, got 1000$"):
            build(path_graph(1000), [0])
