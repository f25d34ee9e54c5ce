"""What the package costs to import, and what its records and exports promise."""

import copy
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import weakiasi
from weakiasi import (
    IasiLabeling,
    WeakIasiError,
    build_graph,
    complete_graph,
    connected_components,
    construct_labeling,
    cycle_graph,
    decompose_into_cycles,
    make_label,
    max_bipartite_subgraph,
    mono_indexed_edges,
    named_graph,
    path_graph,
    pattern_labeling,
    sparing_number_exact,
    spread_values,
    star_graph,
    sumset,
    verify_iasi,
)
from weakiasi.graph import degree_stats
from weakiasi.oracle import cross_validate, sparing_oracle
from weakiasi.theorems import check_union_formula, run_all_checkers

SRC = Path(weakiasi.__file__).resolve().parents[1]


def _loaded_by(modules):
    """What importing ``modules`` loads in a fresh interpreter that has json and argparse."""
    # json and argparse are loaded first, so only what weakiasi itself pulls in counts; -S
    # skips site, whose .pth files could load typing first and hide it from this count
    code = (
        f"import sys, json, argparse; before = set(sys.modules); import {modules}; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_cli_import_loads_no_dataclasses_checkers_or_oracle():
    # the package has no runtime dependency, and its records need no typing: click,
    # dataclasses or typing coming back fails here
    forbidden = {"click", "dataclasses", "typing"}
    for module in ("weakiasi", "weakiasi.cli"):
        loaded = _loaded_by(module)
        assert module in loaded
        assert not loaded & (forbidden | {"weakiasi.theorems", "weakiasi.oracle"}), module
    # check-theorems and oracle load these two
    loaded = _loaded_by("weakiasi.theorems, weakiasi.oracle")
    assert {"weakiasi.theorems", "weakiasi.oracle"} <= loaded
    assert not loaded & forbidden


FIELDS = {
    "Graph": ("n", "edges", "adj", "names"),
    "IasiLabeling": ("vertex_labels",),
    "SparingCertificate": ("phi", "independent_set", "mono_edges", "labeling"),
    "BipartizationCertificate": ("b", "removed_edges", "bipartition"),
    "TheoremReport": ("theorem", "inputs", "lhs", "rhs", "verdict", "witness"),
}


# every record with a to_json_dict; LabelingReport's JSON adds the valid_weak flag
JSON_FIELDS = {
    **{kind: fields for kind, fields in FIELDS.items() if kind != "Graph"},
    "LabelingReport": (
        "vertex_injective", "edge_injective", "weak", "vertex_collision", "edge_collision",
        "weak_violation", "edge_indexing_numbers", "valid_weak",
    ),
    "CrossValidation": ("agree", "oracle_phi", "solver_phi", "oracle_labeling", "certificate"),
}


def _record(kind):
    graph = named_graph("petersen")
    if kind == "LabelingReport":
        # one shared label: every collision and violation field holds a witness
        return verify_iasi(graph, IasiLabeling({v: (0, 1) for v in range(graph.n)}))
    if kind == "CrossValidation":
        return cross_validate(cycle_graph(5))
    if kind == "Graph":
        return graph
    if kind == "IasiLabeling":
        return construct_labeling(graph, [0])
    if kind == "SparingCertificate":
        return sparing_number_exact(graph)
    if kind == "BipartizationCertificate":
        return max_bipartite_subgraph(graph)
    return run_all_checkers(graph)[0]


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_record_fields_cannot_be_assigned(kind):
    record = _record(kind)
    assert type(record).__name__ == kind
    for field in FIELDS[kind]:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("kind", sorted(JSON_FIELDS))
def test_record_json_is_plain_json(kind):
    record = _record(kind)
    assert type(record).__name__ == kind
    data = record.to_json_dict()
    # a tuple or a non-string key would not survive the round trip unchanged
    assert json.loads(json.dumps(data)) == data
    assert set(data) == set(JSON_FIELDS[kind])


@pytest.mark.parametrize("kind", sorted(FIELDS.keys() | JSON_FIELDS.keys()))
def test_records_survive_pickling_and_deepcopy(kind):
    record = _record(kind)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record
        if kind == "IasiLabeling":
            # dict equality tells 0 from "0" and (1,) from [1]: still int keys and tuple labels
            assert copied == IasiLabeling(copied.vertex_labels)


def test_labeling_keys_are_checked_and_normalized():
    labeling = weakiasi.IasiLabeling({"2": [5, 1, 5], 0: (3,)})
    assert labeling.vertex_labels == {2: (1, 5), 0: (3,)}
    assert labeling == (labeling.vertex_labels,)
    with pytest.raises(ValueError):
        weakiasi.IasiLabeling({"02": [1]})
    # the named tuple's copy constructors go through the same checks
    replaced = weakiasi.IasiLabeling({0: [2, 1]})._replace(vertex_labels={"0": [2, 1, 1]})
    assert replaced.vertex_labels == {0: (1, 2)} and replaced.label(0) == (1, 2)
    assert weakiasi.IasiLabeling._make([{"1": [3, 3]}]).vertex_labels == {1: (3,)}
    with pytest.raises(ValueError):
        labeling._replace(vertex_labels={"+1": [1]})


def test_every_export_is_bound_at_import_and_comes_from_a_core_module():
    core = {f"weakiasi.{name}" for name in ("errors", "graph", "labeling", "solvers")}
    for name in weakiasi.__all__:
        assert name in vars(weakiasi), name
        assert vars(weakiasi)[name].__module__ in core, name
    # the checkers and the oracle have one import path: their own modules
    with pytest.raises(AttributeError):
        weakiasi.run_all_checkers


# Fuzzing: whatever Python value an argument gets, a public entry point returns
# or raises ValueError or WeakIasiError, as the readers do in test_io.py. Ints
# stay small, or lie far above every limit, so no example builds a large graph.

small_ints = st.integers(-3, 12) | st.sampled_from([2**14 + 1, 10**12])
scalars = st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=3)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.frozensets(scalars, max_size=3)
    | st.dictionaries(small_ints | st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
# near misses of valid arguments, which reach past the first checks
edge_lists = st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), max_size=4)
label_maps = st.dictionaries(st.integers(-1, 3), st.lists(st.integers(-1, 9), max_size=3), max_size=4)
arguments = values | edge_lists | label_maps | st.sampled_from(["cycle", "Petersen", " star "])

P3 = build_graph(3, [(0, 1), (1, 2)])
K2 = build_graph(2, [(0, 1)])
ENTRY_POINTS = {
    "build_graph": build_graph,
    "build_graph edges": lambda a, b: build_graph(3, a),
    "build_graph names": lambda a, b: build_graph(3, [(0, 1), (1, 2)], a),
    "IasiLabeling": lambda a, b: IasiLabeling(a),
    "make_label": lambda a, b: make_label(a),
    "sumset": sumset,
    "construct_labeling": lambda a, b: construct_labeling(P3, a),
    "pattern_labeling": lambda a, b: pattern_labeling(P3, a),
    "verify_iasi": lambda a, b: verify_iasi(P3, a),
    "verify_iasi labeling": lambda a, b: verify_iasi(P3, IasiLabeling(a)),
    "mono_indexed_edges": lambda a, b: mono_indexed_edges(P3, a),
    "mono_indexed_edges labeling": lambda a, b: mono_indexed_edges(P3, IasiLabeling(a)),
    "check_union_formula": lambda a, b: check_union_formula(P3, K2, shared=a),
    "spread_values": lambda a, b: spread_values(a),
    "named_graph": named_graph,
    "cycle_graph": lambda a, b: cycle_graph(a),
    "path_graph": lambda a, b: path_graph(a),
    "complete_graph": lambda a, b: complete_graph(a),
    "star_graph": lambda a, b: star_graph(a),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@settings(max_examples=30)  # 19 entry points: the whole test stays near 2 s
@given(a=arguments, b=arguments)
def test_fuzz_public_entry_points(call, a, b):
    try:
        call(a, b)
    except (ValueError, WeakIasiError):
        pass


# refusals the fuzz test cannot see: a value that was accepted, and each message
MALFORMED = {
    "labels not a mapping": (lambda: IasiLabeling([1, 2]), "labels must be a mapping of vertex ids, got list"),
    "label not a list": (
        lambda: IasiLabeling({0: 5}),
        "label of vertex 0: a set-label must be a list of integers, got 5",
    ),
    "label null": (lambda: IasiLabeling({"3": None}), "label of vertex 3: a set-label must be .*, got None"),
    "make_label": (lambda: make_label(5), "a set-label must be a list of integers, got 5"),
    "sumset": (lambda: sumset(5, [0]), "a set-label must be a list of integers, got 5"),
    "edge not a pair": (lambda: build_graph(3, [5]), "an edge must be a pair of vertex ids, got 5"),
    "edge a triple": (
        lambda: build_graph(3, [(0, 1, 2)]),
        r"an edge must be a pair of vertex ids, got \(0, 1, 2\)",
    ),
    "edges not iterable": (lambda: build_graph(3, 5), "edges must be an iterable of pairs, got int"),
    # a mapping iterates over its keys, so it is no edge list, edge, label or vertex set
    "edges a mapping": (lambda: build_graph(2, {(0, 1): "x"}), "edges must be an iterable of pairs, got dict"),
    "edge a mapping": (
        lambda: build_graph(2, [{0: "x", 1: "y"}]),
        "an edge must be a pair of vertex ids, got {0: 'x', 1: 'y'}",
    ),
    "make_label mapping": (lambda: make_label({3: "a"}), "a set-label must be a list of integers, got {3: 'a'}"),
    "label a mapping": (
        lambda: IasiLabeling({0: {1: [1]}}),
        r"label of vertex 0: a set-label must be a list of integers, got {1: \[1\]}",
    ),
    "vertex set a mapping": (
        lambda: construct_labeling(P3, {0: True}),
        "a vertex set must be a list of integers, got {0: True}",
    ),
    "verify_iasi": (lambda: verify_iasi(P3, {0: [1]}), "labeling must be an IasiLabeling, got dict"),
    "mono_indexed_edges": (
        lambda: mono_indexed_edges(P3, {0: [1]}),
        "labeling must be an IasiLabeling, got dict",
    ),
    "construct_labeling": (lambda: construct_labeling(P3, 5), "a vertex set must be a list of integers, got 5"),
    "pattern_labeling": (lambda: pattern_labeling(P3, 5), "a vertex set must be a list of integers, got 5"),
    "shared pairs": (
        lambda: check_union_formula(P3, K2, shared=[(0, 0)]),
        "shared must be a mapping .*, got list",
    ),
    "shared int": (lambda: check_union_formula(P3, K2, shared=5), "shared must be a mapping .*, got int"),
    # a graph argument that is not a Graph, refused by graph._check_graph
    "sparing_number_exact graph": (lambda: sparing_number_exact([(0, 1)]), "graph must be a Graph, got list"),
    "verify_iasi graph": (
        lambda: verify_iasi(5, IasiLabeling({0: [0], 1: [1]})),
        "graph must be a Graph, got int",
    ),
    "run_all_checkers graph": (lambda: run_all_checkers(None), "graph must be a Graph, got NoneType"),
    "construct_labeling graph": (lambda: construct_labeling(None, [0]), "graph must be a Graph, got NoneType"),
    "decompose_into_cycles graph": (lambda: decompose_into_cycles(3), "graph must be a Graph, got int"),
    "connected_components graph": (lambda: connected_components("x"), "graph must be a Graph, got str"),
    "check_union_formula graph": (lambda: check_union_formula(P3, 5), "graph must be a Graph, got int"),
    "sparing_oracle graph": (lambda: sparing_oracle({"n": 2}), "graph must be a Graph, got dict"),
    "degree_stats graph": (lambda: degree_stats((2, ((0, 1),))), "graph must be a Graph, got tuple"),
    **{
        f"spread_values {count!r}": (
            lambda count=count: spread_values(count),
            f"integer >= 0, got {re.escape(repr(count))}",
        )
        for count in (2.5, -1, [], True)
    },
}


@pytest.mark.parametrize("call,message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_argument_is_value_error(call, message):
    with pytest.raises(ValueError, match=f"{message}$"):
        call()
