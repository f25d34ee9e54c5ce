"""What the package costs to import, and what its records and exports promise."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import weakiasi
from weakiasi import (
    IasiLabeling,
    construct_labeling,
    cycle_graph,
    max_bipartite_subgraph,
    named_graph,
    sparing_number_exact,
    verify_iasi,
)
from weakiasi.oracle import cross_validate
from weakiasi.theorems import run_all_checkers

SRC = Path(weakiasi.__file__).resolve().parents[1]


def test_cli_import_loads_no_dataclasses_checkers_or_oracle():
    for module in ("weakiasi", "weakiasi.cli"):
        # click and json are loaded first, so only what weakiasi itself pulls in counts
        code = (
            f"import sys, click, json; before = set(sys.modules); import {module}; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
        )
        loaded = set(out.stdout.split())
        assert module in loaded
        assert not loaded & {"dataclasses", "weakiasi.theorems", "weakiasi.oracle"}, module


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
