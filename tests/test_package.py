"""What the package costs to import, and what its records and exports promise."""

import subprocess
import sys
from pathlib import Path

import pytest

import weakiasi
from weakiasi import (
    construct_labeling,
    max_bipartite_subgraph,
    named_graph,
    run_all_checkers,
    sparing_number_exact,
)

SRC = Path(weakiasi.__file__).resolve().parents[1]


def test_cli_import_loads_no_dataclasses_checkers_or_oracle():
    # click and json are loaded first, so only what weakiasi itself pulls in counts
    code = (
        "import sys, click, json; before = set(sys.modules); import weakiasi.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert "weakiasi.cli" in loaded
    assert not loaded & {"dataclasses", "weakiasi.theorems", "weakiasi.oracle"}


FIELDS = {
    "Graph": ("n", "edges", "adj", "names"),
    "IasiLabeling": ("vertex_labels",),
    "SparingCertificate": ("phi", "independent_set", "mono_edges", "labeling"),
    "BipartizationCertificate": ("b", "removed_edges", "bipartition"),
    "TheoremReport": ("theorem", "inputs", "lhs", "rhs", "verdict", "witness"),
}


def _record(kind):
    graph = named_graph("petersen")
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


def test_lazy_names_resolve_to_their_module_and_are_not_cached():
    from weakiasi import oracle, theorems

    assert weakiasi.run_all_checkers is theorems.run_all_checkers
    assert weakiasi.GRAPH_CHECKERS is theorems.GRAPH_CHECKERS
    assert weakiasi.cross_validate is oracle.cross_validate
    assert weakiasi.ORACLE_VERTEX_LIMIT == oracle.ORACLE_VERTEX_LIMIT
    for name in weakiasi.__all__:
        getattr(weakiasi, name)
    assert "run_all_checkers" not in vars(weakiasi)
    assert "cross_validate" not in vars(weakiasi)
    with pytest.raises(AttributeError):
        weakiasi.no_such_name
