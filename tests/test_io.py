import json

import pytest

from weakiasi import IasiLabeling, InvalidEdgeError, IsolatedVertexError, build_graph, named_graph
from weakiasi.io import (
    dump_edge_list,
    dump_graph_json,
    dump_labeling_json,
    graph_from_json_dict,
    load_graph_text,
    parse_edge_list,
    parse_graph_json,
    parse_labeling_json,
    to_dot,
)


def test_edge_list_round_trip():
    g = named_graph("petersen")
    again = parse_edge_list(dump_edge_list(g))
    assert again.n == g.n and again.edges == g.edges


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# a triangle\n\n3 3\n0 1\n1 2\n\n0 2\n")
    assert g.m == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3\n0 1\n", "line 1"),
        ("3 2\n0 1\nx y\n", "line 3"),
        ("3 2\n0 1 2\n1 2\n", "line 2"),
        ("3 5\n0 1\n1 2\n", "declares 5"),
        ("", "empty"),
    ],
)
def test_edge_list_errors_carry_location(text, fragment):
    with pytest.raises(ValueError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)


def test_graph_json_round_trip_is_byte_identical():
    g = build_graph(4, [(1, 0), (1, 2), (2, 3), (3, 0)], names={0: "a", 3: "d"})
    dumped = dump_graph_json(g)
    assert dump_graph_json(parse_graph_json(dumped)) == dumped
    # normalization: differently formatted input converges to the same bytes
    messy = json.dumps({"edges": [[1, 0], [2, 1], [3, 2], [0, 3]], "n": 4,
                        "names": {"3": "d", "0": "a"}}, indent=3)
    assert dump_graph_json(parse_graph_json(messy)) == dumped


def test_graph_json_validation():
    with pytest.raises(ValueError):
        parse_graph_json("{not json")
    with pytest.raises(ValueError):
        parse_graph_json('{"edges": [[0, 1]]}')
    with pytest.raises(ValueError):
        parse_graph_json('{"n": 2, "edges": [[0, 1]], "names": 7}')


@pytest.mark.parametrize("n", ["2.5", "true", '"2"', "null"])
def test_graph_json_n_must_be_an_integer(n):
    with pytest.raises(ValueError, match='"n" must be an integer'):
        parse_graph_json(f'{{"n": {n}, "edges": [[0, 1]]}}')


@pytest.mark.parametrize("endpoint", ["0.9", "true", '"0"', "null"])
def test_graph_json_edge_endpoints_must_be_integers(endpoint):
    with pytest.raises(ValueError, match="endpoints must be integers"):
        parse_graph_json(f'{{"n": 2, "edges": [[{endpoint}, 1]]}}')


HUGE = 10**12


@pytest.mark.parametrize(
    "load",
    [
        lambda edges: build_graph(HUGE, edges),
        lambda edges: parse_edge_list(f"{HUGE} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)),
        lambda edges: graph_from_json_dict({"n": HUGE, "edges": edges}),
    ],
    ids=["build_graph", "parse_edge_list", "graph_from_json_dict"],
)
def test_huge_vertex_count_fails_before_allocating(load):
    # n > 2m always leaves a vertex untouched; [0] * n here would need terabytes
    with pytest.raises(IsolatedVertexError) as exc:
        load([(0, 2)])
    assert exc.value.vertex == 1
    with pytest.raises(InvalidEdgeError):
        load([(0, 1), (3, 3)])


def test_autodetect():
    g = named_graph("durer")
    assert load_graph_text(dump_graph_json(g)).edges == g.edges
    assert load_graph_text(dump_edge_list(g)).edges == g.edges


def test_dot_export_edge_classes():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)], names={0: "u1"})
    dot = to_dot(g, {(0, 1): "mono", (0, 2): "removed"})
    assert 'label="u1"' in dot
    assert '0 -- 1 [class="mono"];' in dot
    assert '0 -- 2 [class="removed"];' in dot
    assert '1 -- 2 [class="plain"];' in dot
    assert dot.startswith("graph G {")


def test_labeling_json_round_trip():
    labeling = IasiLabeling({0: (0,), 1: (4, 5), 2: (9,)})
    dumped = dump_labeling_json(labeling)
    assert parse_labeling_json(dumped) == labeling
    assert json.loads(dumped)["vertex_labels"]["1"] == [4, 5]


def test_labeling_json_validation():
    with pytest.raises(ValueError):
        parse_labeling_json('{"labels": {}}')
    with pytest.raises(ValueError):
        parse_labeling_json('{"vertex_labels": {"0": []}}')


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '"labels"',
        '{"vertex_labels": {"0": 5}}',
        '{"vertex_labels": {"0": [null]}}',
        '{"vertex_labels": {"0": [1.5]}}',
        '{"vertex_labels": {"0": [true]}}',
        '{"vertex_labels": {"0": "12"}}',
    ],
)
def test_malformed_labeling_json_is_value_error(text):
    with pytest.raises(ValueError):
        parse_labeling_json(text)
