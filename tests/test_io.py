import json

import pytest
from hypothesis import given, strategies as st

from weakiasi import (
    IasiLabeling,
    InvalidEdgeError,
    IsolatedVertexError,
    TooLargeError,
    WeakIasiError,
    build_graph,
    named_graph,
)
from weakiasi.graph import GRAPH_VERTEX_LIMIT
from weakiasi.io import (
    dump_edge_list,
    dump_graph_json,
    dump_labeling_json,
    load_graph,
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
        # numbers are plain decimal only, so no number has two spellings
        ("0_3 0_2\n00 1\n1 2\n", "line 1: expected two plain decimal"),
        ("+3 2\n0 1\n1 2\n", "line 1: expected two plain decimal"),
        ("3 2\n00 1\n1 2\n", "line 2: expected two plain decimal"),
        ("3 2\n+1 \u0662\n0 1\n", "line 2: expected two plain decimal"),
        ("3 2\n0 1\n1 \u0662\n", "line 3: expected two plain decimal"),
        ("3 2\n0 1\n-1 2\n", "line 3: expected two plain decimal"),
        ("3 2\n0 1\n1_0 2\n", "line 3: expected two plain decimal"),
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


@pytest.mark.parametrize("alias", ['{"a": null}', "true", "7", "null", '["a"]'])
def test_graph_json_names_must_be_strings(alias):
    with pytest.raises(ValueError, match="names must be strings"):
        parse_graph_json(f'{{"n": 2, "edges": [[0, 1]], "names": {{"0": {alias}}}}}')


@pytest.mark.parametrize("names", ["[]", "0", "false", '["a", "b"]'])
def test_graph_json_names_must_be_an_object(names):
    with pytest.raises(ValueError, match="names must be a mapping"):
        parse_graph_json(f'{{"n": 2, "edges": [[0, 1]], "names": {names}}}')


def test_graph_json_null_names_load():
    assert parse_graph_json('{"n": 2, "edges": [[0, 1]], "names": null}').names == {}


NON_CANONICAL_IDS = ["00", "01", " 1", "1 ", "+0", "-0", "1_0", "0x1", "\u0661", "", "1.0"]


@pytest.mark.parametrize("key", NON_CANONICAL_IDS)
def test_labeling_vertex_keys_must_be_canonical(key):
    text = json.dumps({"vertex_labels": {"0": [1], key: [2]}})
    with pytest.raises(ValueError, match="plain decimal"):
        parse_labeling_json(text)


@pytest.mark.parametrize("key", NON_CANONICAL_IDS)
def test_graph_name_keys_must_be_canonical(key):
    text = json.dumps({"n": 2, "edges": [[0, 1]], "names": {"1": "b", key: "a"}})
    with pytest.raises(ValueError, match="plain decimal"):
        parse_graph_json(text)


def test_two_keys_naming_one_vertex_are_rejected():
    with pytest.raises(ValueError):
        parse_labeling_json('{"vertex_labels": {"0": [1], "00": [2]}}')
    with pytest.raises(ValueError, match="appears twice"):
        parse_labeling_json('{"vertex_labels": {"0": [1], "0": [2]}}')
    with pytest.raises(ValueError, match="appears twice"):
        parse_graph_json('{"n": 2, "edges": [[0, 1]], "names": {"0": "a", "0": "b"}}')
    with pytest.raises(ValueError, match="given twice"):
        IasiLabeling({0: (1,), "0": (2,)})
    with pytest.raises(ValueError, match="given twice"):
        build_graph(2, [(0, 1)], names={0: "a", "0": "b"})


def test_canonical_vertex_keys_still_load():
    labeling = parse_labeling_json('{"vertex_labels": {"0": [1], "10": [2, 3], "1": [4]}}')
    assert labeling.vertex_labels == {0: (1,), 10: (2, 3), 1: (4,)}
    g = parse_graph_json('{"n": 11, "edges": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [9, 10]], '
                         '"names": {"0": "a", "10": "k"}}')
    assert g.names == {0: "a", 10: "k"}


@pytest.mark.parametrize("parse", [parse_graph_json, parse_labeling_json])
def test_deeply_nested_json_is_value_error(parse):
    with pytest.raises(ValueError, match="nested too deeply"):
        parse("[" * 100_000)


HUGE = 10**12


@pytest.mark.parametrize(
    "load",
    [
        lambda edges: build_graph(HUGE, edges),
        lambda edges: parse_edge_list(f"{HUGE} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)),
        lambda edges: parse_graph_json(json.dumps({"n": HUGE, "edges": edges})),
    ],
    ids=["build_graph", "parse_edge_list", "parse_graph_json"],
)
def test_huge_vertex_count_fails_before_allocating(load):
    # n > 2m always leaves a vertex untouched; [0] * n here would need terabytes
    with pytest.raises(IsolatedVertexError) as exc:
        load([(0, 2)])
    assert exc.value.vertex == 1
    with pytest.raises(InvalidEdgeError):
        load([(0, 1), (3, 3)])


# a perfect matching on the first n above the bound: adj[v] is as wide as v's
# partner id, so building it would take about n * n / 16 bytes
ABOVE = GRAPH_VERTEX_LIMIT + 2
MATCHING = [(2 * i, 2 * i + 1) for i in range(ABOVE // 2)]


@pytest.mark.parametrize(
    "load",
    [
        lambda: build_graph(ABOVE, MATCHING),
        lambda: parse_edge_list(f"{ABOVE} {len(MATCHING)}\n" + "".join(f"{u} {v}\n" for u, v in MATCHING)),
    ],
    ids=["build_graph", "parse_edge_list"],
)
def test_sparse_graph_above_the_vertex_bound_is_refused(load):
    with pytest.raises(TooLargeError) as exc:
        load()
    assert (exc.value.what, exc.value.n, exc.value.limit) == ("graph", ABOVE, GRAPH_VERTEX_LIMIT)


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


def test_dot_labels_cannot_end_their_string():
    g = build_graph(2, [(0, 1)], names={0: 'a"]; x [y="z', 1: "b\\"})
    lines = to_dot(g).splitlines()
    assert lines[1] == '  0 [label="a\\"]; x [y=\\"z"];'
    assert lines[2] == '  1 [label="b\\\\"];'


@pytest.mark.parametrize(
    "text",
    [dump_graph_json(named_graph("petersen")), dump_edge_list(named_graph("petersen"))],
    ids=["json", "edge-list"],
)
def test_file_with_byte_order_mark_loads(tmp_path, text):
    path = tmp_path / "g"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_graph(str(path)).edges == named_graph("petersen").edges


def test_undecodable_file_error_names_the_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"2 1\n0 1\xff\n")
    with pytest.raises(ValueError) as exc:
        load_graph(str(path))
    assert str(exc.value).startswith(f"{path}: ") and "utf-8" in str(exc.value)


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


# Fuzzing: whatever the text, a parser returns or raises ValueError or
# WeakIasiError. Inputs stay small; structured strategies reach past the
# JSON decoder into the field checks.

small_ints = st.integers(-2, 6)
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
vertex_keys = st.integers(-1, 6).map(str) | st.text(max_size=2)


def parses_or_rejects(parse, text):
    try:
        parse(text)
    except (ValueError, WeakIasiError):
        pass


@given(st.text(max_size=40))
def test_fuzz_edge_list_text(text):
    parses_or_rejects(parse_edge_list, text)


@given(st.lists(st.lists(small_ints | st.text(max_size=2), max_size=3), max_size=7))
def test_fuzz_edge_list_lines(rows):
    parses_or_rejects(parse_edge_list, "\n".join(" ".join(map(str, row)) for row in rows))


@pytest.mark.parametrize("parse", [parse_graph_json, parse_labeling_json])
@given(text=st.text(max_size=40))
def test_fuzz_json_text(parse, text):
    parses_or_rejects(parse, text)


@given(
    st.fixed_dictionaries(
        {},
        optional={
            "n": small_ints | json_values,
            "edges": st.lists(st.lists(small_ints | json_values, max_size=3), max_size=6) | json_values,
            "names": st.dictionaries(vertex_keys, st.text(max_size=2) | json_values, max_size=3) | json_values,
        },
    )
)
def test_fuzz_graph_json(data):
    parses_or_rejects(parse_graph_json, json.dumps(data))


@given(
    json_values
    | st.fixed_dictionaries(
        {},
        optional={
            "vertex_labels": st.dictionaries(
                vertex_keys, st.lists(small_ints | json_values, max_size=4) | json_values, max_size=4
            )
            | json_values
        },
    )
)
def test_fuzz_labeling_json(data):
    parses_or_rejects(parse_labeling_json, json.dumps(data))
