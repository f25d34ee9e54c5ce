"""Graph and labeling file formats: edge-list text, JSON, and DOT export."""

from __future__ import annotations

import json
from collections.abc import Mapping

from .graph import Edge, Graph, _plain_decimal, build_graph
from .labeling import IasiLabeling


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: header line ``n m``, then m lines ``u v``.

    Blank lines and ``#`` comments are skipped; numbers must be in plain decimal
    (no sign, leading zeros, separators or non-ASCII digits); errors carry line numbers.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            kind = "header 'n m'" if header is None else "edge 'u v'"
            raise ValueError(f"line {lineno}: expected {kind}, got {line!r}")
        try:
            a, b = _plain_decimal(parts[0]), _plain_decimal(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two plain decimal integers, got {line!r}") from None
        if header is None:
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise ValueError("empty edge-list input")
    n, m = header
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges but {len(edges)} were listed")
    return build_graph(n, edges)


def dump_edge_list(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def dump_graph_json(graph: Graph) -> str:
    """Canonical single-line JSON: sorted keys, edges sorted with u < v."""
    out: dict = {"n": graph.n, "edges": [list(e) for e in graph.edges]}
    if graph.names:
        out["names"] = {str(v): graph.names[v] for v in sorted(graph.names)}
    return json.dumps(out, sort_keys=True)


def _unique_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"invalid JSON: key {key!r} appears twice in one object")
        out[key] = value
    return out


# One shared decoder: json.loads builds a new one per call when given a hook,
# which raised the peak resident set of a process loading many files by ~2.5 MB.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _parse_json(text: str):
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


def parse_graph_json(text: str) -> Graph:
    """A graph from JSON ``{"n": …, "edges": [[u, v], …], "names": {…}}``; ``build_graph`` checks the values."""
    data = _parse_json(text)
    if not isinstance(data, dict) or "n" not in data or not isinstance(data.get("edges"), list):
        raise ValueError('graph JSON must be an object with "n" and an "edges" array')
    return build_graph(data["n"], data["edges"], data.get("names"))


def load_graph_text(text: str) -> Graph:
    """Autodetect JSON (leading '{') versus edge-list text."""
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_edge_list(text)


def _load(path: str, parse):
    """Read a UTF-8 file, less a leading byte order mark, and parse it; an error names the file."""
    with open(path, encoding="utf-8-sig") as handle:
        try:  # read() decodes, and UnicodeDecodeError is a ValueError
            return parse(handle.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_graph(path: str) -> Graph:
    return _load(path, load_graph_text)


def dump_labeling_json(labeling: IasiLabeling) -> str:
    return json.dumps(labeling.to_json_dict(), sort_keys=True)


def parse_labeling_json(text: str) -> IasiLabeling:
    """A labeling from JSON ``{"vertex_labels": {"v": [x, …], …}}``; ``IasiLabeling`` checks the labels."""
    data = _parse_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("vertex_labels"), dict):
        raise ValueError('labeling JSON must contain a "vertex_labels" object')
    return IasiLabeling(data["vertex_labels"])


def load_labeling(path: str) -> IasiLabeling:
    return _load(path, parse_labeling_json)


def to_dot(graph: Graph, edge_classes: Mapping[Edge, str] | None = None) -> str:
    """DOT text with a ``class`` attribute per edge: "mono", "removed" or "plain".

    ``edge_classes`` maps edges (u < v) to their class; unmapped edges are
    "plain". Vertices with aliases get a ``label`` attribute, with ``\\`` and
    ``"`` escaped so that no alias can end its string.
    """
    classes = edge_classes or {}
    lines = ["graph G {"]
    for v in range(graph.n):
        if v in graph.names:
            label = graph.names[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
    for u, v in graph.edges:
        cls = classes.get((u, v), "plain")
        lines.append(f'  {u} -- {v} [class="{cls}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
