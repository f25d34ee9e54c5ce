"""Graph and labeling file formats: edge-list text, JSON, and DOT export."""

from __future__ import annotations

import json
from typing import Mapping

from .graph import Edge, Graph, build_graph
from .labeling import IasiLabeling


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: header line ``n m``, then m lines ``u v``.

    Blank lines and ``#`` comments are skipped; errors carry line numbers.
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
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}") from None
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


def graph_to_json_dict(graph: Graph) -> dict:
    out: dict = {"n": graph.n, "edges": [list(e) for e in graph.edges]}
    if graph.names:
        out["names"] = {str(v): graph.names[v] for v in sorted(graph.names)}
    return out


def graph_from_json_dict(data: Mapping) -> Graph:
    if not isinstance(data, Mapping):
        raise ValueError("graph JSON must be an object")
    try:
        n = data["n"]
        edges = [(u, v) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f'graph JSON needs "n" and "edges": {exc}') from None
    # type() rather than isinstance(): JSON true/false decode to bool, a subclass of int
    if type(n) is not int:
        raise ValueError(f'graph JSON "n" must be an integer, got {n!r}')
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"graph JSON edge endpoints must be integers, got {[u, v]!r}")
    names = data.get("names")
    if names is not None and not isinstance(names, Mapping):
        raise ValueError('graph JSON "names" must be an object')
    return build_graph(n, edges, {int(k): str(v) for k, v in (names or {}).items()})


def dump_graph_json(graph: Graph) -> str:
    """Canonical single-line JSON: sorted keys, edges sorted with u < v."""
    return json.dumps(graph_to_json_dict(graph), sort_keys=True)


def parse_graph_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return graph_from_json_dict(data)


def load_graph_text(text: str) -> Graph:
    """Autodetect JSON (leading '{') versus edge-list text."""
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_edge_list(text)


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return load_graph_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dump_labeling_json(labeling: IasiLabeling) -> str:
    return json.dumps(labeling.to_json_dict(), sort_keys=True)


def parse_labeling_json(text: str) -> IasiLabeling:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return IasiLabeling.from_json_dict(data)


def load_labeling(path: str) -> IasiLabeling:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_labeling_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def to_dot(graph: Graph, edge_classes: Mapping[Edge, str] | None = None, name: str = "G") -> str:
    """DOT text with a ``class`` attribute per edge: "mono", "removed" or "plain".

    ``edge_classes`` maps edges (u < v) to their class; unmapped edges are
    "plain". Vertices with aliases get a ``label`` attribute.
    """
    classes = edge_classes or {}
    lines = [f"graph {name} {{"]
    for v in range(graph.n):
        if v in graph.names:
            lines.append(f'  {v} [label="{graph.names[v]}"];')
    for u, v in graph.edges:
        cls = classes.get((u, v), "plain")
        lines.append(f'  {u} -- {v} [class="{cls}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
