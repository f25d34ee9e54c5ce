"""Command-line surface: machine-readable JSON on stdout, human summary on stderr.

Exit code 0 on any successful computation (a failing relation is data, not an
error); nonzero only on input or limit errors.
"""

from __future__ import annotations

import json
import os
import time

import click

from . import io
from .errors import WeakIasiError
from .graph import Graph, degree_stats, named_catalog, named_graph
from .labeling import verify_iasi
from .oracle import cross_validate
from .solvers import max_bipartite_subgraph, sparing_number_exact
from .theorems import run_all_checkers


def _graph_options(fn):
    fn = click.option("--named", "named", default=None, help="Name from the built-in corpus.")(fn)
    fn = click.option("--param", "param", type=int, default=None, help="Family parameter, e.g. cycle size.")(fn)
    fn = click.option(
        "--graph",
        "graph_path",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="Graph file (JSON or edge-list, autodetected).",
    )(fn)
    return fn


def _common_options(fn):
    fn = click.option("--json-indent", "json_indent", type=int, default=2, help="JSON indent; 0 for compact.")(fn)
    return fn


def _resolve_graph(named: str | None, param: int | None, graph_path: str | None) -> tuple[Graph, str]:
    if (named is None) == (graph_path is None):
        raise click.UsageError("provide exactly one of --named or --graph")
    if named is not None:
        graph = named_graph(named, param)
        label = named if param is None else f"{named}({param})"
    else:
        if param is not None:
            raise click.UsageError("--param only applies to --named families")
        graph = io.load_graph(graph_path)
        label = os.path.basename(graph_path)
    return graph, label


def _emit(report: dict, json_indent: int, summary: str) -> None:
    indent = json_indent if json_indent and json_indent > 0 else None
    click.echo(json.dumps(report, indent=indent, sort_keys=True))
    click.echo(summary, err=True)


def _run_report(command: str, label: str, graph: Graph, results: dict, timings: dict) -> dict:
    return {
        "command": command,
        "input": label,
        "graph": degree_stats(graph),
        "results": results,
        "timings_ms": {k: round(max(v, 0.0) * 1000.0, 3) for k, v in timings.items()},
    }


@click.group()
@click.version_option(package_name="weakiasi")
def main():
    """Weak additive set-labelings: exact sparing numbers, bipartization, relation checks."""


@main.command("sparing")
@_graph_options
@click.option("--labeling", "include_labeling", is_flag=True, help="Include the realizing labeling in the report.")
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False), default=None, help="Write DOT with mono edges classed.")
@_common_options
def cmd_sparing(named, param, graph_path, include_labeling, dot_path, json_indent):
    """Exact sparing number plus the edge bipartization number, with mismatch flag."""
    t0 = time.perf_counter()
    try:
        graph, label = _resolve_graph(named, param, graph_path)
        t1 = time.perf_counter()
        certificate = sparing_number_exact(graph)
        bipartization = max_bipartite_subgraph(graph)
        t2 = time.perf_counter()
    except (WeakIasiError, ValueError) as exc:
        raise click.ClickException(str(exc)) from None
    removal_count = graph.m - bipartization.b
    results = {
        "phi": certificate.phi,
        "bipartization_number": removal_count,
        "mismatch": certificate.phi != removal_count,
        "independent_set": list(certificate.independent_set),
        "mono_edges": [list(e) for e in certificate.mono_edges],
        "removed_edges": [list(e) for e in bipartization.removed_edges],
        "b": bipartization.b,
    }
    if include_labeling:
        results["labeling"] = certificate.labeling.to_json_dict()
    if dot_path:
        classes = {e: "mono" for e in certificate.mono_edges}
        with open(dot_path, "w", encoding="utf-8") as handle:
            handle.write(io.to_dot(graph, classes))
    report = _run_report(
        "sparing", label, graph, results, {"load": t1 - t0, "solve": t2 - t1, "total": t2 - t0}
    )
    _emit(
        report,
        json_indent,
        f"{label}: phi={certificate.phi} bipartization={removal_count} "
        f"mismatch={str(certificate.phi != removal_count).lower()}",
    )


@main.command("check-theorems")
@_graph_options
@_common_options
def cmd_check(named, param, graph_path, json_indent):
    """Run every applicable relation checker on one graph."""
    t0 = time.perf_counter()
    try:
        graph, label = _resolve_graph(named, param, graph_path)
        t1 = time.perf_counter()
        reports = run_all_checkers(graph)
        t2 = time.perf_counter()
    except (WeakIasiError, ValueError) as exc:
        raise click.ClickException(str(exc)) from None
    tally = {"holds": 0, "fails": 0, "not-applicable": 0}
    for r in reports:
        tally[r.verdict] += 1
    results = {"reports": [r.to_json_dict() for r in reports], "summary": tally}
    report = _run_report(
        "check-theorems", label, graph, results, {"load": t1 - t0, "check": t2 - t1, "total": t2 - t0}
    )
    _emit(
        report,
        json_indent,
        f"{label}: holds={tally['holds']} fails={tally['fails']} "
        f"not-applicable={tally['not-applicable']}",
    )


@main.command("named")
@_common_options
def cmd_named(json_indent):
    """Catalog of built-in graphs and families."""
    catalog = named_catalog()
    _emit(
        catalog,
        json_indent,
        f"{len(catalog['named'])} named graphs, {len(catalog['families'])} families",
    )


@main.command("oracle")
@_graph_options
@_common_options
def cmd_oracle(named, param, graph_path, json_indent):
    """Brute-force sparing number (n <= 7) cross-validated against the solver."""
    t0 = time.perf_counter()
    try:
        graph, label = _resolve_graph(named, param, graph_path)
        t1 = time.perf_counter()
        validation = cross_validate(graph)
        t2 = time.perf_counter()
    except (WeakIasiError, ValueError) as exc:
        raise click.ClickException(str(exc)) from None
    report = _run_report(
        "oracle",
        label,
        graph,
        validation.to_json_dict(),
        {"load": t1 - t0, "solve": t2 - t1, "total": t2 - t0},
    )
    _emit(
        report,
        json_indent,
        f"{label}: oracle={validation.oracle_phi} solver={validation.solver_phi} "
        f"agree={str(validation.agree).lower()}",
    )


@main.command("verify")
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--labeling", "labeling_path", type=click.Path(exists=True, dir_okay=False), required=True)
@_common_options
def cmd_verify(graph_path, labeling_path, json_indent):
    """Verify a user-supplied labeling against a graph."""
    t0 = time.perf_counter()
    try:
        graph = io.load_graph(graph_path)
        labeling = io.load_labeling(labeling_path)
        t1 = time.perf_counter()
        result = verify_iasi(graph, labeling)
        t2 = time.perf_counter()
    except (WeakIasiError, ValueError) as exc:
        raise click.ClickException(str(exc)) from None
    report = _run_report(
        "verify",
        os.path.basename(graph_path),
        graph,
        result.to_json_dict(),
        {"load": t1 - t0, "verify": t2 - t1, "total": t2 - t0},
    )
    _emit(
        report,
        json_indent,
        f"vertex_injective={str(result.vertex_injective).lower()} "
        f"edge_injective={str(result.edge_injective).lower()} weak={str(result.weak).lower()}",
    )


if __name__ == "__main__":
    main()
