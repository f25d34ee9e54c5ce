"""Command-line surface: machine-readable JSON on stdout, human summary on stderr.

Exit code 0 on any successful computation (a failing relation is data, not an
error); nonzero only on input or limit errors.
"""

from __future__ import annotations

import json
import os
import time

import click

from . import __version__, io
from .errors import TooLargeError, WeakIasiError
from .graph import GRAPH_FAMILIES, Graph, degree_stats, named_catalog, named_graph
from .solvers import SOLVER_VERTEX_LIMIT, max_bipartite_subgraph, sparing_number_exact

# theorems and oracle are imported only by the commands that call them

# what any command reports as an "Error:" line with exit code 1, in _Main.invoke
_INPUT_ERRORS = (WeakIasiError, ValueError, OSError)

_INPUT_FILE = click.Path(exists=True, dir_okay=False)
_json_indent = click.option("--json-indent", type=int, default=2, help="JSON indent; 0 for compact.")


def _graph_options(fn):
    fn = click.option("--named", help="Name from the built-in corpus.")(fn)
    fn = click.option("--param", type=int, help="Family parameter, e.g. cycle size.")(fn)
    fn = click.option(
        "--graph", "graph_path", type=_INPUT_FILE, help="Graph file (JSON or edge-list, autodetected)."
    )(fn)
    return fn


def _resolve_graph(named: str | None, param: int | None, graph_path: str | None) -> tuple[Graph, str]:
    if (named is None) == (graph_path is None):
        raise click.UsageError("provide exactly one of --named or --graph")
    if graph_path is not None:
        if param is not None:
            raise click.UsageError("--param only applies to --named families")
        return io.load_graph(graph_path), os.path.basename(graph_path)
    key = named.strip().lower()
    if key in GRAPH_FAMILIES and param is not None:
        # every --named command stops at the solver limit, so refuse a family
        # member above it before building it: complete(n) has n(n-1)/2 edges
        order = param + 1 if key == "star" else param
        if order > SOLVER_VERTEX_LIMIT:
            raise TooLargeError(f"--named {key}", order, SOLVER_VERTEX_LIMIT)
    return named_graph(named, param), key if param is None else f"{key}({param})"


def _flag(value: bool) -> str:
    return str(value).lower()


def _emit(payload: dict, json_indent: int, summary: str) -> None:
    click.echo(json.dumps(payload, indent=json_indent if json_indent > 0 else None, sort_keys=True))
    click.echo(summary, err=True)


def _report(
    command: str, label: str, graph: Graph, results: dict, timings: dict, json_indent: int, summary: str
) -> None:
    report = {
        "command": command,
        "input": label,
        "graph": degree_stats(graph),
        "results": results,
        "timings_ms": {k: round(max(v, 0.0) * 1000.0, 3) for k, v in timings.items()},
    }
    _emit(report, json_indent, summary)


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # stdout closed by its reader: click exits 1 without an Error line
        except _INPUT_ERRORS as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Weak additive set-labelings: exact sparing numbers, bipartization, relation checks."""


@main.command("sparing")
@_graph_options
@click.option("--labeling", "include_labeling", is_flag=True, help="Include the realizing labeling in the report.")
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False), help="Write DOT with mono edges classed.")
@_json_indent
def cmd_sparing(named, param, graph_path, include_labeling, dot_path, json_indent):
    """Exact sparing number plus the edge bipartization number, with mismatch flag."""
    t0 = time.perf_counter()
    graph, label = _resolve_graph(named, param, graph_path)
    t1 = time.perf_counter()
    certificate = sparing_number_exact(graph)
    t2 = time.perf_counter()
    bipartization = max_bipartite_subgraph(graph)
    t3 = time.perf_counter()
    if dot_path:
        with open(dot_path, "w", encoding="utf-8") as handle:
            handle.write(io.to_dot(graph, {e: "mono" for e in certificate.mono_edges}))
    removal_count = graph.m - bipartization.b
    mismatch = certificate.phi != removal_count
    results = {
        "phi": certificate.phi,
        "bipartization_number": removal_count,
        "mismatch": mismatch,
        "independent_set": certificate.independent_set,
        "mono_edges": certificate.mono_edges,
        "removed_edges": bipartization.removed_edges,
        "b": bipartization.b,
    }
    if include_labeling:
        results["labeling"] = certificate.labeling.to_json_dict()
    timings = {"load": t1 - t0, "sparing": t2 - t1, "max_cut": t3 - t2, "solve": t3 - t1, "total": t3 - t0}
    summary = f"{label}: phi={certificate.phi} bipartization={removal_count} mismatch={_flag(mismatch)}"
    _report("sparing", label, graph, results, timings, json_indent, summary)


@main.command("check-theorems")
@_graph_options
@_json_indent
def cmd_check(named, param, graph_path, json_indent):
    """Run every applicable relation checker on one graph."""
    from .theorems import run_all_checkers
    t0 = time.perf_counter()
    graph, label = _resolve_graph(named, param, graph_path)
    t1 = time.perf_counter()
    reports = run_all_checkers(graph)
    t2 = time.perf_counter()
    tally = {"holds": 0, "fails": 0, "not-applicable": 0}
    for r in reports:
        tally[r.verdict] += 1
    results = {"reports": [r.to_json_dict() for r in reports], "summary": tally}
    timings = {"load": t1 - t0, "check": t2 - t1, "total": t2 - t0}
    summary = f"{label}: holds={tally['holds']} fails={tally['fails']} not-applicable={tally['not-applicable']}"
    _report("check-theorems", label, graph, results, timings, json_indent, summary)


@main.command("named")
@_json_indent
def cmd_named(json_indent):
    """Catalog of built-in graphs and families."""
    catalog = named_catalog()
    _emit(catalog, json_indent, f"{len(catalog['named'])} named graphs, {len(catalog['families'])} families")


@main.command("oracle")
@_graph_options
@_json_indent
def cmd_oracle(named, param, graph_path, json_indent):
    """Brute-force sparing number (n <= 7) cross-validated against the solver."""
    from .oracle import cross_validate
    t0 = time.perf_counter()
    graph, label = _resolve_graph(named, param, graph_path)
    t1 = time.perf_counter()
    validation = cross_validate(graph)
    t2 = time.perf_counter()
    timings = {"load": t1 - t0, "solve": t2 - t1, "total": t2 - t0}
    summary = (
        f"{label}: oracle={validation.oracle_phi} solver={validation.solver_phi} "
        f"agree={_flag(validation.agree)}"
    )
    _report("oracle", label, graph, validation.to_json_dict(), timings, json_indent, summary)


@main.command("verify")
@click.option("--graph", "graph_path", type=_INPUT_FILE, required=True)
@click.option("--labeling", "labeling_path", type=_INPUT_FILE, required=True)
@_json_indent
def cmd_verify(graph_path, labeling_path, json_indent):
    """Verify a user-supplied labeling against a graph."""
    from .labeling import verify_iasi
    t0 = time.perf_counter()
    graph = io.load_graph(graph_path)
    labeling = io.load_labeling(labeling_path)
    t1 = time.perf_counter()
    result = verify_iasi(graph, labeling)
    t2 = time.perf_counter()
    summary = (
        f"vertex_injective={_flag(result.vertex_injective)} "
        f"edge_injective={_flag(result.edge_injective)} weak={_flag(result.weak)}"
    )
    timings = {"load": t1 - t0, "verify": t2 - t1, "total": t2 - t0}
    _report("verify", os.path.basename(graph_path), graph, result.to_json_dict(), timings, json_indent, summary)


if __name__ == "__main__":
    main()
