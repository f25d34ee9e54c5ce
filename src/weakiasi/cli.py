"""Command-line surface: machine-readable JSON on stdout, human summary on stderr.

Exit code 0 on any successful computation (a failing relation is data, not an
error); 1 on an input or limit error, with an ``Error:`` line, or when the
reader of stdout has gone; 2 on a usage error, such as a ``--graph`` or
``--labeling`` path that is missing or a directory.

``main`` is an object so that perfbench can drive and trace it in-process:
``main.commands[name].callback`` is looked up at each dispatch, and
``main.main(args, prog_name, standalone_mode=False)`` raises every failure,
usage errors included. Each command line builds one parser and keeps none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, io
from .errors import TooLargeError, WeakIasiError
from .graph import _FAMILIES, Graph, degree_stats, named_catalog, named_graph
from .solvers import SOLVER_VERTEX_LIMIT, max_bipartite_subgraph, sparing_number_exact

# theorems and oracle are imported only by the commands that call them

# what any command reports as an "Error:" line with exit code 1, in _Main.main
_INPUT_ERRORS = (WeakIasiError, ValueError, OSError)


class UsageError(Exception):
    """A command line the parser refuses (exit code 2); the message starts with the usage line."""


class _Parser(argparse.ArgumentParser):
    # argparse's own error() exits; raising lets main(standalone_mode=False) raise it
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _path(must_exist: bool):
    """An argparse type for a file path: a directory, or a missing input, is a usage error."""

    def check(path: str) -> str:
        if os.path.isdir(path):
            raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
        if must_exist and not os.path.exists(path):
            raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
        return path

    return check


def _option(*flags, **kwargs):
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _graph_source(parser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--named", metavar="NAME", help="Name from the built-in corpus.")
    source.add_argument(
        "--graph", dest="graph_path", metavar="FILE", type=_path(True),
        help="Graph file (JSON or edge-list, autodetected).",
    )
    parser.add_argument("--param", metavar="N", type=int, help="Family parameter, e.g. cycle size.")


# the output grows with the indent: 10**9 would ask for some 10**11 bytes
_MAX_JSON_INDENT = 16
_json_indent = _option(
    "--json-indent", metavar="N", type=int, default=2, help=f"JSON indent, at most {_MAX_JSON_INDENT}; 0 for compact."
)


class _Command:
    """One subcommand: its help, its options, and the function that runs it."""

    def __init__(self, callback, options):
        self.callback = callback
        self.help = callback.__doc__
        self.options = options


class _Main:
    """The ``weakiasi`` program: subcommands by name, and one dispatch that builds one parser per command line."""

    def __init__(self, description: str):
        self.description = description
        self.commands: dict[str, _Command] = {}

    def command(self, name: str, *options):
        def register(fn):
            self.commands[name] = _Command(fn, options)
            return fn

        return register

    def _run(self, args, prog: str):
        args = sys.argv[1:] if args is None else list(args)
        command = self.commands.get(args[0]) if args else None
        if command is None:
            parser = _Parser(prog=prog, description=self.description, allow_abbrev=False)
            parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
            subparsers = parser.add_subparsers(required=True, metavar="COMMAND")
            for name, stub in self.commands.items():
                subparsers.add_parser(name, help=stub.help)
            # prints the help or the version, or refuses the line up to its first command: the stubs know no options
            parser.parse_args(args[: next((i + 1 for i, word in enumerate(args) if word in self.commands), None)])
            parser.error("the command must come first")
        parser = _Parser(prog=f"{prog} {args[0]}", description=command.help, allow_abbrev=False)
        for add in command.options:
            add(parser)
        try:
            params = vars(parser.parse_args(args[1:]))
        except UsageError:
            # argparse names a missing required option before an unknown one: look again with none required
            lifted = [item for item in (*parser._actions, *parser._mutually_exclusive_groups) if item.required]
            for item in lifted:
                item.required = False
            try:
                unknown = parser.parse_known_args(args[1:])[1]
            except UsageError:
                unknown = []
            for item in lifted:  # required again in the usage line
                item.required = True
            if unknown:
                parser.error(f"unrecognized arguments: {' '.join(unknown)}")
            raise
        if params.get("param") is not None and params.get("named") is None:
            parser.error("--param only applies to --named families")
        if params.get("json_indent", 0) > _MAX_JSON_INDENT:
            parser.error(f"--json-indent is at most {_MAX_JSON_INDENT}")
        return command.callback(**params)

    def main(self, args=None, prog_name=None, standalone_mode=True):
        """Run one command line (``args`` defaults to ``sys.argv[1:]``).

        With ``standalone_mode`` a failure prints its message and exits with
        its code; without it, the failure is raised.
        """
        prog = prog_name or "weakiasi"
        if not standalone_mode:
            return self._run(args, prog)
        try:
            return self._run(args, prog)
        except UsageError as exc:
            sys.stderr.write(f"{exc}\n")
            sys.exit(2)
        except BrokenPipeError:
            # stdout's reader has gone: exit 1 without an Error line, and let
            # the interpreter's final flush write to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except _INPUT_ERRORS as exc:
            sys.stderr.write(f"Error: {exc}\n")
            sys.exit(1)

    __call__ = main


main = _Main("Weak additive set-labelings: exact sparing numbers, bipartization, relation checks.")


def _resolve_graph(named: str | None, param: int | None, graph_path: str | None) -> tuple[Graph, str]:
    if graph_path is not None:
        return io.load_graph(graph_path), os.path.basename(graph_path)
    key = named.strip().lower()
    if key in _FAMILIES and param is not None:
        # every --named command stops at the solver limit, so refuse a family
        # member above it before building it: complete(n) has n(n-1)/2 edges,
        # and a member has _FAMILIES[key][1] vertices beyond n
        order = param + _FAMILIES[key][1]
        if order > SOLVER_VERTEX_LIMIT:
            raise TooLargeError(f"--named {key}", order, SOLVER_VERTEX_LIMIT)
    return named_graph(named, param), key if param is None else f"{key}({param})"


def _flag(value: bool) -> str:
    return str(value).lower()


def _emit(payload: dict, json_indent: int, summary: str) -> None:
    # flushed here, so a closed stdout raises inside main's dispatch
    print(json.dumps(payload, indent=json_indent if json_indent > 0 else None, sort_keys=True), flush=True)
    print(summary, file=sys.stderr, flush=True)


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


@main.command(
    "sparing",
    _graph_source,
    _option("--labeling", dest="include_labeling", action="store_true",
            help="Include the realizing labeling in the report."),
    _option("--dot", dest="dot_path", metavar="FILE", type=_path(False), help="Write DOT with mono edges classed."),
    _json_indent,
)
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


@main.command("check-theorems", _graph_source, _json_indent)
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


@main.command("named", _json_indent)
def cmd_named(json_indent):
    """Catalog of built-in graphs and families."""
    catalog = named_catalog()
    _emit(catalog, json_indent, f"{len(catalog['named'])} named graphs, {len(catalog['families'])} families")


@main.command("oracle", _graph_source, _json_indent)
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


@main.command(
    "verify",
    _option("--graph", dest="graph_path", metavar="FILE", type=_path(True), required=True, help="Graph file."),
    _option("--labeling", dest="labeling_path", metavar="FILE", type=_path(True), required=True,
            help="Labeling JSON file."),
    _json_indent,
)
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
