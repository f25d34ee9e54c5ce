"""In-memory spans around the public functions of the program's layers.

``Tracer.install`` replaces every public function of ``weakiasi.io``,
``graph``, ``labeling``, ``solvers`` and ``theorems`` by a wrapper, at every
module attribute that names it (``solvers.connected_components``,
``cli.sparing_number_exact``, the package re-exports, ...), replaces the
``theorems.GRAPH_CHECKERS`` tuple, whose function objects
``run_all_checkers`` calls directly, and wraps each CLI command callback.
``uninstall`` puts every original back.

A span is ``[name, start, end, parent, graph, key]``. The checker thread
pool does not carry context across threads, so a span that opens on a thread
with no open span of its own takes as parent the innermost open span of the
thread running the graph, and every span takes the graph id set by
``graph_span``: the benchmark runs one graph at a time.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("io", "graph", "labeling", "solvers", "theorems")
SOLVERS = (
    "solvers.sparing_number_exact",
    "solvers.max_bipartite_subgraph",
    "solvers.maximum_matching",
    "solvers.chromatic_number",
    "solvers.independence_number",
    "solvers.vertex_cover_number",
)
ROOT = "graph"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.graph: int | None = None
        self._local = threading.local()
        self._owner: list = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, key=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else (self._owner[-1] if self._owner else None)
        span = [name, time.perf_counter(), 0.0, parent, self.graph, key]
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def graph_span(self, graph_id: int):
        """Root span of one graph; spans from pool threads attach below it."""
        self.graph = graph_id
        self._owner = self._stack()
        span = self._open(ROOT)
        try:
            yield span
        finally:
            self._close(span)
            self.graph = None

    def _wrap(self, name: str, fn):
        tracer = self
        keyed = name in SOLVERS

        def traced(*args, **kwargs):
            key = args[0].edges if keyed and args else None
            span = tracer._open(name, key)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"weakiasi.{layer}")
                for attr, obj in vars(module).items():
                    if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                        continue
                    if getattr(obj, "__module__", None) == module.__name__:
                        self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "weakiasi" or name.startswith("weakiasi.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        theorems = sys.modules["weakiasi.theorems"]
        checkers = tuple(self._wrappers[id(c)][1] for c in theorems.GRAPH_CHECKERS)
        self._patch(theorems, "GRAPH_CHECKERS", checkers)
        cli = importlib.import_module("weakiasi.cli")
        for command_name, command in cli.main.commands.items():
            self._patch(command, "callback", self._wrap(f"cli.{command_name}", command.callback))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- aggregation --------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[id(span[3])].append(span)
    out = {}
    for span in spans:
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for child in sorted(children.get(id(span), ()), key=lambda s: s[1]):
            lo, hi = max(child[1], reach), min(child[2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(span)] = (end - start) - covered
    return out


def _under_theorems(span: list) -> bool:
    parent = span[3]
    while parent is not None:
        if parent[0].startswith("theorems."):
            return True
        parent = parent[3]
    return False


def summarise(spans: list[list], graphs: int) -> dict:
    """Per-name self time and call totals, plus the theorems-layer solver calls."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total_s = 0.0
    layered_calls = 0
    distinct = set()
    for span in spans:
        name = span[0]
        if name == ROOT:
            total_s += span[2] - span[1]
            continue
        self_s[name] += own[id(span)]
        calls[name] += 1
        if name in SOLVERS and _under_theorems(span):
            layered_calls += 1
            distinct.add((name, span[4], span[5]))
    return {
        "graphs": graphs,
        "total_s": total_s,
        "self_s": dict(self_s),
        "calls": dict(calls),
        "theorems_solver_calls": layered_calls,
        "theorems_distinct_solves": len(distinct),
    }


def calls_by_graph(spans: list[list], names=SOLVERS) -> dict[int, dict[str, int]]:
    """Call counts of the named functions on each graph id."""
    out: dict[int, dict[str, int]] = defaultdict(lambda: dict.fromkeys(names, 0))
    for span in spans:
        if span[0] in names:
            out[span[4]][span[0]] += 1
    return dict(out)
