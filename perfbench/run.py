#!/usr/bin/env python3
"""Benchmark of the weakiasi CLI and library, end to end and layer by layer.

    python3 perfbench/run.py --workload sparing --seed 1 --seconds 25 --trace 0

Run from the repository root (any working directory works; paths are taken
from this file's location). ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` makes the per-layer run instead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the Python version,
CPU count and seed. A summary goes to standard error, and the per-case
records (and, when tracing, the spans) go to ``perfbench/.work/results``.
See README.md for the workloads and what each metric measures.

All load comes from this one process: a closed loop with one client, one
graph at a time, at most one child process at a time, no threads of its own.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

import check  # noqa: E402  (siblings of this file)
import corpus  # noqa: E402
import tracing  # noqa: E402

CASE_TIMEOUT_S = 10.0
PROBE_ITERATIONS = 20_000
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 1.0
# A fixed probe time, near the probe's time in a fast phase of the host the
# baseline was measured on (2-core x86-64, CPython 3.11.7); time metrics are
# reported as if every probe had taken this long.
PROBE_REFERENCE_MS = 3.5
MIN_GRAPHS = 200
MAX_LOOP_S = 120.0
SETUP_REPS = 5
# Enough rounds that a run rarely wraps around its sequence.
ROUNDS = {"sparing": 8, "theorems": 10, "invariants": 60, "limits": 1}
CLI_ARGS = {
    "sparing": ["sparing", "--labeling"],
    "theorems": ["check-theorems"],
    "limits": ["sparing", "--labeling"],
}
CHECKERS = (
    "check_chromatic_class_formula",
    "check_chi_phi_gap",
    "check_matching_formula",
    "check_odd_cycle_decomposition",
    "check_cover_theorems",
    "check_bipartization_theorem",
)
LAYER_MS = (
    "io.load_graph",
    "graph.build_graph",
    "graph.connected_components",
    "graph.induced_subgraph",
    "graph.decompose_into_cycles",
    "labeling.construct_labeling",
    *tracing.SOLVERS,
    *(f"theorems.{c}" for c in CHECKERS),
    "theorems.run_all_checkers",
)
LAYER_CALLS = (
    "io.load_graph",
    "graph.build_graph",
    "graph.connected_components",
    "labeling.construct_labeling",
    *tracing.SOLVERS,
)


class CaseTimeout(Exception):
    """Raised inside an in-process case when its timeout fires."""


@contextmanager
def alarm(seconds: float):
    def fire(signum, frame):
        raise CaseTimeout()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class HostProbe:
    """Times a fixed piece of pure-Python work between cases, at most every
    PROBE_INTERVAL_S: a dict of PROBE_ITERATIONS integer keys, built and read,
    so allocation and memory traffic as in the solvers' memo tables.

    The host is shared: other work slows every process on it by up to half,
    in phases from a second to minutes, and child CPU time grows in step with
    wall time. Measured against a fixed set of library calls and against a
    CLI process, the probe's time correlated 0.87 and 0.94 with theirs, with
    log-log slopes of 0.99 and 0.95 (a pure arithmetic loop gave 1.23 and
    1.35, so it under-corrected). Each time is therefore reported at the
    reference host speed: multiplied by ``scale(start, end)``, the reference
    probe time over the median probe time within PROBE_WINDOW_S of that
    interval. The probe never calls the program, so a change to the program
    moves the scaled times in full; the results file keeps the unscaled ones.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self.times: list[float] = []
        self.spent_s = 0.0
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start - self._last < PROBE_INTERVAL_S:
            return
        table = {}
        for i in range(PROBE_ITERATIONS):
            table[(i * 2654435761) & 0xFFFFFF] = i
        total = 0
        for key in table:
            total += table[key]
        self._last = time.perf_counter()
        self.samples_ms.append((self._last - start) * 1000.0)
        self.times.append(start)
        self.spent_s += self._last - start

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        return PROBE_REFERENCE_MS / statistics.median(self.samples_ms[lo:hi] or self.samples_ms)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# Running one case
# ---------------------------------------------------------------------------


# Runs weakiasi.cli as __main__ through runpy, as ``python -m weakiasi.cli``
# does, and at exit writes the process's own peak resident set (VmHWM) to
# standard error. The rusage of a child cannot give it: Linux carries the
# parent's peak across fork and exec, and this process is larger than the CLI.
CLI_LAUNCHER = """\
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        sys.stderr.write("".join(line for line in status if line.startswith("VmHWM:")))
atexit.register(peak)
runpy.run_module("weakiasi.cli", run_name="__main__", alter_sys=True)
"""


def run_command(argv: list[str], timeout: float):
    """Run one child process.

    Returns (status, wall seconds, stdout JSON or failure detail, the peak
    resident set in MB that the child reported, or None).
    """
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, f"no answer within {timeout} s", None
    wall = time.perf_counter() - start
    found = re.search(r"^VmHWM:\s+(\d+) kB", proc.stderr, re.MULTILINE)
    peak_mb = int(found.group(1)) / 1024.0 if found else None
    if proc.returncode != 0:
        return "error", wall, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}", peak_mb
    try:
        return "ok", wall, json.loads(proc.stdout), peak_mb
    except json.JSONDecodeError as exc:
        return "error", wall, f"unreadable output: {exc}", peak_mb


def run_cli(args: list[str], timeout: float = CASE_TIMEOUT_S):
    return run_command([sys.executable, "-c", CLI_LAUNCHER, *args], timeout)


def run_cli_inprocess(args: list[str], timeout: float = CASE_TIMEOUT_S):
    """The same command through ``main(..., standalone_mode=False)``."""
    from weakiasi.cli import main

    out = StringIO()
    start = time.perf_counter()
    try:
        with alarm(timeout), redirect_stdout(out), redirect_stderr(StringIO()):
            main.main(args=args, prog_name="weakiasi", standalone_mode=False)
    except CaseTimeout:
        return "timeout", time.perf_counter() - start, f"no answer within {timeout} s"
    except Exception as exc:  # any failure of the program is a failed case
        return "error", time.perf_counter() - start, repr(exc)
    return "ok", time.perf_counter() - start, json.loads(out.getvalue())


def solve_invariants(graph):
    """The library calls of the invariants workload, looked up at call time."""
    from weakiasi import solvers

    sparing = solvers.sparing_number_exact(graph)
    alpha = solvers.independence_number(graph)
    beta = solvers.vertex_cover_number(graph)
    chi = solvers.chromatic_number(graph)
    nu = solvers.maximum_matching(graph) if graph.n <= solvers.MATCHING_VERTEX_LIMIT else None
    return sparing, alpha, beta, chi, nu


def invariants_answer(raw) -> dict:
    sparing, (alpha, alpha_set), (beta, cover), (chi, classes), nu = raw
    answer = {
        "phi": sparing.phi,
        "independent_set": list(sparing.independent_set),
        "mono_edges": [list(e) for e in sparing.mono_edges],
        "alpha": alpha,
        "alpha_set": list(alpha_set),
        "beta": beta,
        "cover": list(cover),
        "chi": chi,
        "classes": [list(c) for c in classes],
    }
    if nu is not None:
        answer["nu"] = nu[0]
        answer["matching"] = [list(e) for e in nu[1]]
    return answer


def run_library(graph, timeout: float = CASE_TIMEOUT_S):
    start = time.perf_counter()
    try:
        with alarm(timeout):
            start = time.perf_counter()
            raw = solve_invariants(graph)
            wall = time.perf_counter() - start
    except CaseTimeout:
        return "timeout", timeout, f"no answer within {timeout} s"
    except Exception as exc:  # any failure of the program is a failed case
        return "error", time.perf_counter() - start, repr(exc)
    return "ok", wall, invariants_answer(raw)


def judge(workload: str, case, output, reference: dict) -> list[str]:
    """Problems with one answer: certificate checks, then the recorded answer."""
    answer = output if workload == "invariants" else output["results"]
    try:
        problems = check.CHECKS[workload](case, answer)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed answer: {exc!r}"]
    if workload == "limits":
        return problems + check.closed_form_problems(case, answer)
    entry = reference[workload].get(case.id)
    if entry is None or entry["graph"] != case.digest():
        return problems + ["no recorded answer for this graph"]
    expected = {k: v for k, v in entry.items() if k != "graph"}
    got = check.answer_key(workload, answer)
    if got != expected:
        problems.append(f"answer {got} differs from the recorded {expected}")
    return problems


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Corpus:
    """One workload's written corpus: the sequence, the cases and their files."""

    def __init__(self, workload: str, seed: int, directory: Path):
        self.workload = workload
        self.ids = corpus.sequence(workload, seed, ROUNDS[workload])
        self.directory = directory
        self.cases = corpus.write_corpus(self.ids + [corpus.WARMUP_ID], str(directory))
        self.graphs: dict[str, object] = {}

    def path(self, position: int) -> str:
        return corpus.graph_path(str(self.directory), self.ids[position % len(self.ids)], position)

    def cli_args(self, position: int) -> list[str]:
        return CLI_ARGS[self.workload] + ["--graph", self.path(position)]


def set_up(workload: str, seed: int, directory: Path, reference: dict) -> Corpus:
    """Generate and write the corpus, then one untimed warm-up of the program.

    The warm-up compiles the program's bytecode. For the CLI workloads it is
    one CLI call; for the library workload it is a fresh interpreter importing
    the library, plus loading every graph file through ``weakiasi.io``.
    """
    shutil.rmtree(directory, ignore_errors=True)
    written = Corpus(workload, seed, directory)
    warmup = written.cases[corpus.WARMUP_ID]
    warm_path = corpus.graph_path(str(directory), corpus.WARMUP_ID, 0)
    if workload == "invariants":
        subprocess.run(
            [sys.executable, "-c", "import weakiasi.io, weakiasi.solvers"],
            cwd=ROOT, env=_child_env(), check=True, timeout=CASE_TIMEOUT_S,
        )
        from weakiasi import io as wio

        for position, case_id in enumerate(written.ids):
            if case_id not in written.graphs:
                written.graphs[case_id] = wio.load_graph(written.path(position))
        status, _, output = run_library(wio.load_graph(warm_path))
        problems = [] if status != "ok" else check.check_invariants(warmup, output)
    else:
        status, _, output, _ = run_cli(CLI_ARGS[workload] + ["--graph", warm_path])
        problems = [] if status != "ok" else judge(
            "sparing" if workload == "limits" else workload, warmup, output, reference
        )
    if status != "ok" or problems:
        raise SystemExit(f"warm-up call failed: {status} {output if status != 'ok' else problems}")
    return written


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _record(position: int, case_id: str, status: str, wall: float, problems) -> dict:
    return {"position": position, "case": case_id, "status": status, "ms": wall * 1000.0,
            "detail": problems if status != "ok" else None}


def _one_case(written: Corpus, position: int, reference: dict, inprocess: bool = False):
    case_id = written.ids[position % len(written.ids)]
    case = written.cases[case_id]
    peak_mb = None
    if written.workload == "invariants":
        status, wall, output = run_library(written.graphs[case_id])
    elif inprocess:
        status, wall, output = run_cli_inprocess(written.cli_args(position))
    else:
        status, wall, output, peak_mb = run_cli(written.cli_args(position))
    detail = output
    if status == "ok":
        detail = judge(written.workload, case, output, reference)
        if detail:
            status = "wrong"
    record = _record(position, case_id, status, wall, detail)
    if peak_mb is not None:
        record["rss_mb"] = peak_mb
    if status == "ok" and "timings_ms" in output:
        record["timings_ms"] = output["timings_ms"]
    return record


def closed_loop(written: Corpus, seconds: float, min_graphs: int, reference: dict,
                probe=None, round_len: int = 1):
    """Run cases in sequence order until ``seconds`` and ``min_graphs`` are both
    reached, then on to the end of the round (of ``round_len`` cases).

    Returns the records and the loop's wall time less the time spent probing.
    """
    records = []
    probe = probe or HostProbe()
    probed = probe.spent_s
    start = time.perf_counter()
    position = 0
    while True:
        elapsed = time.perf_counter() - start
        done = position > 0 and elapsed >= seconds and position >= min_graphs and position % round_len == 0
        if done or elapsed >= MAX_LOOP_S:
            break
        t = time.perf_counter()
        records.append(_one_case(written, position, reference))
        records[-1]["t"] = t
        probe.sample()
        position += 1
    return records, time.perf_counter() - start - (probe.spent_s - probed)


def tally(records: list[dict]) -> dict:
    counts = {"ok": 0, "wrong": 0, "error": 0, "timeout": 0}
    for r in records:
        counts[r["status"]] += 1
    return counts


def fail_ratio(records: list[dict]) -> float:
    """Wrong answers, error exits and timeouts over attempted graphs."""
    return (len(records) - tally(records)["ok"]) / len(records)


def loop_scale(records: list[dict], scales: list[float]) -> float:
    """The cases' scales weighted by their wall time."""
    return sum(r["ms"] * k for r, k in zip(records, scales)) / sum(r["ms"] for r in records)


def end_to_end(records: list[dict], loop_s: float, setups: list[float], rss_mb: float,
               scaled: bool = True) -> dict:
    """Each time is multiplied by its ``scale`` (see HostProbe) unless ``scaled``
    is false. Percentiles interpolate between ranks; a failed graph counts as
    taking the case timeout, longer than any answered one."""
    scales = [r.get("scale", 1.0) if scaled else 1.0 for r in records]
    ceiling = CASE_TIMEOUT_S * 1000.0
    latencies = [
        min(r["ms"] * k, ceiling) if r["status"] == "ok" else ceiling
        for r, k in zip(records, scales)
    ]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "graphs_per_s": (tally(records)["ok"] / (loop_s * loop_scale(records, scales)), "1/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "setup_s": (statistics.median(s * (k if scaled else 1.0) for s, k in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def untraced_run(workload: str, seed: int, seconds: float, reference: dict, directory: Path):
    probe = HostProbe()
    setup_spans = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        written = set_up(workload, seed, directory, reference)
        setup_spans.append((start, time.perf_counter()))
        probe.sample(force=True)
    if workload == "limits":
        seconds, min_graphs = 0.0, 0
    else:
        min_graphs = MIN_GRAPHS
    round_len = len(corpus.SLOTS[workload])
    records, loop_s = closed_loop(written, seconds, min_graphs, reference, probe, round_len)
    for r in records:
        r["scale"] = probe.scale(r["t"], r["t"] + r["ms"] / 1000.0)
    setups = [(end - start, probe.scale(start, end)) for start, end in setup_spans]
    if workload == "invariants":
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mb = max((r["rss_mb"] for r in records if "rss_mb" in r), default=0.0)
    metrics = end_to_end(records, loop_s, setups, rss_mb)
    if workload == "limits":
        metrics["fail_ratio"] = (fail_ratio(records), "ratio")
    unscaled = end_to_end(records, loop_s, setups, rss_mb, scaled=False)
    extra = {
        "loop_s": loop_s,
        "setups": setups,
        "host_scale": loop_scale(records, [r["scale"] for r in records]),
        "probe_ms": probe.samples_ms,
        "probe_t": probe.times,
        "unscaled_metrics": {k: v for k, (v, _) in unscaled.items()},
    }
    return records, metrics, extra


def traced_run(workload: str, seed: int, seconds: float, reference: dict, directory: Path):
    """A CLI-process pass for the ``cli.*`` metrics, then every graph run
    in-process once untraced and once traced, in alternating order."""
    written = set_up(workload, seed, directory, reference)
    records: list[dict] = []
    cli_parts = {"overhead": [], "load": [], "solve": [], "check": []}
    if workload != "invariants":
        cli_records, _ = closed_loop(written, 0.4 * seconds, 0, reference)
        records += cli_records
        for r in cli_records:
            if r["status"] == "ok":
                timings = r["timings_ms"]
                cli_parts["overhead"].append(r["ms"] - timings["total"])
                for part in ("load", "solve", "check"):
                    cli_parts[part].append(timings.get(part, 0.0))
        budget = 0.6 * seconds
    else:
        budget = seconds
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    position = 0
    graph_cases: dict[int, str] = {}
    while time.perf_counter() - start < budget or position == 0:
        # Alternate which of the two goes first, so neither always finds
        # the caches warm from the other.
        runs = {}
        for traced in (False, True) if position % 2 == 0 else (True, False):
            if not traced:
                runs[traced] = _one_case(written, position, reference, inprocess=True)
                continue
            tracer.install()
            try:
                with tracer.graph_span(position):
                    runs[traced] = _one_case(written, position, reference, inprocess=True)
            finally:
                tracer.uninstall()
        records += [runs[False], runs[True]]
        graph_cases[position] = runs[False]["case"]
        plain_s += runs[False]["ms"] / 1000.0
        traced_s += runs[True]["ms"] / 1000.0
        position += 1
    summary = tracing.summarise(tracer.spans, position)
    metrics = layer_metrics(summary, cli_parts, traced_s / plain_s)
    by_graph = tracing.calls_by_graph(tracer.spans)
    extra = {
        "summary": summary,
        "solver_calls_by_case": {graph_cases[g]: calls for g, calls in sorted(by_graph.items())},
        "spans": tracer.spans,
    }
    return records, metrics, extra


def layer_metrics(summary: dict, cli_parts: dict, overhead_ratio: float) -> dict:
    graphs = summary["graphs"]
    mean = lambda values: statistics.fmean(values) if values else 0.0  # noqa: E731
    metrics = {
        "cli.overhead_ms": (mean(cli_parts["overhead"]), "ms"),
        "cli.load_ms": (mean(cli_parts["load"]), "ms"),
        "cli.solve_ms": (mean(cli_parts["solve"]), "ms"),
        "cli.check_ms": (mean(cli_parts["check"]), "ms"),
    }
    for name in LAYER_MS:
        metrics[f"{name}.ms"] = (summary["self_s"].get(name, 0.0) * 1000.0 / graphs, "ms")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0) / graphs, "calls/graph")
    cut_s = summary["self_s"].get("solvers.max_bipartite_subgraph", 0.0)
    metrics["solvers.max_bipartite_subgraph.share"] = (cut_s / summary["total_s"], "ratio")
    calls = summary["theorems_solver_calls"]
    metrics["theorems.solver_calls_per_graph"] = (calls / graphs, "calls/graph")
    metrics["theorems.distinct_solve_ratio"] = (
        summary["theorems_distinct_solves"] / calls if calls else 0.0, "ratio"
    )
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _write_results(name: str, payload: dict, spans) -> Path:
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if spans:
        index = {id(s): i for i, s in enumerate(spans)}
        t0 = spans[0][1]
        with open(out_dir / f"{name}-spans.jsonl", "w", encoding="utf-8") as handle:
            for s in spans:
                parent = index.get(id(s[3])) if s[3] is not None else None
                row = [s[0], round((s[1] - t0) * 1e6, 1), round((s[2] - t0) * 1e6, 1), parent, s[4]]
                handle.write(json.dumps(row) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weakiasi" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'weakiasi'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    directory = WORK / f"corpus-{args.workload}-{os.getpid()}"
    try:
        runner = traced_run if args.trace else untraced_run
        records, metrics, extra = runner(args.workload, args.seed, args.seconds, reference, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    counts = tally(records)
    spans = extra.pop("spans", None)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "graphs": len(records),
        "statuses": counts,
        "fail_ratio": fail_ratio(records),
        "host_scale": extra.get("host_scale"),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info["results_file"] = str(
        _write_results(name, {**info, **extra, "metrics": metrics, "records": records}, spans).relative_to(ROOT)
    )
    for key, (value, unit) in metrics.items():
        print(f"{key:45s} {value:14.4f} {unit}", file=sys.stderr)
    for r in records:
        if r["status"] != "ok":
            print(f"FAILED {r['case']}: {r['status']} {r['detail']}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": len(records),
        "failed": len(records) - counts["ok"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
