"""Tests of the benchmark's own code: generator, answer checks, timeouts, tracing.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def _answer(tmp_path, workload: str, case_id: str):
    case = corpus.write_corpus([case_id], str(tmp_path))[case_id]
    status, _, output = run.run_cli_inprocess(
        run.CLI_ARGS[workload] + ["--graph", corpus.graph_path(str(tmp_path), case_id, 0)]
    )
    assert status == "ok", output
    return case, output


# -- generator ----------------------------------------------------------------


def test_generator_is_deterministic(tmp_path):
    for workload in ("sparing", "theorems", "invariants"):
        first = corpus.sequence(workload, 7, 3)
        assert first == corpus.sequence(workload, 7, 3)
        assert first != corpus.sequence(workload, 8, 3)
        corpus.write_corpus(first, str(tmp_path / "a"))
        corpus.write_corpus(list(reversed(first)), str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert not mismatch and not errors and len(match) == len(names)


def test_generator_imports_no_solver():
    code = "import sys, corpus; corpus.build_case('cubic-n30-i1'); print(any(m.startswith('weakiasi') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_corpus_graphs_are_valid_and_recorded():
    for workload in ("sparing", "theorems", "invariants"):
        for case_id in corpus.pool(workload):
            case = corpus.build_case(case_id)
            degrees = [0] * case.n
            for u, v in case.edges:
                assert 0 <= u < v < case.n
                degrees[u] += 1
                degrees[v] += 1
            assert all(degrees), case_id
            assert case.n <= 32, case_id
            if case_id.startswith("eulerian-"):
                assert all(d % 2 == 0 for d in degrees), case_id
            if case_id.startswith("cubic-"):
                assert set(degrees) == {3}, case_id
            assert REFERENCE[workload][case_id]["graph"] == case.digest(), case_id


def test_named_graphs_match_the_program():
    from weakiasi.graph import NAMED_GRAPHS, named_graph

    for name in NAMED_GRAPHS:
        case, graph = corpus.build_case(f"named-{name}"), named_graph(name)
        assert (case.n, case.edges) == (graph.n, graph.edges)


# -- answer checks --------------------------------------------------------------


def test_checker_accepts_recorded_answers(tmp_path):
    for workload, case_id in (("sparing", "named-dodecahedron"), ("theorems", "cycle-11")):
        case, output = _answer(tmp_path, workload, case_id)
        assert run.judge(workload, case, output, REFERENCE) == []


def test_checker_rejects_phi_off_by_one(tmp_path):
    case, output = _answer(tmp_path, "sparing", "named-petersen")
    tampered = copy.deepcopy(output)
    tampered["results"]["phi"] += 1
    assert check.check_sparing_report(case, tampered["results"])
    assert run.judge("sparing", case, tampered, REFERENCE)


def test_checker_rejects_removed_edges_leaving_an_odd_cycle(tmp_path):
    case, output = _answer(tmp_path, "sparing", "cycle-9")
    results = output["results"]
    assert check.check_sparing_report(case, results) == []
    # b + |removed| = m still holds, but the kept edges are the whole 9-cycle
    tampered = dict(results, b=results["b"] + 1, removed_edges=[], bipartization_number=0)
    problems = check.check_sparing_report(case, tampered)
    assert problems == ["the kept edges contain an odd cycle", "mismatch flag disagrees with phi and m - b"]


def test_checker_rejects_a_changed_witness(tmp_path):
    case, output = _answer(tmp_path, "theorems", "cycle-9")
    tampered = copy.deepcopy(output)
    tampered["results"]["reports"][0]["witness"]["largest_classes"].reverse()
    assert run.judge("theorems", case, tampered, REFERENCE)


def test_invariant_checks_catch_a_bad_cover_and_colouring(tmp_path):
    from weakiasi import io as wio

    case = corpus.write_corpus(["cycle-25"], str(tmp_path))["cycle-25"]
    status, _, answer = run.run_library(wio.load_graph(corpus.graph_path(str(tmp_path), "cycle-25", 1)))
    assert status == "ok" and run.judge("invariants", case, answer, REFERENCE) == []
    bad = copy.deepcopy(answer)
    bad["cover"] = bad["cover"][1:] + [bad["alpha_set"][0]]
    assert "vertex cover misses an edge" in check.check_invariants(case, bad)
    bad = copy.deepcopy(answer)
    bad["classes"][0] = bad["classes"][0] + bad["classes"][1][:1]
    bad["classes"][1] = bad["classes"][1][1:]
    assert any("colour class" in p for p in check.check_invariants(case, bad))


# -- timeouts -------------------------------------------------------------------


def test_timed_out_case_counts_as_failed(tmp_path, monkeypatch):
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    real = run.run_cli
    calls = []

    def first_times_out(args, timeout=run.CASE_TIMEOUT_S):
        calls.append(args)
        if len(calls) == 1:
            return run.run_command(sleeper, 0.3)
        return real(args, timeout)

    monkeypatch.setattr(run, "run_cli", first_times_out)
    written = run.Corpus("theorems", 3, tmp_path)
    records, loop_s = run.closed_loop(written, 0.0, 4, REFERENCE)
    assert [r["status"] for r in records] == ["timeout", "ok", "ok", "ok"]
    assert run.fail_ratio(records) == 0.25
    metrics = run.end_to_end(records, loop_s, [(0.1, 1.0)], 20.0)
    answered = max(r["ms"] for r in records if r["status"] == "ok")
    assert metrics["latency_p90_ms"][0] > answered
    assert metrics["graphs_per_s"][0] == 3 / loop_s


def test_cli_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(96 * 1024 * 1024)  # parent memory must not count
    ballast[::4096] = b"x" * len(ballast[::4096])
    corpus.write_corpus(["named-petersen"], str(tmp_path))
    path = corpus.graph_path(str(tmp_path), "named-petersen", 0)
    status, _, output, peak_mb = run.run_cli(run.CLI_ARGS["sparing"] + ["--graph", path])
    assert status == "ok" and output["results"]["phi"] == 3
    assert 5.0 < peak_mb < 64.0
    del ballast


def test_library_case_timeout():
    from weakiasi.graph import complete_graph

    status, wall, _ = run.run_library(complete_graph(24), timeout=0.001)
    assert (status, wall) == ("timeout", 0.001)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    if (BENCH.parent / "BENCHMARK.json").is_file():
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparing", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""


# -- tracing --------------------------------------------------------------------


def _traced(tmp_path, workload: str, case_ids):
    corpus.write_corpus(case_ids, str(tmp_path))
    tracer = tracing.Tracer()
    for graph_id, case_id in enumerate(case_ids):
        tracer.install()
        try:
            with tracer.graph_span(graph_id):
                if workload == "invariants":
                    from weakiasi import io as wio

                    graph = wio.load_graph(corpus.graph_path(str(tmp_path), case_id, 0))
                    status, _, answer = run.run_library(graph)
                else:
                    path = corpus.graph_path(str(tmp_path), case_id, graph_id)
                    status, _, answer = run.run_cli_inprocess(run.CLI_ARGS[workload] + ["--graph", path])
        finally:
            tracer.uninstall()
        assert status == "ok", answer
    return tracer


def test_traced_theorems_reproduce_the_cycle_call_pattern(tmp_path):
    cycles = ["cycle-9", "cycle-14", "cycle-21"]
    tracer = _traced(tmp_path, "theorems", cycles)
    by_graph = tracing.calls_by_graph(tracer.spans)
    assert sorted(by_graph) == list(range(len(cycles)))
    for graph_id, calls in by_graph.items():
        assert calls["solvers.sparing_number_exact"] == 5, cycles[graph_id]
        assert calls["solvers.chromatic_number"] == 2
        assert calls["solvers.independence_number"] == 2
        assert calls["solvers.max_bipartite_subgraph"] == 1
    summary = tracing.summarise(tracer.spans, len(cycles))
    # 13 solver calls on 6 distinct (solver, graph) pairs per cycle
    assert summary["theorems_solver_calls"] == 13 * len(cycles)
    assert summary["theorems_distinct_solves"] == 6 * len(cycles)
    checkers = [s for s in tracer.spans if s[0].startswith("theorems.check_")]
    assert len(checkers) == 6 * len(cycles)
    assert all(s[3][0] == "theorems.run_all_checkers" for s in checkers)


def test_traced_invariants_never_call_max_cut(tmp_path):
    tracer = _traced(tmp_path, "invariants", ["cycle-25", "random-n24-p0.35-i0"])
    calls = tracing.summarise(tracer.spans, 2)["calls"]
    assert "solvers.max_bipartite_subgraph" not in calls
    assert calls["solvers.sparing_number_exact"] == 2


def test_uninstall_restores_every_name():
    import weakiasi
    from weakiasi import cli, solvers, theorems

    before = (
        solvers.connected_components, solvers.independence_number, cli.sparing_number_exact,
        weakiasi.sparing_number_exact, theorems.GRAPH_CHECKERS, cli.main.commands["sparing"].callback,
    )
    tracer = tracing.Tracer()
    tracer.install()
    assert solvers.connected_components.__wrapped__ is before[0]
    assert cli.sparing_number_exact is not before[2]
    assert theorems.GRAPH_CHECKERS != before[4]
    tracer.uninstall()
    after = (
        solvers.connected_components, solvers.independence_number, cli.sparing_number_exact,
        weakiasi.sparing_number_exact, theorems.GRAPH_CHECKERS, cli.main.commands["sparing"].callback,
    )
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_children():
    parent = ["p", 0.0, 10.0, None, 0, None]
    a = ["a", 1.0, 4.0, parent, 0, None]
    b = ["b", 3.0, 6.0, parent, 0, None]  # overlaps a, as pool threads do
    own = tracing.self_times([parent, a, b])
    assert own[id(parent)] == pytest.approx(5.0)
    assert own[id(a)] == pytest.approx(3.0)
