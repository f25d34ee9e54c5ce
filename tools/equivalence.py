"""Compare every solver's answers, and the checkers' JSON, between two source trees.

    python tools/equivalence.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the ``weakiasi`` package, such as the
``src`` of a ``git archive`` copy. Each tree runs in its own process over the
same graphs: every graph with n = 2..6 and no isolated vertex, then the
distinct pool graphs of ``perfbench/corpus.py``. Per graph the solver answer
cache is cleared and a digest is kept of the ``repr`` of φ, max cut, α, β, χ
and ν, or of ``refused: <message>`` where a solver raises ``TooLargeError``,
and of the ``run_all_checkers`` JSON (n <= 6). One line per solver gives the
graphs compared, how many differ and the first that does.
Then each command line of ``INVOCATIONS`` runs once per tree, each in its own
``python -m weakiasi.cli`` process in a temporary working directory that
holds ``FILES``. One line gives the command lines compared and how many
differ, and one more line per difference names the command line and what
differs: exit code, stdout (``timings_ms`` emptied), stderr or a file it wrote.
It reports data, not a verdict, and always exits 0.

Run with one SRC, it prints that tree's digests, one line per graph.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOLVE = {
    "phi": "sparing_number_exact",
    "max_cut": "max_bipartite_subgraph",
    "alpha": "independence_number",
    "beta": "vertex_cover_number",
    "chi": "chromatic_number",
    "nu": "maximum_matching",
}
SOLVERS = (*SOLVE, "checkers")

FILES = {
    "c4.txt": "4 4\n0 1\n0 3\n1 2\n2 3\n",
    "c4.json": json.dumps({"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}),
    "petersen.json": json.dumps(
        {"n": 10, "edges": [e for i in range(5) for e in ((i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5))]}
    ),
    "k2.json": json.dumps({"n": 2, "edges": [[0, 1]]}),
    "named.json": json.dumps({"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]], "names": {"0": "a", "2": 'c"d'}}),
    "bad-names.json": json.dumps({"n": 2, "edges": [[0, 1]], "names": {"0": 5}}),
    "bad.txt": "3 2\n0 1\nx y\n",
    "broken.json": json.dumps({"vertex_labels": {"0": [0, 1], "1": [2, 3], "2": [7], "3": [9]}}),
    "malformed.json": json.dumps({"vertex_labels": {"0": 5}}),
    "outside.json": json.dumps({"vertex_labels": {str(v): [v] for v in (0, 1, 2, 3, 9)}}),
    "missing.json": json.dumps({"vertex_labels": {"0": [0]}}),
    "hostile.json": json.dumps({"vertex_labels": {"0": list(range(0, 6000, 2)), "1": list(range(1, 6000, 2))}}),
    "edge-int.json": json.dumps({"n": 2, "edges": [5]}),
    "edge-triple.json": json.dumps({"n": 3, "edges": [[0, 1, 2]]}),
    "no-edges.json": json.dumps({"n": 2}),
    "labels-list.json": json.dumps({"vertex_labels": [[0], [1], [2], [3]]}),
    "null-label.json": json.dumps({"vertex_labels": {"0": [0], "1": None, "2": [2], "3": [3]}}),
}
_ON_GRAPH = ("sparing", "check-theorems", "oracle")
# built.json holds the labeling that "sparing --named petersen --labeling" builds in the same tree
INVOCATIONS = [tuple(line.split()) for line in (
    "--version", "--help", *(f"{c} --help" for c in (*_ON_GRAPH, "verify", "named")),
    "named", "named --json-indent 0",
    # the oracle stops at 7 vertices, below every named graph
    *(f"{c} --named {g}" for c in _ON_GRAPH[:2] for g in ("petersen", "frucht", "grotzsch", "durer", "dodecahedron")),
    *(f"{c} --named {f} --param 5" for c in _ON_GRAPH for f in ("cycle", "path", "complete", "star")),
    "sparing --named CYCLE --param 5", "check-theorems --named cycle --param 26",
    "sparing --named petersen --labeling", "sparing --named cycle --param 5 --labeling --dot c5.dot",
    "sparing --graph named.json --dot named.dot",
    *(f"sparing --named petersen --json-indent {k}" for k in (0, 4, 16, -5)),
    *(f"{c} --graph {f}" for c in _ON_GRAPH for f in ("c4.txt", "c4.json", "petersen.json")),
    "verify --graph petersen.json --labeling built.json", "verify --graph c4.json --labeling broken.json",
    # exit 2: usage errors
    "", "-x sparing --named petersen", "-x sparing --nam petersen", "-x sparing -h", "-x -y named",
    "sparing", "sparing --param 5", "sparing --nam petersen",
    "sparing --named petersen --graph c4.txt", "sparing --named petersen --label", "verify --grap g.json",
    "sparing --named petersen --json-indent 17", "check-theorems --named frucht --threads 2", "named --threads 2",
    "sparing --graph c4.txt --param 4", *(f"{c} --graph ." for c in _ON_GRAPH), "sparing --named petersen --dot .",
    "sparing --graph absent.json", "verify --graph absent.json --labeling c4.json",
    *(f"verify --graph c4.json --labeling {f}" for f in ("absent.json", ".")),
    # exit 1: input and limit errors
    "sparing --named heawood", "sparing --named cycle --param 40", "oracle --named petersen",
    # each family's least size, and a parameter given where the solver limit does not apply
    *(f"sparing --named {f} --param {n}" for f, n in (("cycle", 2), ("path", 1), ("complete", 1), ("star", 0))),
    "check-theorems --named path --param 1", "oracle --named cycle --param 2", "sparing --named star --param -3",
    "sparing --named petersen --param 40", "sparing --named heawood --param 40",
    *(f"{c} --named complete --param 1000" for c in _ON_GRAPH), "sparing --named star --param 32",
    "sparing --graph bad-names.json",
    "sparing --named petersen --dot no-dir/out.dot", *(f"{c} --graph bad.txt" for c in _ON_GRAPH),
    "verify --graph bad.txt --labeling missing.json", "verify --graph k2.json --labeling hostile.json",
    *(f"verify --graph c4.json --labeling {f}" for f in ("c4.json", "malformed.json", "outside.json", "missing.json")),
    # malformed input that only the JSON structure check or a constructor refuses
    *(f"sparing --graph {f}" for f in ("edge-int.json", "edge-triple.json", "no-edges.json")),
    *(f"verify --graph c4.json --labeling {f}" for f in ("labels-list.json", "null-label.json")),
)]
_TIMINGS = re.compile(r'"timings_ms": \{[^{}]*\}')


def _digests(src: str) -> None:
    sys.path[:0] = [src, str(ROOT / "tests"), str(ROOT / "perfbench")]
    import corpus
    from helpers import all_graphs
    from weakiasi import TooLargeError, build_graph, solvers
    from weakiasi.theorems import run_all_checkers

    graphs = [(str(g.edges), g) for n in range(2, 7) for g in all_graphs(n, connected=False)]
    pool = {}
    for case_id in (i for w in ("sparing", "theorems", "invariants") for i in corpus.pool(w)):
        case = corpus.build_case(case_id)
        pool.setdefault((case.n, case.edges), case_id)
    graphs += [(name, build_graph(n, edges)) for (n, edges), name in pool.items()]
    for name, g in graphs:
        solvers._per_component.cache_clear()
        answers = {}
        for solver, solve in SOLVE.items():
            try:
                answers[solver] = repr(getattr(solvers, solve)(g))
            except TooLargeError as exc:
                answers[solver] = f"refused: {exc}"
        if g.n <= 6:
            answers["checkers"] = json.dumps([r.to_json_dict() for r in run_all_checkers(g)], sort_keys=True)
        digests = {k: hashlib.sha256(v.encode()).hexdigest()[:16] for k, v in answers.items()}
        print(json.dumps([name, digests]))


def _rows(src: str) -> list:
    run = subprocess.run([sys.executable, __file__, src], stdout=subprocess.PIPE, text=True)
    return [json.loads(line) for line in run.stdout.splitlines()]


def _files(directory: str) -> dict:
    return {p.name: p.read_text() for p in Path(directory).iterdir() if p.is_file()}


def _cli_rows(src: str) -> list:
    """Per command line of ``INVOCATIONS``: exit code, stdout, stderr and the files it wrote."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "COLUMNS": "80"}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)

        def run(args):
            command = [sys.executable, "-m", "weakiasi.cli", *args]
            return subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True)

        try:
            built = json.loads(run(("sparing", "--named", "petersen", "--labeling")).stdout)["results"]["labeling"]
        except (ValueError, KeyError, TypeError):
            built = None
        Path(tmp, "built.json").write_text(json.dumps(built))
        rows = []
        for args in INVOCATIONS:
            before = _files(tmp)
            out = run(args)
            written = {name: text for name, text in _files(tmp).items() if before.get(name) != text}
            stdout = _TIMINGS.sub('"timings_ms": {}', out.stdout)
            rows.append({"exit code": out.returncode, "stdout": stdout, "stderr": out.stderr, "files": written})
    return rows


def _compare(old: str, new: str) -> None:
    with ThreadPoolExecutor(2) as pool:
        old_rows, new_rows = pool.map(_rows, (old, new))
        old_cli, new_cli = pool.map(_cli_rows, (old, new))
    if len(old_rows) != len(new_rows):
        print(f"graph counts differ: {len(old_rows)} against {len(new_rows)}")
    rows = [(a, b, name) for (_, a), (name, b) in zip(old_rows, new_rows)]
    for solver in SOLVERS:
        compared = sum(solver in a or solver in b for a, b, _ in rows)
        differ = [name for a, b, name in rows if a.get(solver) != b.get(solver)]
        first = f", first {differ[0]}" if differ else ""
        print(f"{solver}: {compared} graphs compared, {len(differ)} differ{first}")
    differ = [(args, a, b) for args, a, b in zip(INVOCATIONS, old_cli, new_cli) if a != b]
    print(f"cli: {len(INVOCATIONS)} command lines compared, {len(differ)} differ")
    for args, a, b in differ:
        for part in (part for part in a if a[part] != b[part]):
            print(f"  weakiasi {' '.join(args)}: {part} {a[part]!r:.200} against {b[part]!r:.200}")


if __name__ == "__main__":
    if len(sys.argv) == 2:
        _digests(sys.argv[1])
    else:
        _compare(*sys.argv[1:3])
