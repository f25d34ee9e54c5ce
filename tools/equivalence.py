"""Compare every solver's answers, and the checkers' JSON, between two source trees.

    python tools/equivalence.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the ``weakiasi`` package, such as the
``src`` of a ``git archive`` copy. Each tree runs in its own process over the
same graphs: every graph with n = 2..6 and no isolated vertex, then the
distinct pool graphs of ``perfbench/corpus.py``. Per graph the solver answer
cache is cleared and a digest is kept of the ``repr`` of φ, max cut, α, β, χ
and ν (n <= 24), and of the ``run_all_checkers`` JSON (n <= 6). One line per
solver gives the graphs compared, how many differ and the first that does.
It reports data, not a verdict, and always exits 0.

Run with one SRC, it prints that tree's digests, one line per graph.
"""

import hashlib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOLVERS = ("phi", "max_cut", "alpha", "beta", "chi", "nu", "checkers")


def _digests(src: str) -> None:
    sys.path[:0] = [src, str(ROOT / "tests"), str(ROOT / "perfbench")]
    import corpus
    from helpers import all_graphs
    from weakiasi import build_graph, solvers
    from weakiasi.theorems import run_all_checkers

    graphs = [(str(g.edges), g) for n in range(2, 7) for g in all_graphs(n, connected=False)]
    pool = {}
    for case_id in (i for w in ("sparing", "theorems", "invariants") for i in corpus.pool(w)):
        case = corpus.build_case(case_id)
        pool.setdefault((case.n, case.edges), case_id)
    graphs += [(name, build_graph(n, edges)) for (n, edges), name in pool.items()]
    for name, g in graphs:
        solvers._per_component.cache_clear()
        answers = {
            "phi": solvers.sparing_number_exact(g),
            "max_cut": solvers.max_bipartite_subgraph(g),
            "alpha": solvers.independence_number(g),
            "beta": solvers.vertex_cover_number(g),
            "chi": solvers.chromatic_number(g),
            "nu": solvers.maximum_matching(g) if g.n <= 24 else None,
        }
        answers = {k: repr(v) for k, v in answers.items() if v is not None}
        if g.n <= 6:
            answers["checkers"] = json.dumps([r.to_json_dict() for r in run_all_checkers(g)], sort_keys=True)
        digests = {k: hashlib.sha256(v.encode()).hexdigest()[:16] for k, v in answers.items()}
        print(json.dumps([name, digests]))


def _rows(src: str) -> list:
    run = subprocess.run([sys.executable, __file__, src], stdout=subprocess.PIPE, text=True)
    return [json.loads(line) for line in run.stdout.splitlines()]


def _compare(old: str, new: str) -> None:
    with ThreadPoolExecutor(2) as pool:
        old_rows, new_rows = pool.map(_rows, (old, new))
    if len(old_rows) != len(new_rows):
        print(f"graph counts differ: {len(old_rows)} against {len(new_rows)}")
    rows = [(a, b, name) for (_, a), (name, b) in zip(old_rows, new_rows)]
    for solver in SOLVERS:
        compared = sum(solver in a or solver in b for a, b, _ in rows)
        differ = [name for a, b, name in rows if a.get(solver) != b.get(solver)]
        first = f", first {differ[0]}" if differ else ""
        print(f"{solver}: {compared} graphs compared, {len(differ)} differ{first}")


if __name__ == "__main__":
    if len(sys.argv) == 2:
        _digests(sys.argv[1])
    else:
        _compare(*sys.argv[1:3])
