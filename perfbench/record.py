#!/usr/bin/env python3
"""Record the reference answers: every graph that any seed can put into the
sparing, theorems and invariants corpora, solved by the current program.

    python3 perfbench/record.py

The answers in ``reference.json`` were recorded at the seed commit. Run this
again only when the corpus generator changes, and only at a commit whose
answers are trusted; a change that alters an answer is then visible as a diff
of that file. Each answer must pass the certificate checks before it is kept.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import corpus
import run

WORKLOADS = ("sparing", "theorems", "invariants")


def record(workload: str, directory: str) -> dict:
    from weakiasi import io as wio

    ids = corpus.pool(workload)
    cases = corpus.write_corpus(ids, directory)
    entries = {}
    for case_id in ids:
        path = corpus.graph_path(directory, case_id, 0)
        if workload == "invariants":
            status, _, answer = run.run_library(wio.load_graph(path), timeout=3600)
        else:
            status, _, output = run.run_cli_inprocess(run.CLI_ARGS[workload] + ["--graph", path], 3600)
            answer = output["results"] if status == "ok" else output
        problems = [answer] if status != "ok" else check.CHECKS[workload](cases[case_id], answer)
        if problems:
            raise SystemExit(f"{workload} {case_id}: {status} {problems}")
        entries[case_id] = {"graph": cases[case_id].digest(), **check.answer_key(workload, answer)}
        print(workload, case_id, file=sys.stderr, flush=True)
    return entries


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    directory = run.WORK / "record"
    try:
        reference = {w: record(w, str(directory / w)) for w in WORKLOADS}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    (run.BENCH / "reference.json").write_text(dumps(reference), encoding="utf-8")
    return 0


def dumps(reference: dict) -> str:
    """One case per line, so that a changed answer reads as a one-line diff."""
    lines = ["{"]
    for w, workload in enumerate(sorted(reference)):
        lines.append(f" {json.dumps(workload)}: {{")
        entries = sorted(reference[workload].items())
        for i, (case_id, entry) in enumerate(entries):
            comma = "," if i < len(entries) - 1 else ""
            lines.append(f"  {json.dumps(case_id)}: {json.dumps(entry, sort_keys=True)}{comma}")
        lines.append(" }" + ("," if w < len(reference) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
