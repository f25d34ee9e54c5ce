"""Answer checks that do not use the program's own code paths.

Each ``check_*`` function takes the benchmark's own copy of a graph (a
``corpus.Case``) and a decoded answer, and returns a list of problems; an
empty list means the answer is right. Certificates are checked directly:
independence, covering and properness by scanning edges, bipartiteness of the
kept edges by a breadth-first 2-colouring. Optimality, and the choice of the
lexicographically smallest witness, are checked against answers recorded from
the program at the seed commit: ``answer_key`` reduces an answer to the values
and a digest of its witnesses, which must equal the recorded entry.
"""

from __future__ import annotations

import hashlib
import json

THEOREM_ORDER = (
    "chromatic-class-formula",
    "chi-phi-gap",
    "matching-formula",
    "odd-cycle-decomposition",
    "cover-independence",
    "bipartization-equals-sparing",
)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def _edge_set(edges) -> set:
    return {tuple(e) for e in edges}


def _independence_problems(case, vertices, what: str) -> list[str]:
    inside = set(vertices)
    problems = []
    if len(inside) != len(vertices) or not inside <= set(range(case.n)):
        problems.append(f"{what} is not a set of vertices of the graph")
    clash = next((e for e in case.edges if e[0] in inside and e[1] in inside), None)
    if clash:
        problems.append(f"{what} holds both ends of edge {list(clash)}")
    return problems


def _two_colourable(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if colour[v] < 0:
                    colour[v] = colour[u] ^ 1
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


def check_sparing_certificate(case, phi, independent_set, mono_edges, labeling=None) -> list[str]:
    """Independent set, mono edges = edges avoiding it, phi = |mono|, label sizes."""
    problems = _independence_problems(case, independent_set, "independent set")
    inside = set(independent_set)
    avoiding = {e for e in case.edges if e[0] not in inside and e[1] not in inside}
    if _edge_set(mono_edges) != avoiding or len(mono_edges) != len(avoiding):
        problems.append("mono_edges is not the set of edges avoiding the independent set")
    if phi != len(avoiding):
        problems.append(f"phi={phi} but {len(avoiding)} edges avoid the independent set")
    if labeling is not None:
        labels = {int(v): lbl for v, lbl in labeling["vertex_labels"].items()}
        if set(labels) != set(range(case.n)):
            problems.append("labeling does not label every vertex exactly once")
        else:
            wrong = [v for v in range(case.n) if len(set(labels[v])) != (2 if v in inside else 1)]
            if wrong:
                problems.append(f"vertex {wrong[0]} has a label of the wrong size")
            singleton_edges = {e for e in case.edges if len(labels[e[0]]) == len(labels[e[1]]) == 1}
            if singleton_edges != _edge_set(mono_edges):
                problems.append("labeling's singleton-sum edges differ from mono_edges")
    return problems


def check_bipartization(case, b, removed_edges, bipartition=None) -> list[str]:
    """b + |removed| = m, removed edges are edges, the kept edges are bipartite."""
    problems = []
    removed = _edge_set(removed_edges)
    if len(removed) != len(removed_edges) or not removed <= set(case.edges):
        problems.append("removed_edges is not a set of edges of the graph")
    if b + len(removed_edges) != case.m:
        problems.append(f"b={b} plus {len(removed_edges)} removed edges is not m={case.m}")
    kept = [e for e in case.edges if e not in removed]
    if not _two_colourable(case.n, kept):
        problems.append("the kept edges contain an odd cycle")
    if bipartition is not None:
        side1 = set(bipartition[1])
        if sorted(list(bipartition[0]) + list(bipartition[1])) != list(range(case.n)):
            problems.append("bipartition does not split the vertex set")
        if any((u in side1) == (v in side1) for u, v in kept):
            problems.append("bipartition does not properly 2-colour the kept edges")
    return problems


def check_sparing_report(case, results) -> list[str]:
    """Results object of ``weakiasi sparing --labeling``."""
    problems = check_sparing_certificate(
        case, results["phi"], results["independent_set"], results["mono_edges"], results["labeling"]
    )
    problems += check_bipartization(case, results["b"], results["removed_edges"])
    removal = case.m - results["b"]
    if results["bipartization_number"] != removal:
        problems.append("bipartization_number is not m - b")
    if results["mismatch"] != (results["phi"] != removal):
        problems.append("mismatch flag disagrees with phi and m - b")
    return problems


def check_theorems_report(case, results) -> list[str]:
    """Results object of ``weakiasi check-theorems``."""
    reports = results["reports"]
    names = tuple(r["theorem"] for r in reports)
    if names != THEOREM_ORDER:
        return [f"checkers ran in order {names}, expected {THEOREM_ORDER}"]
    problems = []
    tally = {"holds": 0, "fails": 0, "not-applicable": 0}
    for r in reports:
        tally[r["verdict"]] += 1
        if r["verdict"] == "not-applicable":
            consistent = r["lhs"] is None and r["rhs"] is None
        else:
            consistent = r["verdict"] == ("holds" if r["lhs"] == r["rhs"] else "fails")
        if not consistent:
            problems.append(f"{r['theorem']}: verdict {r['verdict']} does not follow from lhs/rhs")
    if results["summary"] != tally:
        problems.append("summary tally does not match the reports")
    cover = reports[4]["witness"]
    problems += _cover_problems(case, cover["alpha"], cover["beta"], None)
    if not cover["cover_touches_every_edge"] or not cover["alpha_plus_beta_equals_n"]:
        problems.append("cover-independence witness flags a broken cover")
    witness = reports[5]["witness"]
    sparing = witness["sparing_certificate"]
    problems += check_sparing_certificate(
        case, sparing["phi"], sparing["independent_set"], sparing["mono_edges"], sparing["labeling"]
    )
    cut = witness["bipartization_certificate"]
    problems += check_bipartization(case, cut["b"], cut["removed_edges"], cut["bipartition"])
    return problems


def _cover_problems(case, alpha, beta, cover) -> list[str]:
    problems = []
    if alpha + beta != case.n:
        problems.append(f"alpha={alpha} + beta={beta} is not n={case.n}")
    if cover is not None:
        inside = set(cover)
        if len(cover) != beta or len(inside) != beta:
            problems.append(f"cover of {len(cover)} vertices reported with beta={beta}")
        if any(u not in inside and v not in inside for u, v in case.edges):
            problems.append("vertex cover misses an edge")
    return problems


def check_invariants(case, answer) -> list[str]:
    """Plain-data form of the library answers; see ``run.solve_invariants``."""
    problems = check_sparing_certificate(
        case, answer["phi"], answer["independent_set"], answer["mono_edges"]
    )
    problems += _independence_problems(case, answer["alpha_set"], "maximum independent set")
    if len(answer["alpha_set"]) != answer["alpha"]:
        problems.append("alpha differs from the size of its witness")
    problems += _cover_problems(case, answer["alpha"], answer["beta"], answer["cover"])
    classes = answer["classes"]
    if len(classes) != answer["chi"]:
        problems.append("chi differs from the number of colour classes")
    if sorted(v for c in classes for v in c) != list(range(case.n)):
        problems.append("colour classes do not partition the vertex set")
    for c in classes:
        problems += _independence_problems(case, c, "colour class")
    if "nu" in answer:
        matched = [v for e in answer["matching"] for v in e]
        if len(set(matched)) != len(matched) or not _edge_set(answer["matching"]) <= set(case.edges):
            problems.append("matching is not a set of disjoint edges of the graph")
        if len(answer["matching"]) != answer["nu"]:
            problems.append("nu differs from the size of its witness")
    return problems


CHECKS = {
    "sparing": check_sparing_report,
    "theorems": check_theorems_report,
    "invariants": check_invariants,
    "limits": check_sparing_report,
}


def answer_key(workload: str, answer) -> dict:
    """Values plus a digest of every witness, compared with ``reference.json``."""
    if workload == "sparing":
        witness = [answer[k] for k in ("independent_set", "mono_edges", "removed_edges", "labeling")]
        return {"phi": answer["phi"], "b": answer["b"], "witness": _digest(witness)}
    if workload == "theorems":
        reports = answer["reports"]
        return {
            "verdicts": [[r["verdict"], r["lhs"], r["rhs"]] for r in reports],
            "witness": _digest(reports),
        }
    values = {k: answer[k] for k in ("phi", "alpha", "beta", "chi", "nu") if k in answer}
    witness = [answer[k] for k in ("independent_set", "mono_edges", "alpha_set", "cover", "classes")]
    return {**values, "witness": _digest(witness + [answer.get("matching")])}


def closed_form_problems(case, results) -> list[str]:
    """Limit-size cases have no recorded answer; complete graphs have closed forms."""
    if not case.id.startswith("complete-"):
        return []
    n = case.n
    expected = {"phi": case.m - (n - 1), "b": (n * n) // 4}
    return [f"{k}={results[k]}, expected {v}" for k, v in expected.items() if results[k] != v]
