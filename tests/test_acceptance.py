"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest -v -s tests/test_acceptance.py`` to see the lines as they print.
All expected values are exact integers; there are no tolerances anywhere.

Criterion 2's table once gave b = 15 for the Grötzsch graph (11 vertices,
20 edges). That number is m - phi = 20 - 5, the value the claimed identity
phi = m - b would predict, not the maximum cut. The maximum cut is 16: the
exhaustive ``brute_max_cut`` over all 2^10 bipartitions finds it, the explicit
bipartition {0, 3, 5, 6, 7, 8} | {1, 2, 4, 9, 10} cuts 16 of the 20 edges, and
``test_graph`` shows the graph is networkx's ``mycielski_graph(4)``, whose
exhaustive maximum cut is also 16. The criterion now checks every entry with
n <= 12 against ``brute_max_cut`` and the Grötzsch entry against that
bipartition before it compares the solver; the correction is recorded in
CHANGES.md.
"""

import itertools
import random

from weakiasi import (
    build_graph,
    chromatic_number,
    complete_graph,
    construct_labeling,
    cycle_graph,
    independence_number,
    max_bipartite_subgraph,
    maximum_matching,
    named_graph,
    path_graph,
    sparing_number_exact,
    sumset,
    verify_iasi,
    vertex_cover_number,
)
from weakiasi.oracle import sparing_oracle
from weakiasi.theorems import (
    check_cover_theorems,
    check_odd_cycle_decomposition,
    check_union_formula,
)

from helpers import (
    all_graphs,
    bipartization_problem,
    bowtie,
    brute_max_cut,
    random_connected_graph,
    random_independent_set,
    two_squares_sharing_vertex,
)

SEED = 20260809


def report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_named_sparing_table():
    expected = {"petersen": 3, "frucht": 3, "grotzsch": 5, "dodecahedron": 6}
    problems = []
    for name, want in expected.items():
        phi = sparing_number_exact(named_graph(name)).phi
        if phi != want:
            problems.append(f"{name}: phi={phi}, expected {want}")
    durer = named_graph("durer")
    phi_durer = sparing_number_exact(durer).phi
    removal_durer = durer.m - max_bipartite_subgraph(durer).b
    if removal_durer != 4:
        problems.append(f"durer: bipartization={removal_durer}, expected 4")
    mismatch_flag = phi_durer != removal_durer
    # the flag must reflect the actual comparison of the two reported values
    if mismatch_flag != (phi_durer != removal_durer):
        problems.append("durer: mismatch flag inconsistent")
    detail = (
        f"durer reports phi={phi_durer} and bipartization={removal_durer}, "
        f"mismatch flagged: {mismatch_flag}"
    )
    report(1, "named-graph sparing table", not problems, detail if not problems else "; ".join(problems))


def test_criterion_02_bipartization_table():
    expected = {"petersen": 12, "frucht": 15, "grotzsch": 16, "durer": 14, "dodecahedron": 24}
    # brute force over 2^(n-1) bipartitions; dodecahedron (n = 20) is solver-only
    brute_limit = 12
    problems = []
    values = []
    grotzsch = named_graph("grotzsch")
    side = {0, 3, 5, 6, 7, 8}
    hand_cut = sum(1 for u, v in grotzsch.edges if (u in side) != (v in side))
    if hand_cut != expected["grotzsch"]:
        problems.append(f"grotzsch: explicit bipartition cuts {hand_cut} edges")
    for name, want in expected.items():
        g = named_graph(name)
        if g.n <= brute_limit:
            brute = brute_max_cut(g)
            if brute != want:
                problems.append(f"{name}: brute-force max cut is {brute}, table expects {want}")
        cert = max_bipartite_subgraph(g)
        values.append(f"{name}: b={cert.b}")
        if cert.b + len(cert.removed_edges) != g.m:
            problems.append(f"{name}: b + |removed| != m")
        if cert.b != want:
            problems.append(
                f"{name}: exact max cut is {cert.b}, table expects {want}"
            )
    phi = sparing_number_exact(grotzsch).phi
    values.append(
        f"grotzsch reports phi={phi} and m - b={grotzsch.m - expected['grotzsch']}"
    )
    report(2, "bipartization table", not problems, "; ".join(problems or values))


def test_criterion_03_removal_certificates():
    problems = []
    for name in ("petersen", "frucht", "grotzsch", "durer", "dodecahedron"):
        g = named_graph(name)
        problem = bipartization_problem(g, max_bipartite_subgraph(g))
        if problem:
            problems.append(f"{name}: {problem}")
    report(3, "removal certificates", not problems, "" if problems else "all five graphs")


def test_criterion_04_path_cycle_formula_sweeps():
    problems = []
    for n in range(3, 21):
        cycle = cycle_graph(n)
        path = path_graph(n)
        phi_c = sparing_number_exact(cycle).phi
        phi_p = sparing_number_exact(path).phi
        if phi_c != (1 if n % 2 else 0):
            problems.append(f"cycle({n}): phi={phi_c}")
        if phi_p != 0:
            problems.append(f"path({n}): phi={phi_p}")
        if chromatic_number(cycle)[0] - phi_c != 2:
            problems.append(f"cycle({n}): chi - phi != 2")
        if chromatic_number(path)[0] - phi_p != 2:
            problems.append(f"path({n}): chi - phi != 2")
        if phi_c != (n + 1) // 2 - maximum_matching(cycle)[0]:
            problems.append(f"cycle({n}): matching formula")
    report(4, "path/cycle formula sweeps 3..20", not problems, "" if problems else "54 identities checked")


def test_criterion_05_oracle_equivalence():
    disagreements = []
    count = 0
    for n in (2, 3, 4, 5):
        for g in all_graphs(n, connected=True):
            count += 1
            oracle_phi = sparing_oracle(g)[0]
            solver_phi = sparing_number_exact(g).phi
            if oracle_phi != solver_phi:
                disagreements.append((g.n, g.edges, oracle_phi, solver_phi))
    assert count == 1 + 4 + 38 + 728
    rng = random.Random(SEED)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(6, 7), extra=rng.uniform(0.15, 0.6))
        oracle_phi = sparing_oracle(g)[0]
        solver_phi = sparing_number_exact(g).phi
        if oracle_phi != solver_phi:
            disagreements.append((g.n, g.edges, oracle_phi, solver_phi))
    report(
        5,
        "oracle equivalence",
        not disagreements,
        f"{count} exhaustive + 200 random graphs, {len(disagreements)} disagreements",
    )


def test_criterion_06_sumset_bounds_exhaustive():
    universe = range(8)
    pool = [
        c
        for size in (1, 2, 3, 4)
        for c in itertools.combinations(universe, size)
    ]
    violations = 0
    checked = 0
    for a in pool:
        for b in pool:
            s = len(sumset(a, b))
            checked += 1
            if not (max(len(a), len(b)) <= s <= len(a) * len(b)):
                violations += 1
            if len(a) >= 2 and len(b) >= 2 and s <= max(len(a), len(b)):
                violations += 1
    report(6, "sumset size bounds", violations == 0, f"{checked} pairs, {violations} violations")


def test_criterion_07_labeling_validity():
    rng = random.Random(SEED + 1)
    failures = 0
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(2, 12), extra=rng.uniform(0.1, 0.6))
        independent = random_independent_set(rng, g)
        labeling = construct_labeling(g, independent)
        if not verify_iasi(g, labeling).valid_weak:
            failures += 1
    report(7, "constructed labeling validity", failures == 0, f"500 instances, {failures} failures")


def test_criterion_08_union_formula_random_pairs():
    rng = random.Random(SEED + 2)
    holds = 0
    fails = []
    broken_reports = []
    for index in range(100):
        n1 = rng.randint(2, 6)
        n2 = rng.randint(2, 6)
        g1 = random_connected_graph(rng, n1, extra=rng.uniform(0.1, 0.5))
        g2 = random_connected_graph(rng, n2, extra=rng.uniform(0.1, 0.5))
        overlap = rng.randint(0, min(n1, n2))
        shared = dict(zip(rng.sample(range(n2), overlap), rng.sample(range(n1), overlap)))
        result = check_union_formula(g1, g2, shared=shared)
        if result.verdict != ("holds" if result.lhs == result.rhs else "fails"):
            broken_reports.append(index)
        witness_keys = {"phi_union", "phi_g1", "phi_g2", "phi_intersection"}
        if not witness_keys <= set(result.witness):
            broken_reports.append(index)
        if result.verdict == "holds":
            holds += 1
        else:
            fails.append((index, result.lhs, result.rhs, result.witness["phi_intersection"]))
        # additivity over disjoint parts must hold exactly
        if not shared and result.verdict != "holds":
            broken_reports.append(index)
    for index, lhs, rhs, inter in fails:
        print(f"    union-additivity failure surfaced: pair {index}: phi(union)={lhs}, formula={rhs}")
    report(
        8,
        "union formula over random pairs",
        not broken_reports,
        f"{holds} hold, {len(fails)} fail (surfaced above), all verdicts recomputable",
    )


def test_criterion_09_eulerian_decomposition():
    problems = []
    bow = check_odd_cycle_decomposition(bowtie())
    if (bow.lhs, bow.rhs, bow.verdict) != (2, 2, "holds"):
        problems.append(f"bowtie: {bow.lhs} vs {bow.rhs} ({bow.verdict})")
    k5 = check_odd_cycle_decomposition(complete_graph(5))
    if (k5.lhs, k5.rhs) != (6, 4) or k5.verdict != "fails":
        problems.append(f"complete(5): {k5.lhs} vs {k5.rhs} ({k5.verdict})")
    counter = check_odd_cycle_decomposition(two_squares_sharing_vertex())
    if counter.witness["matching_additive_over_cycles"] is not False:
        problems.append("two even cycles: matching additivity unexpectedly held")
    if counter.verdict != "not-applicable":
        problems.append("two even cycles: expected the hypothesis gate")
    detail = (
        f"bowtie holds (2 = 2); complete(5) compared (phi=6 vs formula 4); "
        f"even-cycle counterexample breaks matching additivity"
    )
    report(9, "eulerian decomposition checks", not problems, detail if not problems else "; ".join(problems))


def test_criterion_10_cover_independence():
    problems = []
    test_graphs = [named_graph(name) for name in ("petersen", "frucht", "grotzsch", "durer", "dodecahedron")]
    test_graphs += [cycle_graph(n) for n in range(3, 21)]
    test_graphs += [path_graph(n) for n in range(3, 21)]
    test_graphs += [bowtie(), complete_graph(5), two_squares_sharing_vertex()]
    rng = random.Random(SEED + 3)
    test_graphs += [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(30)]
    for g in test_graphs:
        alpha, _ = independence_number(g)
        beta, _ = vertex_cover_number(g)
        if alpha + beta != g.n:
            problems.append(f"{g}: alpha + beta != n")
    for name in ("petersen", "frucht", "grotzsch", "durer", "dodecahedron"):
        g = named_graph(name)
        result = check_cover_theorems(g)
        alpha = result.witness["alpha"]
        if result.lhs != g.n - alpha or result.verdict != "holds":
            problems.append(f"{name}: mono vertex count {result.lhs} != n - alpha")
    report(
        10,
        "cover/independence identities",
        not problems,
        f"{len(test_graphs)} graphs for alpha+beta=n; mono vertex counts on all named graphs",
    )
