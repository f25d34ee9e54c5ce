"""Definition-level brute force for tiny graphs: the ground truth the fast solver is checked against."""

from __future__ import annotations

from typing import NamedTuple

from .errors import TooLargeError
from .graph import Graph, _to_json
from .labeling import IasiLabeling, pattern_labeling, verify_iasi
from .solvers import SparingCertificate, sparing_number_exact

ORACLE_VERTEX_LIMIT = 7


def sparing_oracle(graph: Graph) -> tuple[int, IasiLabeling]:
    """Minimum mono-indexed edge count by enumerating every singleton/non-singleton pattern.

    Each of the 2^n patterns is turned into an actual labeling and judged
    purely by sumset verification; feasibility is rediscovered from the
    arithmetic, never assumed from an independence shortcut, which is what
    makes this an independent route to the optimum. The all-singleton pattern
    is always feasible, so a minimum always exists.
    """
    if graph.n > ORACLE_VERTEX_LIMIT:
        raise TooLargeError("sparing oracle", graph.n, ORACLE_VERTEX_LIMIT)
    best_count: int | None = None
    best_labeling: IasiLabeling | None = None
    for mask in range(1 << graph.n):
        pattern = [v for v in range(graph.n) if mask >> v & 1]
        labeling = pattern_labeling(graph, pattern)
        report = verify_iasi(graph, labeling)
        if not report.valid_weak:
            continue
        mono = sum(1 for k in report.edge_indexing_numbers.values() if k == 1)
        if best_count is None or mono < best_count:
            best_count, best_labeling = mono, labeling
    assert best_count is not None and best_labeling is not None
    return best_count, best_labeling


class CrossValidation(NamedTuple):
    agree: bool
    oracle_phi: int
    solver_phi: int
    oracle_labeling: IasiLabeling
    certificate: SparingCertificate

    to_json_dict = _to_json


def cross_validate(graph: Graph) -> CrossValidation:
    """Compare the brute-force optimum with the fast solver; both witnesses are kept."""
    oracle_phi, oracle_labeling = sparing_oracle(graph)
    certificate = sparing_number_exact(graph)
    return CrossValidation(
        agree=oracle_phi == certificate.phi,
        oracle_phi=oracle_phi,
        solver_phi=certificate.phi,
        oracle_labeling=oracle_labeling,
        certificate=certificate,
    )
