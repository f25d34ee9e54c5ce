"""Hypothesis settings and cold process-wide caches for the whole suite.

``derandomize`` makes every run draw the same examples, so a result does not
depend on the run; ``deadline=None`` keeps a slow phase of a shared host from
failing an example that is merely slow.
"""

import pytest
from hypothesis import settings

from weakiasi import labeling, solvers

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def cold_caches():
    """Empty the solver answer store and the ``spread_values`` table around each test.

    No test then reads answers that another test stored, and none hands warm
    caches to the tests after it, which would make their results and timings
    depend on the order the suite runs in.
    """
    solvers._per_component.cache_clear()
    labeling._spread_values.cache_clear()
    yield
    solvers._per_component.cache_clear()
    labeling._spread_values.cache_clear()
