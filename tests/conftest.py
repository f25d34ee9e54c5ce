"""Hypothesis settings for the whole suite.

``derandomize`` makes every run draw the same examples, so a result does not
depend on the run; ``deadline=None`` keeps a slow phase of a shared host from
failing an example that is merely slow.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
