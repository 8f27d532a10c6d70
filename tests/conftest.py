"""Settings shared by every test module.

Hypothesis draws its examples from a seed derived from each test, so the
property tests check the same examples on every run and cannot flip the
gate between runs.  Per-test ``max_examples`` and ``deadline`` still apply.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
