"""Settings shared by the whole test suite.

Property tests run under a derandomized hypothesis profile: the examples are
derived from each test's source, so every run tests the same cases, and the
example count is bounded so the suite's run time is too.  No example database
is written and no per-example deadline applies (timings vary with the host).
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=50,
                          deadline=None, database=None)
settings.load_profile("tier1")
