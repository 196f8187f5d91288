"""Shared test configuration.

Hypothesis property tests run without a per-example deadline: their cost is
numpy linear algebra whose wall time varies with the machine's load, and a
slow example is not a failure.
"""

from hypothesis import settings

settings.register_profile("blockbeam", deadline=None)
settings.load_profile("blockbeam")
