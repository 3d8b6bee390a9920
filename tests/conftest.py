"""Shared test settings.

Property-based tests run under one hypothesis profile: examples are drawn
from a fixed seed (derandomize) and bounded in number, so the suite is
deterministic and fast, and no example database is written. Without
hypothesis installed, tests/test_fuzz.py skips itself.
"""

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("pcsimp", derandomize=True, deadline=None, max_examples=150, database=None)
    settings.load_profile("pcsimp")
