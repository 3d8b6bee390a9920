"""Shared test settings, and the ranking-kernel spy the search and CLI tests share.

Property-based tests run under one hypothesis profile: examples are drawn
from a fixed seed (derandomize) and bounded in number, so the suite is
deterministic and fast, and no example database is written. Without
hypothesis installed, tests/test_fuzz.py skips itself.
"""

import pytest

from pcsimp import nnsearch

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("pcsimp", derandomize=True, deadline=None, max_examples=150, database=None)
    settings.load_profile("pcsimp")


@pytest.fixture
def ranked_blocks(monkeypatch):
    """The (rows, candidates) sizes of every ranking-kernel call."""
    calls = []
    rank = nnsearch._rank_block

    def recording(pts, rows, cand, r2, k, out):
        calls.append((len(rows), len(cand)))
        rank(pts, rows, cand, r2, k, out)

    monkeypatch.setattr(nnsearch, "_rank_block", recording)
    return calls
