"""Task-agnostic baseline samplers: random sampling, exact FPS, chunked FPS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BadChunkCountError,
    BadStartError,
    MTooLargeError,
    PointCloud,
)


@dataclass(frozen=True)
class SampleResult:
    """Selected row indices plus the extracted sub-cloud (an exact row subset)."""

    indices: np.ndarray
    cloud: PointCloud


def _check_m(m: int, n: int) -> None:
    if not 1 <= m <= n:
        raise MTooLargeError(f"m={m} outside [1, {n}]")


def random_sample(cloud: PointCloud, m: int, seed: int) -> SampleResult:
    """m distinct indices drawn uniformly without replacement, deterministic per seed."""
    _check_m(m, cloud.n)
    rng = np.random.default_rng(seed)
    idx = rng.choice(cloud.n, size=m, replace=False)
    return SampleResult(idx, PointCloud(cloud.points[idx]))


def fps(cloud: PointCloud, m: int, start: int = 0) -> SampleResult:
    """Farthest point sampling.

    Greedily selects the point maximizing its minimum squared distance to the
    already-selected set, maintaining the running min-distance array (O(n*m)).
    Ties break toward the lower index.
    """
    pts = cloud.points
    n = pts.shape[0]
    _check_m(m, n)
    if not 0 <= start < n:
        raise BadStartError(f"start={start} outside [0, {n})")
    selected = np.empty(m, dtype=np.int64)
    selected[0] = start
    diff = pts - pts[start]
    min_d = (diff * diff).sum(axis=1)
    for i in range(1, m):
        j = int(np.argmax(min_d))
        selected[i] = j
        diff = pts - pts[j]
        d_j = (diff * diff).sum(axis=1)
        np.minimum(min_d, d_j, out=min_d)
    return SampleResult(selected, PointCloud(pts[selected]))


def chunk_sizes(total: int, parts: int) -> list[int]:
    """Contiguous partition sizes: floor(total/parts), +1 for the first total%parts."""
    base, extra = divmod(total, parts)
    return [base + 1 if j < extra else base for j in range(parts)]


def fps_chunked(cloud: PointCloud, m: int, chunks: int) -> SampleResult:
    """FPS applied independently within `chunks` contiguous index ranges.

    Chunk j keeps floor(m/chunks) points (+1 for the first m mod chunks
    chunks) and starts FPS from the first index of its range. Trades the
    global farthest-point guarantee for a roughly chunk-fold speedup.
    """
    n = cloud.n
    _check_m(m, n)
    if not 1 <= chunks <= n:
        raise BadChunkCountError(f"chunks={chunks} outside [1, {n}]")
    sizes = chunk_sizes(n, chunks)
    quotas = chunk_sizes(m, chunks)
    picked = []
    offset = 0
    for size, quota in zip(sizes, quotas):
        if quota > 0:
            part = PointCloud(cloud.points[offset : offset + size])
            picked.append(fps(part, quota, start=0).indices + offset)
        offset += size
    idx = np.concatenate(picked)
    return SampleResult(idx, PointCloud(cloud.points[idx]))

