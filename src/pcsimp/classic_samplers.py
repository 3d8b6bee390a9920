"""Task-agnostic baseline samplers: random sampling, exact FPS, chunked FPS."""

from __future__ import annotations

import numpy as np

from .core import ConfigError, PointCloud, SampleResult, check_count


def random_sample(cloud: PointCloud, m: int, seed: int) -> SampleResult:
    """m distinct indices drawn uniformly without replacement, deterministic per seed."""
    check_count("m", m, cloud.n)
    rng = np.random.default_rng(seed)
    idx = rng.choice(cloud.n, size=m, replace=False)
    return SampleResult(PointCloud(cloud.points[idx]), idx)


def fps(cloud: PointCloud, m: int, start: int = 0) -> SampleResult:
    """Farthest point sampling.

    Greedily selects the point maximizing its minimum squared distance to the
    already-selected set, maintaining the running min-distance array (O(n*m)).
    Ties break toward the lower index. A picked point's distance is set to -1,
    so the m picks are distinct even when the cloud repeats points.
    """
    pts = cloud.points
    n = pts.shape[0]
    check_count("m", m, n)
    if not 0 <= start < n:
        raise ConfigError(f"start={start} outside [0, {n})")
    selected = np.empty(m, dtype=np.int64)
    min_d = np.full(n, np.inf, dtype=pts.dtype)
    j = start
    for i in range(m):
        selected[i] = j
        diff = pts - pts[j]
        d_j = (diff * diff).sum(axis=1)
        np.minimum(min_d, d_j, out=min_d)
        min_d[j] = -1
        j = int(np.argmax(min_d))
    return SampleResult(PointCloud(pts[selected]), selected)


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
    check_count("m", m, n)
    check_count("chunks", chunks, n)
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
    return SampleResult(PointCloud(cloud.points[idx]), idx)

