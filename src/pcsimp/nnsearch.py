"""Neighborhood search over point clouds: a uniform-grid ball query.

Row i of a table lists neighbor indices of point i nearest-first, ties broken
toward the lower index, with -1 padding any unused slots. The query point
itself is a valid neighbor at distance zero. Distances are compared squared;
no square roots are taken. Exact k nearest neighbors is the ball query at
radius=inf, which ranks every point against the whole cloud.
"""

from __future__ import annotations

import numpy as np

from .core import NeighborTable, PointCloud, SENTINEL, check_count, check_radius

# ball_query ranks runs of grid cells together up to about this many distances
_BATCH = 1 << 15


def _block_rows(n: int, width: int) -> int:
    # keep each distance block around 32 MB
    return max(1, min(n, (1 << 22) // max(width, 1)))


def _rank_block(pts: np.ndarray, rows: np.ndarray, cand: np.ndarray, r2, k: int, out: np.ndarray) -> None:
    """Write into out[rows] the k nearest of `cand` within squared radius r2.

    `cand` must be in ascending index order, so that among equal distances the
    lower column is the lower index. Rows are ranked by (distance, index);
    slots past the number of candidates within r2 hold SENTINEL.
    """
    # one coordinate at a time, ((dx*dx + dy*dy) + dz*dz) in the cloud's dtype:
    # the same roundings, in the same order, as (diff * diff).sum(axis=-1);
    # `spare` is the one other (rows x cand) array, later holding the partition
    here, there = pts[rows].T[:, :, None], np.ascontiguousarray(pts[cand].T)
    d = np.subtract(here[0], there[0])
    d *= d
    spare = np.empty_like(d)
    for axis in (1, 2):
        np.subtract(here[axis], there[axis], out=spare)
        spare *= spare
        d += spare
    # Entries beyond r2 rank after every entry within it, so they need no
    # masking here: they fill a row's prefix only past its in-radius count.
    kept = min(k, cand.size)
    np.copyto(spare, d)
    spare.partition(kept - 1, axis=1)
    kth = spare[:, kept - 1 : kept]
    keep = d <= kth
    flat = np.flatnonzero(keep)
    if flat.size > len(rows) * kept:
        # A row with more than `kept` such entries ties at its kept-th value;
        # there the lowest-index tied entries fill the room left by those below it.
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > kept)
        d_over, kth_over = d[over], kth[over]
        below = d_over < kth_over
        tied = d_over == kth_over
        room = kept - np.count_nonzero(below, axis=1)[:, None]
        keep[over] = below | (tied & (np.cumsum(tied, axis=1) <= room))
        flat = np.flatnonzero(keep)
    # flat positions in d, `kept` per row, in ascending column order
    flat = flat.reshape(len(rows), kept)
    d_kept = d.ravel()[flat]
    order = np.argsort(d_kept, axis=1, kind="stable")
    flat = np.take_along_axis(flat, order, axis=1)
    ranked = cand[flat - (np.arange(len(rows)) * cand.size)[:, None]]  # position less row start: the column
    ranked[np.take_along_axis(d_kept, order, axis=1) > r2] = SENTINEL
    out[rows, :kept] = ranked
    out[rows, kept:] = SENTINEL


def ball_query(cloud: PointCloud, radius: float, k: int) -> NeighborTable:
    """Up to k nearest neighbors within `radius`; missing slots hold -1.

    Points are bucketed into a uniform grid whose cell edge is at least the
    radius, so every neighbor of a point lies in the 27 cells around its own.
    A cloud at most two cells wide on every axis, where those 27 cells hold
    every point, is ranked whole; at radius=inf every cloud is. Otherwise the
    queries of a run of consecutive cells share the union of those lists as
    candidates, and the result is index-identical to ranking the whole cloud.
    """
    check_radius(radius)
    pts = cloud.points
    n = pts.shape[0]
    check_count("k", k, n)
    r2 = np.asarray(radius, dtype=pts.dtype) ** 2
    out = np.empty((n, k), dtype=np.int64)

    # The 1e-4 margin covers rounding: a pair the dtype's own `d <= r2` accepts
    # is never more than one cell apart. The extent clamp bounds each axis to
    # 2**20 cells, so the linear keys below fit in int64.
    lo = pts.min(axis=0).astype(np.float64)
    span = pts.max(axis=0).astype(np.float64) - lo
    edge = max(float(radius) * (1 + 1e-4), float(span.max()) / 2**20)
    cell = np.floor((pts - lo) / edge).astype(np.int64)
    if cell.max() <= 1:
        # at most two cells a side: every point's 27 cells hold the whole
        # cloud, so the grid would prune nothing
        everyone = np.arange(n)
        step = _block_rows(n, n)
        for b in range(0, n, step):
            _rank_block(pts, everyone[b : b + step], everyone, r2, k, out)
        return NeighborTable(out)
    cell += 1  # room for the -1 neighbor
    dims = cell.max(axis=0) + 2
    strides = np.array([dims[1] * dims[2], dims[2], 1], dtype=np.int64)
    keys = cell @ strides

    order = np.argsort(keys, kind="stable")
    occupied, starts, sizes = np.unique(keys[order], return_index=True, return_counts=True)
    shifts = np.array([(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]) @ strides
    around = occupied[:, None] + shifts[None, :]
    slot = np.minimum(np.searchsorted(occupied, around), len(occupied) - 1)
    present = occupied[slot] == around

    # A superset of the candidates ranks the same, so runs of consecutive cells
    # share one call and sparse clouds do not pay a call per point.
    reach = (sizes[slot] * present).sum(axis=1).tolist()
    counts = sizes.tolist()
    first = 0
    while first < len(occupied):
        last, n_rows, n_cand = first + 1, counts[first], reach[first]
        while last < len(occupied) and (n_rows + counts[last]) * (n_cand + reach[last]) <= _BATCH:
            n_rows, n_cand, last = n_rows + counts[last], n_cand + reach[last], last + 1
        members = order[starts[first] : starts[last - 1] + counts[last - 1]]
        near = np.unique(slot[first:last][present[first:last]])
        cand = np.sort(np.concatenate([order[starts[j] : starts[j] + counts[j]] for j in near]))
        step = _block_rows(len(members), len(cand))
        for b in range(0, len(members), step):
            _rank_block(pts, members[b : b + step], cand, r2, k, out)
        first = last
    return NeighborTable(out)


# the sampler's search, under the name callers look up and wrap
find_neighbors = ball_query
