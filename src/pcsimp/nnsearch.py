"""Three interchangeable neighborhood-search backends over point clouds.

All backends share the same contract: row i of the result lists neighbor
indices of point i nearest-first, ties broken toward the lower index, with -1
padding any unused slots. The query point itself is a valid neighbor at
distance zero. Distances are compared squared; no square roots are taken.
"""

from __future__ import annotations

import heapq

import numpy as np

from .core import (
    ConfigError,
    EmptyCloudError,
    KTooLargeError,
    NeighborTable,
    PointCloud,
    SENTINEL,
)

DEFAULT_BUCKET_SIZE = 16
# ball_query ranks runs of grid cells together up to about this many distances
_BATCH = 1 << 15


def _self_duplicate_indices(pts: np.ndarray) -> np.ndarray:
    """For each row, the lowest index among rows with identical coordinates.

    With k=1 the nearest neighbor (self at distance zero, lower-index
    tie-break) is exactly this, so the search can be skipped entirely.
    """
    n = pts.shape[0]
    pts = pts + 0.0  # fold -0.0 into +0.0 so bitwise row grouping matches distance-0 ties
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    first = np.full(len(uniq), n, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(n, dtype=np.int64))
    return first[inverse]


def _block_rows(n: int, width: int) -> int:
    # keep each distance block around 32 MB
    return max(1, min(n, (1 << 22) // max(width, 1)))


def _k1_table(pts: np.ndarray, k: int) -> NeighborTable | None:
    """Check k against the cloud size; for k=1 return the finished table.

    Self (or a lower-index exact duplicate) is the nearest neighbor and lies
    within any radius, so both searches share this shortcut.
    """
    n = pts.shape[0]
    if k > n:
        raise KTooLargeError(f"k={k} exceeds cloud size {n}")
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k == 1:
        return NeighborTable(_self_duplicate_indices(pts).reshape(n, 1))
    return None


def _rank_block(pts: np.ndarray, rows: np.ndarray, cand: np.ndarray, r2, k: int, out: np.ndarray) -> None:
    """Write into out[rows] the k nearest of `cand` within squared radius r2.

    `cand` must be in ascending index order, so that among equal distances the
    lower column is the lower index. Rows are ranked by (distance, index);
    slots past the number of candidates within r2 hold SENTINEL.
    """
    # one coordinate at a time, ((dx*dx + dy*dy) + dz*dz) in the cloud's dtype:
    # the same roundings, in the same order, as (diff * diff).sum(axis=-1)
    d = np.zeros((len(rows), cand.size), dtype=pts.dtype)
    for axis in range(3):
        diff = pts[rows, axis][:, None] - pts[cand, axis][None, :]
        d += diff * diff
    outside = d > r2
    counts = cand.size - outside.sum(axis=1)
    d[outside] = np.inf
    # keep everything below the kept-th value, then the lowest-index entries equal to it
    kept = min(k, cand.size)
    kth = np.partition(d, kept - 1, axis=1)[:, kept - 1 : kept]
    below = d < kth
    tied = d == kth
    room = kept - below.sum(axis=1, keepdims=True)
    keep = below | (tied & (np.cumsum(tied, axis=1) <= room))
    cols = np.nonzero(keep)[1].reshape(len(rows), kept)
    cols = np.take_along_axis(cols, np.argsort(np.take_along_axis(d, cols, axis=1), axis=1, kind="stable"), axis=1)
    ranked = cand[cols]
    ranked[np.arange(kept)[None, :] >= counts[:, None]] = SENTINEL
    out[rows, :kept] = ranked
    out[rows, kept:] = SENTINEL


def knn_bruteforce(cloud: PointCloud, k: int) -> NeighborTable:
    """Exact k nearest neighbors, every point a candidate of every row."""
    pts = cloud.points
    table = _k1_table(pts, k)
    if table is not None:
        return table
    n = pts.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    everyone = np.arange(n)
    step = _block_rows(n, n)
    for lo in range(0, n, step):
        _rank_block(pts, np.arange(lo, min(lo + step, n)), everyone, np.inf, k, out)
    return NeighborTable(out)


def ball_query(cloud: PointCloud, radius: float, k: int) -> NeighborTable:
    """Up to k nearest neighbors within `radius`; missing slots hold -1.

    Points are bucketed into a uniform grid whose cell edge is at least the
    radius, so every neighbor of a point lies in the 27 cells around its own.
    The queries of a run of consecutive cells share the union of those lists as
    candidates, and the result is index-identical to ranking the whole cloud.
    """
    if radius <= 0:
        raise ConfigError("radius must be > 0")
    pts = cloud.points
    table = _k1_table(pts, k)
    if table is not None:
        return table
    n = pts.shape[0]
    r2 = np.asarray(radius, dtype=pts.dtype) ** 2
    out = np.empty((n, k), dtype=np.int64)

    # The 1e-4 margin covers rounding: a pair the dtype's own `d <= r2` accepts
    # is never more than one cell apart. The extent clamp bounds each axis to
    # 2**20 cells, so the linear keys below fit in int64.
    lo = pts.min(axis=0).astype(np.float64)
    span = pts.max(axis=0).astype(np.float64) - lo
    edge = max(float(radius) * (1 + 1e-4), float(span.max()) / 2**20)
    cell = np.floor((pts - lo) / edge).astype(np.int64) + 1  # +1 leaves room for the -1 neighbor
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


class _Leaf:
    __slots__ = ("indices",)

    def __init__(self, indices: np.ndarray):
        self.indices = indices


class _Inner:
    __slots__ = ("axis", "split", "left", "right")

    def __init__(self, axis, split, left, right):
        self.axis = axis
        self.split = split
        self.left = left
        self.right = right


class KdTree:
    """Balanced spatial binary tree; split axis cycles x, y, z.

    Splits take the left median of the coordinate-sorted node points, so the
    structure is deterministic for a given input ordering and left subtree
    coordinates never exceed the split value.
    """

    def __init__(self, points: np.ndarray, bucket_size: int = DEFAULT_BUCKET_SIZE):
        self.points = points
        self.bucket_size = bucket_size
        self.root = self._build(np.arange(points.shape[0], dtype=np.int64), 0)

    def _build(self, indices: np.ndarray, depth: int):
        if len(indices) <= self.bucket_size:
            return _Leaf(indices)
        axis = depth % 3
        coords = self.points[indices, axis]
        order = np.argsort(coords, kind="stable")
        sorted_idx = indices[order]
        mid = (len(indices) - 1) // 2
        split = coords[order[mid]]
        return _Inner(
            axis,
            split,
            self._build(sorted_idx[: mid + 1], depth + 1),
            self._build(sorted_idx[mid + 1 :], depth + 1),
        )

    def depth(self) -> int:
        def walk(node):
            if isinstance(node, _Leaf):
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def traverse_indices(self) -> np.ndarray:
        """Concatenated leaf contents, left to right."""
        chunks: list[np.ndarray] = []

        def walk(node):
            if isinstance(node, _Leaf):
                chunks.append(node.indices)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    def validate(self) -> None:
        seen = self.traverse_indices()
        n = self.points.shape[0]
        if len(seen) != n or len(np.unique(seen)) != n:
            raise ValueError("tree does not contain each input point exactly once")

        def walk(node):
            if isinstance(node, _Leaf):
                return
            left_idx = _collect(node.left)
            right_idx = _collect(node.right)
            if left_idx.size and self.points[left_idx, node.axis].max() > node.split:
                raise ValueError("left subtree exceeds split value")
            if right_idx.size and self.points[right_idx, node.axis].min() < node.split:
                raise ValueError("right subtree below split value")
            walk(node.left)
            walk(node.right)

        def _collect(node):
            if isinstance(node, _Leaf):
                return node.indices
            return np.concatenate([_collect(node.left), _collect(node.right)])

        walk(self.root)

    def query(self, q: np.ndarray, k: int) -> np.ndarray:
        """Indices of the k nearest points to q, sorted by (distance, index)."""
        pts = self.points
        # max-heap of (-d2, -idx): the root is the current worst candidate
        heap: list[tuple[float, float]] = []
        stack: list[tuple[object, float]] = [(self.root, 0.0)]
        while stack:
            node, axis_d2 = stack.pop()
            if len(heap) == k and axis_d2 > -heap[0][0]:
                continue
            if isinstance(node, _Leaf):
                idx = node.indices
                diff = pts[idx] - q
                d2 = (diff * diff).sum(axis=1)
                order = np.lexsort((idx, d2))
                for j in order:
                    cand = (float(d2[j]), int(idx[j]))
                    if len(heap) < k:
                        heapq.heappush(heap, (-cand[0], -cand[1]))
                    else:
                        worst = (-heap[0][0], -heap[0][1])
                        if cand >= worst:
                            break  # leaf is sorted; nothing further can improve
                        heapq.heapreplace(heap, (-cand[0], -cand[1]))
                continue
            diff = float(q[node.axis]) - float(node.split)
            near, far = (node.left, node.right) if diff <= 0 else (node.right, node.left)
            stack.append((far, diff * diff))
            stack.append((near, axis_d2))
        result = sorted((-d2, -i) for d2, i in heap)
        return np.array([i for _, i in result], dtype=np.int64)


def kdtree_build(cloud: PointCloud, bucket_size: int = DEFAULT_BUCKET_SIZE) -> KdTree:
    if cloud.n == 0:
        raise EmptyCloudError("cannot build a tree over an empty cloud")
    return KdTree(cloud.points, bucket_size)


def kdtree_knn(tree: KdTree, cloud: PointCloud, k: int) -> NeighborTable:
    """k-NN via the tree; output is index-identical to knn_bruteforce."""
    pts = cloud.points
    n = pts.shape[0]
    if k > n:
        raise KTooLargeError(f"k={k} exceeds cloud size {n}")
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        out[i] = tree.query(pts[i], k)
    return NeighborTable(out)


def find_neighbors(cloud: PointCloud, backend: str, k: int, radius: float) -> NeighborTable:
    """Dispatch to the configured backend."""
    if backend == "ball_query":
        return ball_query(cloud, radius, k)
    if backend == "knn_bruteforce":
        return knn_bruteforce(cloud, k)
    if backend == "kdtree":
        return kdtree_knn(kdtree_build(cloud), cloud, k)
    raise ConfigError(f"unknown backend {backend!r}")
