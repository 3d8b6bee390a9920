import warnings

import numpy as np
import pytest

from pcsimp import nnsearch, training
from pcsimp.core import ConfigError, PointCloud
from pcsimp.nnsearch import ball_query


def knn_oracle(pts, k):
    """Independent O(n^2) full sort: (squared distance, index) ascending."""
    n = len(pts)
    rows = []
    for i in range(n):
        order = sorted(
            range(n),
            key=lambda j: (sum((float(pts[i][d]) - float(pts[j][d])) ** 2 for d in range(3)), j),
        )
        rows.append(order[:k])
    return np.array(rows, dtype=np.int64)


def ball_oracle(pts, radius, k):
    """Independent filter + sort with -1 padding."""
    n = len(pts)
    rows = []
    for i in range(n):
        within = []
        for j in range(n):
            d = sum((float(pts[i][c]) - float(pts[j][c])) ** 2 for c in range(3))
            if d <= radius * radius:
                within.append((d, j))
        within.sort()
        row = [j for _, j in within[:k]]
        rows.append(row + [-1] * (k - len(row)))
    return np.array(rows, dtype=np.int64)


def test_knn_self_plus_nearest():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1, 0, 0], [3, 0, 0]]))
    table = ball_query(cloud, np.inf, 2)
    assert table.indices[0].tolist() == [0, 1]
    assert table.indices[2].tolist() == [2, 1]


def test_knn_single_point():
    table = ball_query(PointCloud(np.zeros((1, 3))), np.inf, 1)
    assert table.indices.tolist() == [[0]]


def test_knn_matches_oracle_on_random_points():
    rng = np.random.default_rng(11)
    pts = rng.uniform(size=(10, 3))
    table = ball_query(PointCloud(pts), np.inf, 3)
    assert np.array_equal(table.indices, knn_oracle(pts, 3))


def test_knn_rejects_k_above_n():
    with pytest.raises(ConfigError, match=r"^k=3 outside \[1, 2\]$"):
        ball_query(PointCloud(np.zeros((2, 3))), np.inf, 3)


def test_knn_duplicate_points_tie_break_to_lower_index():
    pts = np.array([[1.0, 1, 1], [0, 0, 0], [1, 1, 1]])
    table = ball_query(PointCloud(pts), np.inf, 1)
    # row 2 duplicates row 0; the lower index wins the distance-0 tie
    assert table.indices[2, 0] == 0
    assert table.indices[0, 0] == 0


def test_ball_query_self_only_within_radius():
    cloud = PointCloud(np.array([[0.0, 0, 0], [5, 0, 0]]))
    table = ball_query(cloud, 2.0, 2)
    assert table.indices[0].tolist() == [0, -1]
    assert table.indices[1].tolist() == [1, -1]


def test_ball_query_nearest_two_of_three():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1, 0, 0], [1.5, 0, 0]]))
    table = ball_query(cloud, 2.0, 2)
    assert table.indices[0].tolist() == [0, 1]


def test_ball_query_matches_oracle_on_random_points():
    rng = np.random.default_rng(23)
    pts = rng.uniform(size=(50, 3))
    table = ball_query(PointCloud(pts), 0.3, 8)
    assert np.array_equal(table.indices, ball_oracle(pts, 0.3, 8))


def test_ball_query_with_huge_radius_equals_knn():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 3))
    assert np.array_equal(ball_query(PointCloud(pts), 1e6, 6).indices, knn_oracle(pts, 6))


def test_ball_query_never_exceeds_radius():
    rng = np.random.default_rng(31)
    pts = rng.uniform(size=(60, 3)) * 2
    radius = 0.4
    table = ball_query(PointCloud(pts), radius, 5)
    for i, row in enumerate(table.indices):
        for j in row[row >= 0]:
            assert ((pts[i] - pts[j]) ** 2).sum() <= radius * radius + 1e-12


def test_every_backend_returns_self_first_on_distinct_points():
    rng = np.random.default_rng(13)
    cloud = PointCloud(rng.normal(size=(30, 3)))
    for table in (ball_query(cloud, np.inf, 4), ball_query(cloud, 10.0, 4)):
        assert np.array_equal(table.indices[:, 0], np.arange(30))


@pytest.mark.parametrize("backend", ["brute", "ball"])
def test_neighbor_tables_satisfy_invariants(backend):
    rng = np.random.default_rng(17)
    for trial in range(5):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, n + 1))
        cloud = PointCloud(rng.normal(size=(n, 3)))
        if backend == "brute":
            table = ball_query(cloud, np.inf, k)
        else:
            table = ball_query(cloud, float(rng.uniform(0.1, 3.0)), k)
        idx = table.indices
        real = idx != -1
        assert idx.shape == (n, k) and ((idx[real] >= 0) & (idx[real] < n)).all()
        # -1 pads a suffix of each row, and no row lists a point twice
        assert not (real[:, 1:] & ~real[:, :-1]).any()
        assert all(len(set(row[row != -1])) == np.count_nonzero(row != -1) for row in idx)


def _lidar_like_cloud(rng, n):
    """Float32 returns of a sensor 1.73 m above flat ground plus a few boxes:
    dense near the sensor, sparse far out, as in a LiDAR frame."""
    azimuth = rng.uniform(0, 2 * np.pi, n)
    reach = 3.0 + 60.0 * rng.uniform(size=n) ** 2
    pts = np.stack([reach * np.cos(azimuth), reach * np.sin(azimuth), np.full(n, -1.73)], axis=1)
    on_box = rng.uniform(size=n) < 0.3
    centres = rng.uniform(-30, 30, size=(12, 3)) * [1, 1, 0] + [0, 0, -0.7]
    which = rng.integers(0, 12, on_box.sum())
    pts[on_box] = centres[which] + rng.uniform(-1, 1, size=(on_box.sum(), 3)) * [2.0, 1.0, 0.8]
    pts += rng.normal(scale=0.02, size=pts.shape)
    return pts.astype(np.float32)


@pytest.fixture(params=["merged", "single"])
def cell_runs(request, monkeypatch):
    """Run a grid test twice: with consecutive cells ranked together, and with
    every cell ranked against only its own 27 cells, where a neighbour cell the
    grid failed to list shows as a missing neighbour."""
    if request.param == "single":
        monkeypatch.setattr(nnsearch, "_BATCH", 0)


def _full_sort_rows(pts, rows, radius, k):
    """Oracle for large clouds: every point a candidate of each row, distances
    in the cloud's dtype, a stable sort of the whole row, -1 past the radius."""
    diff = pts[rows, None, :] - pts[None, :, :]
    d = (diff * diff).sum(axis=-1)
    inside = d <= np.asarray(radius, dtype=pts.dtype) ** 2
    d[~inside] = np.inf
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    return np.where(np.arange(k)[None, :] < inside.sum(axis=1)[:, None], order, -1)


def test_ball_query_matches_full_sort_on_lidar_scale_float32_cloud():
    rng = np.random.default_rng(41)
    pts = _lidar_like_cloud(rng, 8192)
    radius, k = 2.0, 32
    table = ball_query(PointCloud(pts), radius, k).indices
    rows = np.sort(rng.choice(len(pts), 512, replace=False))
    expected = _full_sort_rows(pts, rows, radius, k)
    assert np.array_equal(table[rows], expected)
    # the frame exercises both full rows and padded ones
    assert (table[rows] == -1).any() and (table[rows, -1] >= 0).any()


def test_ball_query_at_an_unbounded_radius_is_brute_force_on_a_lidar_scale_float32_cloud():
    # the one search serves as k nearest neighbours too: radius=inf ranks the
    # whole cloud, index for index as a full sort of every row does
    pts = _lidar_like_cloud(np.random.default_rng(47), 4096)
    table = ball_query(PointCloud(pts), np.inf, 32).indices
    assert (table >= 0).all()
    expected = [_full_sort_rows(pts, rows, np.inf, 32) for rows in np.array_split(np.arange(len(pts)), 8)]
    assert np.array_equal(table, np.concatenate(expected))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ball_query_lattice_with_spacing_equal_to_radius(dtype, cell_runs):
    # spacing 0.5 is exact in binary, so axis neighbours sit at d == r^2 exactly
    axes = np.arange(-2, 3) * 0.5
    pts = np.array([[x, y, z] for x in axes for y in axes for z in axes], dtype=dtype)
    table = ball_query(PointCloud(pts), 0.5, 7).indices
    assert np.array_equal(table, ball_oracle(pts, 0.5, 7))
    # an interior point keeps itself and all six axis neighbours at d == r^2
    assert (table >= 0).all(axis=1).any()


def test_ball_query_duplicates_and_negative_coordinates(cell_runs):
    # exact duplicates, -0.0 rows and a 0.0/-0.0 pair: at k=1 each row's one
    # neighbour is the lowest index at distance zero, found by the ranking
    # kernel like any other tie
    rng = np.random.default_rng(43)
    base = rng.uniform(-3, -1, size=(30, 3))
    pts = np.concatenate([base, base[::4], -0.0 * base[:3], [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]]])
    for k in (1, 9):
        assert np.array_equal(ball_query(PointCloud(pts), 0.6, k).indices, ball_oracle(pts, 0.6, k))
        assert np.array_equal(ball_query(PointCloud(pts), np.inf, k).indices, knn_oracle(pts, k))


@pytest.mark.parametrize("dtype,finest", [(np.float32, 22), (np.float64, 51)])
def test_ball_query_pairs_at_the_radius_just_below_a_cell_boundary(dtype, finest, cell_runs):
    # pair j sits at x = 1 - 2**-j and 2 - 2**-j, exactly the radius 1 apart, at
    # every scale of distance below the first cell boundary a grid could draw
    pts = [[0.0, 0.0, 0.0]]
    for j in range(1, finest + 1):
        pts += [[1 - 2.0**-j, 3.0 * j, 0.0], [2 - 2.0**-j, 3.0 * j, 0.0]]
    pts = np.array(pts, dtype=dtype)
    table = ball_query(PointCloud(pts), 1.0, 3).indices
    assert np.array_equal(table, ball_oracle(pts, 1.0, 3))
    assert np.array_equal(table[1::2, 1], np.arange(2, len(pts), 2))


def test_ball_query_isolated_points_with_empty_neighbour_cells(cell_runs):
    rng = np.random.default_rng(47)
    lonely = np.array([[x, y, z] for x in (0, 10, 20) for y in (0, 10) for z in (-10, 0)], dtype=np.float64)
    cluster = rng.normal(scale=0.3, size=(20, 3)) + [10, 0, 0]
    pts = np.concatenate([lonely, cluster])
    table = ball_query(PointCloud(pts), 1.0, 6).indices
    assert np.array_equal(table, ball_oracle(pts, 1.0, 6))
    assert table[0].tolist() == [0, -1, -1, -1, -1, -1]


def test_ball_query_one_cell_cloud():
    rng = np.random.default_rng(53)
    pts = rng.normal(size=(60, 3))
    table = ball_query(PointCloud(pts), 1e6, 60).indices
    assert np.array_equal(table, knn_oracle(pts, 60))


def test_ball_query_one_cell_cloud_ranked_in_row_chunks():
    # 2500 x 2500 distances exceed one block, so the cell's rows come in chunks
    rng = np.random.default_rng(57)
    pts = rng.normal(size=(2500, 3)).astype(np.float32)
    table = ball_query(PointCloud(pts), 1e6, 8).indices
    rows = np.arange(0, 2500, 7)
    assert np.array_equal(table[rows], _full_sort_rows(pts, rows, 1e6, 8))


@pytest.mark.filterwarnings("error")  # an overflowing key computation warns
def test_ball_query_tiny_radius_over_large_extent(cell_runs):
    # 2e6 / 1e-6 cells a side would overflow int64 linear keys without the clamp
    rng = np.random.default_rng(59)
    pts = rng.uniform(-1e6, 1e6, size=(40, 3))
    pts = np.concatenate([pts, pts[:5] + [4e-7, 0.0, 0.0]])
    table = ball_query(PointCloud(pts), 1e-6, 3).indices
    assert np.array_equal(table, ball_oracle(pts, 1e-6, 3))
    assert (table[:5, 1] == np.arange(40, 45)).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_k_equal_to_n(dtype):
    rng = np.random.default_rng(61)
    pts = rng.normal(size=(40, 3)).astype(dtype)
    cloud = PointCloud(pts)
    assert np.array_equal(ball_query(cloud, np.inf, 40).indices, knn_oracle(pts, 40))
    assert np.array_equal(ball_query(cloud, 1.5, 40).indices, ball_oracle(pts, 1.5, 40))


def test_ball_query_rejects_k_below_one():
    with pytest.raises(ConfigError):
        ball_query(PointCloud(np.zeros((2, 3))), 1.0, 0)


def test_ball_query_rejects_a_nan_radius_before_any_numpy_warning():
    cloud = PointCloud(np.random.default_rng(0).random((64, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            ball_query(cloud, float("nan"), 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_block_with_rows_tied_at_the_kth_distance_and_rows_not(dtype):
    # a 3x3x3 integer lattice, where most rows tie at their k-th distance, and
    # a far random cluster whose rows do not; 37 points are ranked in one block
    lattice = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)], dtype=np.float64)
    cluster = np.random.default_rng(67).uniform(size=(10, 3)) * 3 + 100
    pts = np.concatenate([lattice, cluster]).astype(dtype)
    assert nnsearch._block_rows(len(pts), len(pts)) == len(pts)
    k = 4
    d = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    ranked = np.sort(d, axis=1)
    tied = ranked[:, k - 1] == ranked[:, k]
    assert tied[:27].any() and not tied[27:].any()
    expected = _full_sort_rows(pts, np.arange(len(pts)), np.inf, k)
    assert np.array_equal(ball_query(PointCloud(pts), np.inf, k).indices, expected)
    assert np.array_equal(ball_query(PointCloud(pts), 1e6, k).indices, expected)


def test_ball_query_ranks_a_cloud_two_cells_wide_in_one_call(ranked_blocks):
    # the synthetic clouds span about 2.08 against a cell edge of 2.0002: at
    # most two cells a side, so every point's 27 cells hold the whole cloud
    dataset = training.generate_dataset(training.DatasetSpec(10, 5, 256, seed=0))
    clouds = [it.cloud.points.astype(np.float32) for it in dataset.train + dataset.test]
    for i, pts in enumerate(clouds):
        ranked_blocks.clear()
        table = ball_query(PointCloud(pts), 2.0, 32).indices
        assert ranked_blocks == [(256, 256)]
        if i % 15 == 0:  # one cloud per class against the slow oracle
            assert np.array_equal(table, ball_oracle(pts, 2.0, 32))
    # duplicates and exact distance ties: every coordinate on a 0.25 lattice,
    # which float32 and the oracle's float64 both hold exactly
    pts = np.round(clouds[0] * 4) / 4
    assert len(np.unique(pts, axis=0)) < len(pts)
    ranked_blocks.clear()
    table = ball_query(PointCloud(pts), 2.0, 32).indices
    assert ranked_blocks == [(256, 256)]
    assert np.array_equal(table, ball_oracle(pts, 2.0, 32))


def test_ball_query_on_a_cloud_three_cells_wide_takes_the_grid(ranked_blocks):
    pts = training.generate_dataset(training.DatasetSpec(1, 1, 256, seed=0)).train[0].cloud.points.astype(np.float32) * 3
    table = ball_query(PointCloud(pts), 2.0, 32).indices
    assert min(cand for _, cand in ranked_blocks) < len(pts)
    assert np.array_equal(table, ball_oracle(pts, 2.0, 32))
