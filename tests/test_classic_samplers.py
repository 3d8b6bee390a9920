import numpy as np
import pytest

from pcsimp.classic_samplers import (
    chunk_sizes,
    fps,
    fps_chunked,
    random_sample,
)
from pcsimp.core import ConfigError, PointCloud, SampleResult


def fps_oracle(pts, m, start):
    """Recompute every candidate's min distance to the selected set each round."""
    n = len(pts)
    selected = [start]
    while len(selected) < m:
        best_idx, best_d = None, -1.0
        for i in range(n):
            d = min(sum((float(pts[i][c]) - float(pts[j][c])) ** 2 for c in range(3)) for j in selected)
            if d > best_d:
                best_idx, best_d = i, d
        selected.append(best_idx)
    return np.array(selected, dtype=np.int64)


def test_random_sample_full_draw_is_permutation():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(20, 3)))
    result = random_sample(cloud, 20, seed=3)
    assert sorted(result.indices.tolist()) == list(range(20))


def test_random_sample_is_deterministic_per_seed():
    cloud = PointCloud(np.random.default_rng(1).normal(size=(1024, 3)))
    a = random_sample(cloud, 512, seed=7)
    b = random_sample(cloud, 512, seed=7)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, random_sample(cloud, 512, seed=8).indices)


def test_random_sample_frequencies_are_uniform():
    cloud = PointCloud(np.zeros((4, 3)))
    counts = np.zeros(4)
    for seed in range(10000):
        counts[random_sample(cloud, 1, seed=seed).indices[0]] += 1
    # binomial(10000, 1/4): mean 2500, sigma ~ 43.3; allow 3 sigma
    sigma = np.sqrt(10000 * 0.25 * 0.75)
    assert np.abs(counts - 2500).max() <= 3 * sigma


def test_random_sample_rejects_m_above_n():
    with pytest.raises(ConfigError, match=r"^m=4 outside \[1, 3\]$"):
        random_sample(PointCloud(np.zeros((3, 3))), 4, seed=0)


def test_fps_picks_opposite_corner_of_unit_square():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]))
    result = fps(cloud, 2, start=0)
    assert result.indices.tolist() == [0, 3]


def test_fps_full_draw_is_permutation():
    cloud = PointCloud(np.random.default_rng(2).normal(size=(15, 3)))
    assert sorted(fps(cloud, 15, start=4).indices.tolist()) == list(range(15))


@pytest.mark.parametrize(
    "pts, expected",
    [
        pytest.param([[0.0, 0, 0], [1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0]], [0, 1, 2, 3], id="two-distinct-positions"),
        pytest.param([[2.0, 2, 2]] * 6, [0, 1, 2], id="all-identical"),
    ],
)
def test_fps_picks_distinct_indices_when_points_repeat(pts, expected):
    cloud = PointCloud(np.array(pts))
    assert fps(cloud, len(expected), start=0).indices.tolist() == expected
    assert fps_chunked(cloud, len(expected), 1).indices.tolist() == expected


def test_fps_matches_recompute_oracle():
    rng = np.random.default_rng(6)
    pts = rng.uniform(size=(20, 3))
    result = fps(PointCloud(pts), 5, start=0)
    assert np.array_equal(result.indices, fps_oracle(pts, 5, 0))


def test_fps_deterministic_and_start_validated():
    cloud = PointCloud(np.random.default_rng(3).normal(size=(30, 3)))
    assert np.array_equal(fps(cloud, 10, 2).indices, fps(cloud, 10, 2).indices)
    with pytest.raises(ConfigError, match=r"^start=30 outside \[0, 30\)$"):
        fps(cloud, 5, start=30)


def test_fps_result_is_exact_row_subset():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(50, 3)).astype(np.float32)
    result = fps(PointCloud(pts), 12, 0)
    assert np.array_equal(result.cloud.points, pts[result.indices])


def test_chunk_sizes_distribute_remainder_to_front():
    assert chunk_sizes(10, 4) == [3, 3, 2, 2]
    assert chunk_sizes(8, 2) == [4, 4]
    assert chunk_sizes(5, 5) == [1, 1, 1, 1, 1]


def test_fps_chunked_single_chunk_equals_fps():
    cloud = PointCloud(np.random.default_rng(4).normal(size=(40, 3)))
    assert np.array_equal(fps_chunked(cloud, 10, 1).indices, fps(cloud, 10, 0).indices)


def test_fps_chunked_composes_per_chunk_runs():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(8, 3))
    result = fps_chunked(PointCloud(pts), 4, 2)
    first = fps(PointCloud(pts[:4]), 2, 0).indices
    second = fps(PointCloud(pts[4:]), 2, 0).indices + 4
    assert np.array_equal(result.indices, np.concatenate([first, second]))


def test_fps_chunked_rejects_too_many_chunks():
    with pytest.raises(ConfigError, match=r"^chunks=5 outside \[1, 4\]$"):
        fps_chunked(PointCloud(np.zeros((4, 3))), 2, 5)


def test_fps_chunked_quota_never_exceeds_chunk_size():
    # uneven split where a naive quota would overflow the last chunk
    rng = np.random.default_rng(12)
    cloud = PointCloud(rng.normal(size=(10, 3)))
    result = fps_chunked(cloud, 9, 4)
    assert len(result.indices) == 9
    assert len(np.unique(result.indices)) == 9


def test_fps_chunked_is_faster_than_exact_at_scale():
    import time

    rng = np.random.default_rng(13)
    cloud = PointCloud(rng.uniform(size=(8192, 3)).astype(np.float32) * 30)
    t0 = time.perf_counter()
    fps(cloud, 4096, 0)
    exact = time.perf_counter() - t0
    t0 = time.perf_counter()
    fps_chunked(cloud, 4096, 8)
    chunked = time.perf_counter() - t0
    assert chunked < exact


def test_fps_spreads_better_than_random_sampling():
    # light version of the coverage property; the acceptance suite runs 100 trials
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(size=(256, 3)))

        def min_pairwise(pts):
            d = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            return np.min(d[np.triu_indices(len(pts), k=1)])

        f = min_pairwise(fps(cloud, 32, 0).cloud.points)
        r = min_pairwise(random_sample(cloud, 32, seed).cloud.points)
        wins += f >= r
    assert wins >= 8


def test_every_baseline_returns_the_cloud_then_its_rows():
    cloud = PointCloud(np.random.default_rng(4).normal(size=(40, 3)))
    for out in (random_sample(cloud, 8, 0), fps(cloud, 8, 0), fps_chunked(cloud, 8, 2)):
        assert isinstance(out, SampleResult) and SampleResult._fields == ("cloud", "indices")
        sampled, rows = out
        assert sampled is out.cloud and rows is out.indices
        assert np.array_equal(sampled.points, cloud.points[rows])
