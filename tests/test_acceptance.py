"""End-to-end acceptance suite. Each test prints one PASS/FAIL line."""

import struct
import time

import numpy as np

from pcsimp import autodiff as ad
from pcsimp import casnet, classic_samplers, nnsearch, training
from pcsimp.autodiff import Tensor
from pcsimp.cli import _gradcheck_op_cases, end_to_end_assn_check
from pcsimp.core import CasNetConfig, MalformedLengthError, PointCloud
from pcsimp.io import read_kitti_bin, write_kitti_bin
from pcsimp.losses import cosine_loss, subset_loss


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def reduced_config(m, mode="ahsn", seed=0, **overrides):
    base = dict(
        k=1, oa_layers=1, c=64, m=m, mode=mode, backend="ball_query",
        radius=2.0, seed=seed, cosine_axis="columns",
    )
    base.update(overrides)
    return CasNetConfig(**base)


def test_criterion_1_hard_sampling_outputs_are_bitwise_subsets():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    sizes = [512, 256, 128]
    weight_sets = {
        m: casnet.init_weights(reduced_config(m), m, dtype=np.float32, seed=m)
        for m in sizes
    }
    checked = 0
    for trial in range(100):
        m = sizes[trial % 3]
        cloud = PointCloud((rng.uniform(size=(1024, 3)) * 20).astype(np.float32))
        config = reduced_config(m)
        sampled, idx = casnet.sample(cloud, config, weight_sets[m])
        rows = {row.tobytes() for row in cloud.points}
        assert all(row.tobytes() in rows for row in sampled.points)
        assert sampled.n == m
        if trial % 40 == 0:  # spot-check the graph forward path as well
            out_graph, cache = casnet.forward(cloud, config, weight_sets[m])
            assert all(row.tobytes() in rows for row in out_graph.points)
            assert np.array_equal(out_graph.points, cloud.points[cache.rows])
            assert np.array_equal(cache.rows, idx)
        checked += 1
    report(
        "criterion 1 subset property",
        checked == 100,
        f"100 clouds, m in {sizes}, every hard-sampled point bitwise in input ({time.perf_counter()-started:.1f}s)",
    )


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    failures = []
    for name, params, fn in _gradcheck_op_cases():
        err = ad.finite_diff_check(fn, params, eps=1e-6)
        if err >= 1e-4:
            failures.append((name, err))
    e2e = end_to_end_assn_check(eps=1e-6)
    ok = not failures and e2e < 1e-3
    report(
        "criterion 2 gradient suite",
        ok,
        f"per-op max errors < 1e-4 (failures: {failures or 'none'}), end-to-end {e2e:.2e} < 1e-3 "
        f"({time.perf_counter()-started:.1f}s)",
    )


def test_criterion_3_search_backend_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(300)
    checked = 0
    for trial in range(200):
        n = 64 if trial < 150 else 1024
        cloud = PointCloud(rng.uniform(size=(n, 3)) * 8)
        for k in (1, 8, 32):
            reference = nnsearch.knn_bruteforce(cloud, k).indices
            assert np.array_equal(nnsearch.ball_query(cloud, 1e3, k).indices, reference)
        checked += 1
    report(
        "criterion 3 backend equivalence",
        checked == 200,
        f"ball(1e3) matches brute force exactly on 200 clouds x k in (1,8,32) "
        f"({time.perf_counter()-started:.1f}s)",
    )


def test_criterion_4_loss_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(400)
    worst_subset = 0.0
    worst_cosine = 0.0
    for _ in range(100):
        n, m = int(rng.integers(2, 24)), int(rng.integers(1, 12))
        a = rng.normal(size=(n, 3)) * rng.uniform(0.5, 3)
        b = rng.normal(size=(m, 3)) * rng.uniform(0.5, 3)
        got = float(subset_loss(PointCloud(a), PointCloud(b)).data)
        term1 = np.mean([min(((x - y) ** 2).sum() for y in b) for x in a])
        term2 = np.mean([min(((y - x) ** 2).sum() for x in a) for y in b])
        worst_subset = max(worst_subset, abs(got - (term1 + term2)))

        p, q = int(rng.integers(2, 10)), int(rng.integers(1, 8))
        mat = rng.normal(size=(p, q))
        got_c = float(cosine_loss(Tensor(mat)).data)
        oracle = 0.0
        for i in range(p):
            for j in range(p):
                if i != j:
                    ni, nj = np.linalg.norm(mat[i]), np.linalg.norm(mat[j])
                    if ni > 0 and nj > 0:
                        oracle += abs(float(mat[i] @ mat[j]) / (ni * nj))
        worst_cosine = max(worst_cosine, abs(got_c - oracle))
    ok = worst_subset < 1e-6 and worst_cosine < 1e-6
    report(
        "criterion 4 loss oracles",
        ok,
        f"100 instances each: subset max dev {worst_subset:.2e}, cosine max dev {worst_cosine:.2e} "
        f"({time.perf_counter()-started:.1f}s)",
    )


def test_criterion_5_fps_coverage_beats_random():
    started = time.perf_counter()

    def min_pairwise_sq(pts):
        d = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        iu = np.triu_indices(len(pts), k=1)
        return float(d[iu].min())

    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        cloud = PointCloud(rng.uniform(size=(1024, 3)))
        f = min_pairwise_sq(classic_samplers.fps(cloud, 64, 0).cloud.points)
        r = min_pairwise_sq(classic_samplers.random_sample(cloud, 64, seed).cloud.points)
        wins += f >= r
    report(
        "criterion 5 fps coverage",
        wins >= 95,
        f"fps min pairwise distance >= rs in {wins}/100 trials (need >= 95) "
        f"({time.perf_counter()-started:.1f}s)",
    )


def test_criterion_6_timing_ordering():
    started = time.perf_counter()
    rng = np.random.default_rng(600)
    config = reduced_config(4096)
    weights = casnet.init_weights(config, 4096, dtype=np.float32, seed=1)
    t_rs, t_net, t_fps = [], [], []
    for i in range(50):
        cloud = PointCloud((rng.uniform(size=(8192, 3)) * 40).astype(np.float32))
        t0 = time.perf_counter()
        classic_samplers.random_sample(cloud, 4096, seed=i)
        t_rs.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        casnet.sample(cloud, config, weights)
        t_net.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        classic_samplers.fps(cloud, 4096, 0)
        t_fps.append(time.perf_counter() - t0)
    rs_med, net_med, fps_med = (float(np.median(t)) for t in (t_rs, t_net, t_fps))

    full = CasNetConfig(k=32, oa_layers=3, c=64, m=512, mode="ahsn", backend="ball_query", radius=2.0)
    w_full = casnet.init_weights(full, 512, dtype=np.float32, seed=2)
    red = reduced_config(512)
    w_red = casnet.init_weights(red, 512, dtype=np.float32, seed=3)
    t_red, t_full = [], []
    for i in range(12):
        cloud = PointCloud((rng.uniform(size=(1024, 3)) * 10).astype(np.float32))
        t0 = time.perf_counter()
        casnet.sample(cloud, red, w_red)
        t_red.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        casnet.sample(cloud, full, w_full)
        t_full.append(time.perf_counter() - t0)
    speedup = float(np.median(t_full)) / float(np.median(t_red))

    ok = rs_med < net_med < fps_med and speedup >= 1.4
    report(
        "criterion 6 timing ordering",
        ok,
        f"per-sample medians at 8192->4096: rs {rs_med:.4f}s < casnet {net_med:.4f}s < fps {fps_med:.4f}s; "
        f"reduced vs full at 1024->512: {speedup:.2f}x (need >= 1.4) ({time.perf_counter()-started:.1f}s)",
    )


def _train_once(seed: int, beta: float, epochs: int, early_stop_acc=None):
    config = reduced_config(32, seed=seed, beta=beta)
    spec = training.DatasetSpec(train_per_class=100, test_per_class=30, points_per_cloud=256, seed=seed)
    dataset = training.generate_dataset(spec)
    weights, head, history = training.train(
        config, dataset, epochs=epochs, lr=5e-4, batch_size=12, early_stop_acc=early_stop_acc
    )
    return config, dataset, weights, head, history


def test_criterion_7_training_reaches_ninety_percent():
    started = time.perf_counter()
    best_by_seed = []
    for seed in range(5):
        _, _, _, _, history = _train_once(seed, beta=1.0, epochs=100, early_stop_acc=0.95)
        best = max(e.test_acc for e in history.epochs)
        best_by_seed.append(best)
        print(f"  seed {seed}: best test acc {best:.3f} in {len(history.epochs)} epochs")
    hits = sum(1 for b in best_by_seed if b >= 0.90)
    report(
        "criterion 7 end-to-end training",
        hits >= 4,
        f"{hits}/5 seeds reached >= 90% test accuracy within 100 epochs "
        f"(best: {[round(b, 3) for b in best_by_seed]}) ({time.perf_counter()-started:.0f}s)",
    )


def _duplicate_fraction(config, weights, split) -> float:
    fracs = []
    for item in split:
        _, idx = casnet.sample(item.cloud, config, weights)
        fracs.append(1.0 - len(np.unique(idx)) / len(idx))
    return float(np.mean(fracs))


def test_criterion_8_cosine_term_suppresses_duplicates():
    started = time.perf_counter()
    with_cosine, without_cosine = [], []
    for seed in range(5):
        for beta, bucket in ((1.0, with_cosine), (0.0, without_cosine)):
            config, dataset, weights, _, _ = _train_once(seed, beta=beta, epochs=10)
            bucket.append(_duplicate_fraction(config, weights, dataset.test))
    mean_with = float(np.mean(with_cosine))
    mean_without = float(np.mean(without_cosine))
    report(
        "criterion 8 duplicate suppression",
        mean_with < mean_without,
        f"mean duplicated-selection fraction: beta=1 {mean_with:.4f} < beta=0 {mean_without:.4f} "
        f"(5 seeds each) ({time.perf_counter()-started:.0f}s)",
    )


def test_criterion_9_kitti_round_trip(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(900)
    pts = (rng.normal(size=(1000, 3)) * 60).astype(np.float32)
    path = tmp_path / "scan.bin"
    write_kitti_bin(path, PointCloud(pts))
    back = read_kitti_bin(path)
    exact = np.array_equal(back.points, pts)

    bad = tmp_path / "bad.bin"
    bad.write_bytes(struct.pack("<5f", 1, 2, 3, 4, 5))
    rejected = False
    try:
        read_kitti_bin(bad)
    except MalformedLengthError:
        rejected = True
    report(
        "criterion 9 kitti round trip",
        exact and rejected,
        f"1000-point write/read bit-exact: {exact}; malformed length rejected: {rejected} "
        f"({time.perf_counter()-started:.1f}s)",
    )
