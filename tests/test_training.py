from dataclasses import fields

import numpy as np
import pytest

from pcsimp import autodiff as ad
from pcsimp import casnet, training
from pcsimp.autodiff import Tensor
from pcsimp.core import CasNetConfig, ConfigError, PcsimpError, PointCloud, ShapeMismatchError
from pcsimp.training import (
    AdamState,
    DatasetSpec,
    adam_step,
    classification_metrics,
    generate_dataset,
    init_head,
)


def test_adam_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState([p])
    adam_step([p], [np.zeros(2)], state, lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_closed_form():
    # from zero moments, one step moves by -lr * g / (|g| + eps)
    g = np.array([0.3])
    p = Tensor(np.array([2.0]), requires_grad=True)
    state = AdamState([p])
    adam_step([p], [g], state, lr=0.01)
    expected = 2.0 - 0.01 * g[0] / (abs(g[0]) + 1e-8)
    assert np.isclose(p.data[0], expected, atol=1e-12)


def test_adam_converges_on_convex_quadratic():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    target = np.array([1.25, 0.5])
    state = AdamState([p])
    for _ in range(2000):
        adam_step([p], [2 * (p.data - target)], state, lr=0.01)
    assert np.abs(p.data - target).max() < 1e-4


def test_head_is_permutation_invariant():
    head = init_head(3, dtype=np.float64, seed=0)
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 3))
    base = head.forward(Tensor(pts)).data
    for _ in range(5):
        perm = rng.permutation(40)
        assert np.array_equal(head.forward(Tensor(pts[perm])).data, base)


def test_dataset_shapes_and_counts():
    spec = DatasetSpec(train_per_class=5, test_per_class=2, points_per_cloud=64, seed=3)
    ds = generate_dataset(spec)
    assert len(ds.train) == 15 and len(ds.test) == 6
    assert all(item.cloud.n == 64 for item in ds.train + ds.test)
    for label in range(3):
        assert sum(1 for it in ds.train if it.label == label) == 5
        assert sum(1 for it in ds.test if it.label == label) == 2


def test_dataset_sphere_points_near_unit_radius():
    spec = DatasetSpec(train_per_class=2, test_per_class=1, points_per_cloud=128, seed=4)
    ds = generate_dataset(spec)
    sphere_label = ds.class_names.index("sphere")
    for item in ds.test:
        if item.label == sphere_label:
            radii = np.linalg.norm(item.cloud.points, axis=1)
            assert np.abs(radii - 1.0).max() < 0.15


def _cube_by_loop(n, rng):
    """The cube generator written point by point: the oracle for the
    vectorised one, drawing from rng in the same order."""
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1, 1, size=(n, 2))
    pts = np.empty((n, 3))
    for i in range(n):
        a = face[i] % 3
        others = [j for j in range(3) if j != a]
        pts[i, a] = 1.0 if face[i] < 3 else -1.0
        pts[i, others[0]] = uv[i, 0]
        pts[i, others[1]] = uv[i, 1]
    return pts + rng.normal(scale=training.JITTER, size=(n, 3))


@pytest.mark.parametrize("seed", range(5))
def test_cube_generator_matches_the_point_by_point_oracle(seed):
    got = training._make_shape("cube", 300, np.random.default_rng(seed))
    assert np.array_equal(got, _cube_by_loop(300, np.random.default_rng(seed)))


def test_dataset_same_seed_reproduces():
    spec = DatasetSpec(train_per_class=3, test_per_class=1, points_per_cloud=32, seed=9)
    a, b = generate_dataset(spec), generate_dataset(spec)
    for x, y in zip(a.train + a.test, b.train + b.test):
        assert x.label == y.label
        assert np.array_equal(x.cloud.points, y.cloud.points)


def test_metrics_all_correct():
    y = np.array([0, 1, 2, 0, 1, 2])
    assert classification_metrics(y, y, 3) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_hand_confusion_matrix():
    # confusion [[8, 2], [3, 7]]: rows true, columns predicted
    y_true = np.array([0] * 10 + [1] * 10)
    y_pred = np.array([0] * 8 + [1] * 2 + [0] * 3 + [1] * 7)
    acc, prec, rec, f1 = classification_metrics(y_true, y_pred, 2)
    assert np.isclose(acc, 0.75)
    assert np.isclose(prec, (8 / 11 + 7 / 9) / 2, atol=1e-4)
    assert np.isclose(rec, 0.75)
    f1_0 = 2 * (8 / 11) * 0.8 / (8 / 11 + 0.8)
    f1_1 = 2 * (7 / 9) * 0.7 / (7 / 9 + 0.7)
    assert np.isclose(f1, (f1_0 + f1_1) / 2)


def test_metrics_exclude_absent_classes():
    y_true = np.array([1, 1, 1])
    y_pred = np.array([1, 1, 1])
    acc, prec, rec, f1 = classification_metrics(y_true, y_pred, 3)
    assert (acc, prec, rec, f1) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_reject_empty_split():
    with pytest.raises(ConfigError, match=r"^cannot evaluate an empty split$"):
        classification_metrics(np.array([]), np.array([]), 3)


def _tiny_train(mode, seed=0, epochs=2, beta=1.0):
    config = CasNetConfig(
        k=1,
        oa_layers=1,
        c=8,
        m=8,
        mode=mode,
        seed=seed,
        beta=beta,
        embed_hidden=8,
        score_hidden=8,
    )
    spec = DatasetSpec(train_per_class=4, test_per_class=2, points_per_cloud=32, seed=seed)
    dataset = generate_dataset(spec)
    return training.train(config, dataset, epochs=epochs, lr=1e-3, batch_size=4)


def test_train_smoke_and_history_layout():
    weights, head, history = _tiny_train("ahsn")
    assert len(history.epochs) == 2
    assert [e.epoch for e in history.epochs] == [0, 1]
    csv = history.to_csv().splitlines()
    assert csv[0] == "epoch,total,task,subset,cosine,train_acc,test_acc,seconds"
    assert len(csv) == 3


def test_history_csv_header_is_the_epoch_fields_and_rows_keep_their_format():
    history = training.TrainHistory([training.EpochStats(3, 1.25, 0.5, 1 / 3, np.float64(2.0), 0.5, 2 / 3, 12.34567)])
    header, row = history.to_csv().splitlines()
    assert header.split(",") == [f.name for f in fields(training.EpochStats)]
    assert row == "3,1.250000,0.500000,0.333333,2.000000,0.5000,0.6667,12.346"


def test_train_degenerate_full_output_size_runs():
    config = CasNetConfig(
        k=1, oa_layers=1, c=8, m=16, mode="assn",
        embed_hidden=8, score_hidden=8, seed=0,
    )
    spec = DatasetSpec(train_per_class=2, test_per_class=1, points_per_cloud=16, seed=1)
    weights, head, history = training.train(config, generate_dataset(spec), epochs=1, lr=1e-3, batch_size=2)
    assert len(history.epochs) == 1


def test_train_is_deterministic_given_seed():
    _, _, h1 = _tiny_train("ahsn", seed=5)
    _, _, h2 = _tiny_train("ahsn", seed=5)
    for a, b in zip(h1.epochs, h2.epochs):
        assert a.total == b.total and a.task == b.task
        assert a.subset == b.subset and a.cosine == b.cosine
        assert a.train_acc == b.train_acc and a.test_acc == b.test_acc


def test_train_loss_decreases_early():
    _, _, history = _tiny_train("assn", seed=2, epochs=6)
    assert history.epochs[-1].total < history.epochs[0].total


def test_head_serialization_round_trip():
    head = init_head(4, dtype=np.float32, seed=7)
    arrays = head.to_arrays()
    rebuilt = training.ToyTaskHead.from_arrays(arrays)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(20, 3)).astype(np.float32)
    assert rebuilt.predict(pts) == head.predict(pts)


def test_head_layout_parameters_and_arrays_list_the_same_names_in_order():
    head = init_head(4, hidden=8, dtype=np.float32)
    shapes = training.head_layout(8, 4)
    assert list(head.to_arrays()) == list(shapes)
    assert [p.data.shape for p in head.parameters()] == list(shapes.values())


@pytest.mark.parametrize(
    "name, value, match",
    [
        pytest.param("head.mlp.1.b", None, "head.mlp.1.b is missing", id="missing-bias"),
        pytest.param("head.cls.w", None, "head.cls.w is missing", id="missing-classifier"),
        pytest.param("head.mlp.1.w", np.zeros((16, 32), np.float32), r"head.mlp.1.w has shape \(16, 32\), expected \(32, 32\)", id="mis-shaped-hidden-layer"),
        pytest.param("head.cls.b", np.zeros(4, np.float32), r"head.cls.b has shape \(4,\), expected \(3,\)", id="mis-shaped-classifier-bias"),
    ],
)
def test_head_from_arrays_rejects_a_missing_or_mis_shaped_array_naming_it(name, value, match):
    arrays = init_head(3, dtype=np.float32).to_arrays()
    if value is None:
        del arrays[name]
    else:
        arrays[name] = value
    with pytest.raises(ShapeMismatchError, match=match):
        training.ToyTaskHead.from_arrays(arrays)


def test_a_parameter_that_diverges_stops_training_naming_its_array(monkeypatch):
    real = training.adam_step

    def poisoning(params, grads, state, lr):
        real(params, grads, state, lr)
        params[11].data[0, 0] = np.nan  # rho.out.w: the last of the 12 sampler arrays at oa=1

    monkeypatch.setattr(training, "adam_step", poisoning)
    with pytest.raises(PcsimpError, match=r"^rho.out.w is not finite after an Adam step of epoch 0$"):
        _tiny_train("ahsn", epochs=1)


def test_train_samples_each_test_cloud_once_per_epoch(monkeypatch):
    calls = []
    real = casnet.sample
    monkeypatch.setattr(casnet, "sample", lambda *a: calls.append(1) or real(*a))
    _tiny_train("ahsn", epochs=2)
    assert len(calls) == 2 * 6  # two epochs over 2 test clouds per class


def test_train_rejects_a_hard_sample_that_is_not_input_rows(monkeypatch):
    real = casnet.sample

    def shifted(cloud, config, weights):
        out, idx = real(cloud, config, weights)
        return PointCloud(out.points + 1.0), idx

    monkeypatch.setattr(casnet, "sample", shifted)
    with pytest.raises(AssertionError, match="exact row subset"):
        _tiny_train("ahsn", epochs=1)


def test_train_computes_in_float32_and_leaves_the_callers_clouds_alone():
    spec = DatasetSpec(train_per_class=2, test_per_class=1, points_per_cloud=32, seed=1)
    dataset = generate_dataset(spec)
    before = [it.cloud.points.copy() for it in dataset.train + dataset.test]
    config = CasNetConfig(k=4, oa_layers=1, c=8, m=8, mode="ahsn", embed_hidden=8, score_hidden=8)
    weights, head, _ = training.train(config, dataset, epochs=1, lr=1e-3, batch_size=3)
    arrays = {**weights.to_arrays(), **head.to_arrays()}
    assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
    for it, pts in zip(dataset.train + dataset.test, before):
        assert it.cloud.points.dtype == np.float64 and np.array_equal(it.cloud.points, pts)


@pytest.mark.parametrize("mode", ["assn", "ahsn"])
def test_a_training_step_builds_only_float32_nodes(monkeypatch, mode):
    # every node's data, not the gradients: _accumulate casts a gradient to its
    # tensor's dtype, which would hide a float64 node feeding a float32 one
    roots = []
    real = ad.backward
    monkeypatch.setattr(ad, "backward", lambda root: roots.append(root) or real(root))
    _tiny_train(mode, epochs=1)
    seen, stack, dtypes = set(), [roots[0]], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            dtypes.add(node.data.dtype)
            stack.extend(node._parents)
    assert len(seen) > 20 and dtypes == {np.dtype(np.float32)}
