import numpy as np
import pytest

from pcsimp import autodiff as ad
from pcsimp import casnet
from pcsimp.autodiff import Tensor
from pcsimp.core import (
    CasNetConfig,
    NeighborTable,
    PointCloud,
    SampleResult,
    ShapeMismatchError,
)
from pcsimp.losses import cosine_loss, subset_loss, total_loss
from pcsimp.nnsearch import ball_query
from test_nnsearch import _lidar_like_cloud


def tiny_config(**overrides):
    base = dict(
        k=2,
        oa_layers=1,
        c=8,
        m=4,
        mode="assn",
        radius=np.inf,
        embed_hidden=8,
        score_hidden=8,
        seed=0,
    )
    base.update(overrides)
    return CasNetConfig(**base)


def random_cloud(n, seed=0, dtype=np.float64):
    return PointCloud(np.random.default_rng(seed).uniform(size=(n, 3)).astype(dtype))


def test_group_features_self_neighbor_gives_zeros():
    cloud = random_cloud(6, 1)
    table = ball_query(cloud, np.inf, 1)
    grouped = casnet.group_features(cloud, table)
    assert grouped.shape == (6, 1, 3)
    assert np.all(grouped == 0)


def test_group_features_hand_case():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1, 0, 0]]))
    table = NeighborTable(np.array([[0, 1], [1, 0]]))
    grouped = casnet.group_features(cloud, table)
    assert np.array_equal(grouped[0], [[0, 0, 0], [1, 0, 0]])
    assert np.array_equal(grouped[1], [[0, 0, 0], [-1, 0, 0]])


def test_group_features_sentinel_slot_is_zero():
    cloud = PointCloud(np.array([[0.0, 0, 0], [2, 0, 0]]))
    table = NeighborTable(np.array([[0, -1], [1, -1]]))
    grouped = casnet.group_features(cloud, table)
    assert np.array_equal(grouped[0, 1], [0, 0, 0])


def test_combine_duplicates_point_across_slots():
    cloud = PointCloud(np.array([[1.0, 2, 3]]))
    grouped = np.array([[[0.0, 0, 0], [0.5, 0.5, 0]]])
    combined = casnet.combine(cloud, grouped)
    assert combined.shape == (1, 2, 6)
    assert np.array_equal(combined[0, 0], [1, 2, 3, 0, 0, 0])
    assert np.array_equal(combined[0, 1], [1, 2, 3, 0.5, 0.5, 0])
    # first three channels constant across slots
    assert np.array_equal(combined[0, 0, :3], combined[0, 1, :3])


def test_embed_is_invariant_to_neighbor_order():
    config = tiny_config(k=3)
    cloud = random_cloud(5, 2)
    weights = casnet.init_weights(config, 4)
    table = ball_query(cloud, np.inf, 3)
    combined = casnet.combine(cloud, casnet.group_features(cloud, table))
    base = casnet.embed(combined, weights).data
    permuted = combined[:, [2, 0, 1], :]
    assert np.allclose(casnet.embed(permuted, weights).data, base)


def test_embed_k1_pooling_is_identity_over_single_slot():
    config = tiny_config(k=1)
    cloud = random_cloud(4, 3)
    weights = casnet.init_weights(config, 2)
    combined = casnet.combine(cloud, np.zeros((4, 1, 3)))
    out = casnet.embed(combined, weights)
    assert out.data.shape == (4, config.c)


def attention_of(f, wq, wk, wv):
    """F_sa read back through offset_attention: with Wg = -I and a bias of 100
    every relu unit is active, so the layer outputs F_sa + 100."""
    c = f.shape[1]
    lay = casnet.OaLayerWeights(wq, wk, wv, Tensor(-np.eye(c)), Tensor(np.full(c, 100.0)))
    return casnet.offset_attention(Tensor(f), lay).data - 100.0


def test_self_attention_single_point_passes_value_through():
    weights = casnet.init_weights(tiny_config(), 4)
    lay = weights.layers[0]
    f = np.random.default_rng(4).normal(size=(1, 8))
    out = attention_of(f, lay.wq, lay.wk, lay.wv)
    assert np.allclose(out, f @ lay.wv.data)


def test_self_attention_identical_rows_give_identical_outputs():
    weights = casnet.init_weights(tiny_config(), 4)
    lay = weights.layers[0]
    row = np.random.default_rng(5).normal(size=(1, 8))
    out = attention_of(np.repeat(row, 3, axis=0), lay.wq, lay.wk, lay.wv)
    assert np.allclose(out[0], out[1]) and np.allclose(out[1], out[2])


def test_self_attention_two_point_closed_form():
    # c=1, all projections = identity: attention mixes the scalar values with
    # softmax([x_i*x_j]/1) row weights
    one = Tensor(np.array([[1.0]]))
    f = np.array([[1.0], [2.0]])
    out = attention_of(f, one, one, one)
    scores = f @ f.T  # d_k = 1
    expect = []
    for i in range(2):
        e = np.exp(scores[i] - scores[i].max())
        a = e / e.sum()
        expect.append(a @ f[:, 0])
    assert np.allclose(out[:, 0], expect)


def test_offset_attention_vanishes_at_identity_value_projection():
    # Wv = identity makes F_sa a convex mix of F rows; with one point F_sa = F,
    # so a zero-bias gamma leaves the input unchanged
    config = tiny_config()
    weights = casnet.init_weights(config, 4)
    lay = weights.layers[0]
    lay.wv.data[...] = np.eye(8)
    f = Tensor(np.random.default_rng(6).normal(size=(1, 8)))
    out = casnet.offset_attention(f, lay)
    assert np.allclose(out.data, f.data)


def test_offset_attention_single_point_closed_form():
    config = tiny_config(c=1)
    one = Tensor(np.array([[1.0]]))
    wg = Tensor(np.array([[2.0]]))
    bg = Tensor(np.array([0.5]))
    lay = casnet.OaLayerWeights(wq=one, wk=one, wv=Tensor(np.array([[3.0]])), wg=wg, bg=bg)
    f = Tensor(np.array([[1.5]]))
    out = casnet.offset_attention(f, lay)
    f_sa = 1.5 * 3.0
    expected = max((1.5 - f_sa) * 2.0 + 0.5, 0.0) + 1.5
    assert np.allclose(out.data, [[expected]])


@pytest.mark.parametrize("oa_layers", [1, 3])
def test_asm_concat_width_bookkeeping(oa_layers):
    config = tiny_config(oa_layers=oa_layers)
    weights = casnet.init_weights(config, 4)
    f = Tensor(np.random.default_rng(7).normal(size=(6, 8)))
    concat = casnet.asm(f, weights)
    assert concat.data.shape == (6, oa_layers * 8)
    for b, lay in enumerate(weights.layers):
        f = casnet.offset_attention(f, lay)
        assert np.array_equal(concat.data[:, b * 8 : (b + 1) * 8], f.data)


def test_soft_matrix_constant_scores_give_uniform_columns():
    config = tiny_config()
    weights = casnet.init_weights(config, 4)
    weights.rho_hidden[0].data[...] = 0.0
    weights.rho_hidden[1].data[...] = 1.0
    weights.rho_out.data[...] = np.random.default_rng(8).normal(size=weights.rho_out.data.shape)
    f = Tensor(np.random.default_rng(9).normal(size=(5, 8)))
    soft, _ = casnet.soft_matrix(f, weights)
    assert np.allclose(soft.data, 0.2)


def test_soft_matrix_columns_sum_to_one():
    config = tiny_config()
    weights = casnet.init_weights(config, 4)
    f = Tensor(np.random.default_rng(10).normal(size=(7, 8)))
    soft, _ = casnet.soft_matrix(f, weights)
    assert (soft.data >= 0).all()
    assert np.abs(soft.data.sum(axis=0) - 1.0).max() <= 1e-5


def test_soft_matrix_closed_form_small_case():
    config = tiny_config(oa_layers=1, c=1, score_hidden=1)
    w1 = Tensor(np.array([[1.0]]))
    b1 = Tensor(np.array([0.0]))
    w2 = Tensor(np.array([[1.0, 2.0]]))
    weights = casnet.init_weights(config, 2)
    weights.tensors.update({"rho.hidden.w": w1, "rho.hidden.b": b1, "rho.out.w": w2})
    f = Tensor(np.array([[1.0], [2.0], [3.0]]))
    soft = casnet.soft_matrix(f, weights)[0].data
    logits = np.maximum(f.data @ w1.data, 0) @ w2.data
    for col in range(2):
        e = np.exp(logits[:, col] - logits[:, col].max())
        assert np.allclose(soft[:, col], e / e.sum())


def test_soft_matrix_permutation_equivariance():
    config = tiny_config()
    weights = casnet.init_weights(config, 4)
    f = np.random.default_rng(11).normal(size=(6, 8))
    perm = np.random.default_rng(12).permutation(6)
    direct = casnet.soft_matrix(Tensor(f[perm]), weights)[0].data
    permuted = casnet.soft_matrix(Tensor(f), weights)[0].data[perm]
    assert np.allclose(direct, permuted, atol=1e-12)


def test_forward_assn_output_within_bounding_box():
    config = tiny_config(mode="assn")
    cloud = random_cloud(16, 22)
    weights = casnet.init_weights(config, 4)
    (out, rows), _, _ = casnet.forward(cloud, config, weights)
    assert out.n == 4
    assert (out.points >= cloud.points.min(axis=0) - 1e-12).all()
    assert (out.points <= cloud.points.max(axis=0) + 1e-12).all()
    assert rows is None


def test_assn_forward_leaves_its_tape_tensor_writeable_and_unshared():
    config = tiny_config(mode="assn")
    (out, _), p_sp, _ = casnet.forward(random_cloud(10, 25), config, casnet.init_weights(config, 4))
    assert p_sp.data.flags.writeable and not np.shares_memory(p_sp.data, out.points)
    assert out.points.dtype == p_sp.data.dtype and out.points.tobytes() == p_sp.data.tobytes()


def test_forward_ahsn_output_is_bitwise_subset():
    config = tiny_config(mode="ahsn")
    cloud = random_cloud(16, 23, dtype=np.float32)
    weights = casnet.init_weights(config, 4, dtype=np.float32)
    (out, idx), _, _ = casnet.forward(cloud, config, weights)
    rows = {row.tobytes() for row in cloud.points}
    assert all(row.tobytes() in rows for row in out.points)
    assert np.array_equal(out.points, cloud.points[idx])
    assert np.array_equal(idx, casnet.sample(cloud, config, weights)[1])


@pytest.mark.parametrize("mode", ["ahsn", "assn"])
def test_sample_returns_the_baselines_result_type(mode):
    config = tiny_config(mode=mode)
    cloud = random_cloud(16, 23)
    out = casnet.sample(cloud, config, casnet.init_weights(config, 4))
    assert isinstance(out, SampleResult) and out.cloud is out[0] and out.indices is out[1]
    assert (out.indices is None) == (mode == "assn")


def test_forward_returns_the_sample_and_the_tape_tensors_the_loss_reads():
    cloud = random_cloud(12, 24)
    for mode in ("ahsn", "assn"):
        config = tiny_config(mode=mode, oa_layers=2, k=3)
        sampled, p_sp, soft = casnet.forward(cloud, config, casnet.init_weights(config, 4))
        assert isinstance(sampled, SampleResult) and sampled.cloud.n == 4
        assert (sampled.indices is None) == (mode == "assn")
        assert p_sp.data.shape == (4, 3) and p_sp.requires_grad
        assert soft.data.shape == (12, 4) and soft.requires_grad


def test_projection_widths_share_output_dimension():
    weights = casnet.init_weights(tiny_config(), 4)
    lay = weights.layers[0]
    assert lay.wq.data.shape == lay.wk.data.shape == lay.wv.data.shape == (8, 8)


@pytest.mark.parametrize(
    "weights_oa, weights_m, config_oa, match",
    [
        pytest.param(1, 4, 3, "1 attention layers", id="config-deeper-than-weights"),
        pytest.param(3, 4, 1, "3 attention layers", id="weights-deeper-than-config"),
        pytest.param(1, 6, 1, "m=6", id="another-m"),
    ],
)
@pytest.mark.parametrize("run", [casnet.sample, casnet.forward], ids=["sample", "forward"])
def test_weights_that_do_not_fit_the_config_are_rejected(run, weights_oa, weights_m, config_oa, match):
    weights = casnet.init_weights(tiny_config(oa_layers=weights_oa), weights_m)
    with pytest.raises(ShapeMismatchError, match=match):
        run(random_cloud(16, 2), tiny_config(oa_layers=config_oa), weights)


def test_weight_container_round_trip():
    config = tiny_config(oa_layers=2)
    weights = casnet.init_weights(config, 4, dtype=np.float32)
    rebuilt = casnet.CasNetWeights.from_arrays(weights.to_arrays())
    for a, b in zip(weights.parameters(), rebuilt.parameters()):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("depth", [1, 3])
def test_layout_parameters_and_arrays_list_the_same_names_in_order(depth):
    weights = casnet.init_weights(tiny_config(oa_layers=depth), 4)
    shapes = casnet.layout(8, 8, 8, 4, depth)
    assert list(weights.to_arrays()) == list(shapes)
    assert [p.data.shape for p in weights.parameters()] == list(shapes.values())
    assert [p.data is a for p, a in zip(weights.parameters(), weights.to_arrays().values())] == [True] * len(shapes)


@pytest.mark.parametrize(
    "name, value, match",
    [
        pytest.param("oa.0.wk", None, r"^oa\.0\.wk is missing$", id="missing-attention-array"),
        pytest.param("rho.out.w", None, r"^rho\.out\.w is missing$", id="missing-matrix-read-for-m"),
        pytest.param("sigma.0.b", np.zeros(5, np.float32), r"^sigma\.0\.b has shape \(5,\), expected \(8,\)$", id="mis-shaped-bias"),
        pytest.param("sigma.1.w", np.zeros(8, np.float32), r"^sigma\.1\.w has shape \(8,\), expected a matrix$", id="vector-for-a-matrix"),
        pytest.param("rho.hidden.w", np.zeros((20, 8), np.float32), r"^rho\.hidden\.w has shape \(20, 8\), expected \(16, 8\)$", id="rows-not-depth-times-c"),
    ],
)
def test_from_arrays_rejects_a_missing_or_mis_shaped_array_naming_it(name, value, match):
    arrays = casnet.init_weights(tiny_config(oa_layers=2), 4, dtype=np.float32).to_arrays()
    if value is None:
        del arrays[name]
    else:
        arrays[name] = value
    with pytest.raises(ShapeMismatchError, match=match):
        casnet.CasNetWeights.from_arrays(arrays)


def test_from_arrays_ignores_the_other_network():
    weights = casnet.init_weights(tiny_config(), 4, dtype=np.float32)
    arrays = {**weights.to_arrays(), "head.cls.w": np.zeros((2, 2), np.float32)}
    assert list(casnet.CasNetWeights.from_arrays(arrays).to_arrays()) == list(weights.to_arrays())


def test_backward_ste_gradients_reach_score_weights():
    config = tiny_config(mode="ahsn")
    cloud = random_cloud(12, 26)
    weights = casnet.init_weights(config, 4)
    _, p_sp, soft = casnet.forward(cloud, config, weights)
    loss = total_loss(
        Tensor(np.asarray(0.0)),
        subset_loss(cloud, p_sp),
        cosine_loss(ad.transpose(soft)),
        1.0,
        1.0,
    )
    assert casnet.backward_ste is ad.backward
    casnet.backward_ste(loss.total)
    assert np.abs(weights.rho_out.grad).max() > 0
    assert np.abs(weights.sigma[0][0].grad).max() > 0


def test_ste_matches_soft_gradients_when_soft_is_nearly_one_hot():
    # scale the score weights so the column softmax saturates; the hardened
    # forward then coincides with the soft forward and so must its gradients
    config_soft = tiny_config(mode="assn", seed=5)
    config_hard = tiny_config(mode="ahsn", seed=5)
    cloud = random_cloud(10, 27)

    grads = {}
    for name, config in (("soft", config_soft), ("hard", config_hard)):
        weights = casnet.init_weights(config, 4)
        weights.rho_out.data *= 1e5
        _, p_sp, soft = casnet.forward(cloud, config, weights)
        loss = total_loss(
            Tensor(np.asarray(0.0)),
            subset_loss(cloud, p_sp),
            cosine_loss(ad.transpose(soft)),
            1.0,
            1.0,
        )
        ad.backward(loss.total)
        grads[name] = [p.grad.copy() for p in weights.parameters()]
        assert np.abs(soft.data.max(axis=0) - 1.0).max() < 1e-8

    for gs, gh in zip(grads["soft"], grads["hard"]):
        assert np.allclose(gs, gh, rtol=1e-5, atol=1e-10)


def test_fast_sample_matches_graph_forward_ahsn():
    config = tiny_config(mode="ahsn", k=1)
    cloud = random_cloud(32, 28)
    weights = casnet.init_weights(config, 4)
    (out_graph, rows), _, _ = casnet.forward(cloud, config, weights)
    out_fast, idx = casnet.sample(cloud, config, weights)
    assert np.array_equal(out_fast.points, out_graph.points)
    assert np.array_equal(idx, rows)


def test_fast_sample_matches_graph_forward_assn_full_config():
    config = tiny_config(mode="assn", k=4, oa_layers=2, m=6)
    for dtype in (np.float32, np.float64):
        cloud = random_cloud(24, 29, dtype=dtype)
        weights = casnet.init_weights(config, 6, dtype=dtype)
        sampled, _, _ = casnet.forward(cloud, config, weights)
        fast = casnet.sample(cloud, config, weights)
        assert sampled.indices is None and fast.indices is None
        assert np.array_equal(fast.cloud.points, sampled.cloud.points)


def test_sample_selects_the_rows_forward_selects_on_a_lidar_scale_float32_frame():
    cloud = PointCloud(_lidar_like_cloud(np.random.default_rng(12), 8192))
    config = CasNetConfig(k=32, oa_layers=3, radius=2.0, m=1024, mode="ahsn")
    weights = casnet.init_weights(config, 1024, dtype=np.float32, seed=3)
    for p in weights.parameters():
        p.requires_grad = False
    (out_graph, rows), _, _ = casnet.forward(cloud, config, weights)
    out_fast, idx = casnet.sample(cloud, config, weights)
    table = ball_query(cloud, 2.0, 32).indices
    assert (table == -1).any() and (table[:, -1] >= 0).any()
    assert np.array_equal(idx, rows)
    assert np.array_equal(out_fast.points, out_graph.points)


@pytest.mark.parametrize("mode", ["ahsn", "assn"])
def test_k1_runs_no_search_and_selects_the_rows_a_searched_table_gives(monkeypatch, mode):
    # every point of the first 12 appears twice: a search lists the lower copy
    # as the neighbour of both, and the skipped search gives the same offsets
    base = random_cloud(12, 31).points
    cloud = PointCloud(np.concatenate([base, base, random_cloud(8, 32).points]))
    config = tiny_config(mode=mode, k=1, oa_layers=2, radius=0.5, m=6)
    weights = casnet.init_weights(config, 6)
    table = ball_query(cloud, np.inf, 1)
    assert (table.indices[:, 0] != np.arange(cloud.n)).any()
    f_concat = casnet.asm(casnet.embed(casnet.combine(cloud, casnet.group_features(cloud, table)), weights), weights)
    soft, rows = casnet.soft_matrix(f_concat, weights)

    def no_search(*args):
        raise AssertionError("k=1 ran a neighbour search")

    monkeypatch.setattr(casnet, "find_neighbors", no_search)
    (out_graph, graph_rows), _, graph_soft = casnet.forward(cloud, config, weights)
    out_fast, idx = casnet.sample(cloud, config, weights)
    assert np.array_equal(graph_soft.data, soft.data)
    if mode == "ahsn":
        assert np.array_equal(graph_rows, rows)
        assert np.array_equal(idx, rows)
        assert np.array_equal(out_fast.points, cloud.points[rows])
    else:
        assert np.array_equal(out_fast.points, out_graph.points)
