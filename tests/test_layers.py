"""Each layer node of casnet against a tape oracle.

The oracle composes the same layer from autodiff ops, so its backward is
derived op by op by the tape. Outputs and gradients are compared in float64,
each array to RTOL relative to its norm, or to a thousandth of the largest
norm of its set where that is larger: a gradient that is exactly zero (Q and
K of a one-point attention) compares against rounding.
"""

import numpy as np
import pytest

from pcsimp import autodiff as ad
from pcsimp import casnet
from pcsimp.autodiff import Tensor
from pcsimp.core import CasNetConfig, PointCloud
from pcsimp.losses import cosine_loss, subset_loss, total_loss
from pcsimp.nnsearch import find_neighbors

RTOL = 5e-12


def tape_embed(combined, weights):
    n, k, width = combined.shape
    (w1, b1), (w2, b2) = weights.sigma
    x = Tensor(combined.reshape(n * k, width))
    h = ad.relu(ad.add_rowvec(ad.matmul(x, w1), b1))
    h = ad.add_rowvec(ad.matmul(h, w2), b2)
    return ad.max_over_axis(ad.reshape(h, (n, k, weights.sigma[1][0].data.shape[1])), axis=1)


def tape_offset_attention(f_in, lay):
    q, k, v = (ad.matmul(f_in, w) for w in (lay.wq, lay.wk, lay.wv))
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(lay.wk.data.shape[1]))
    f_sa = ad.matmul(ad.softmax(scores, axis=1), v)
    return ad.add(ad.relu(ad.add_rowvec(ad.matmul(ad.sub(f_in, f_sa), lay.wg), lay.bg)), f_in)


def tape_soft_matrix(f_concat, weights):
    w1, b1 = weights.rho_hidden
    h = ad.relu(ad.add_rowvec(ad.matmul(f_concat, w1), b1))
    return ad.softmax(ad.matmul(h, weights.rho_out), axis=0)


def tape_forward(cloud, config, weights):
    """The whole sampler on the tape; returns (P_sp, S~)."""
    table = find_neighbors(cloud, config.radius, config.k)
    f = tape_embed(casnet.combine(cloud, casnet.group_features(cloud, table)), weights)
    outputs = []
    for lay in weights.layers:
        f = tape_offset_attention(f, lay)
        outputs.append(f)
    soft = tape_soft_matrix(ad.concat_cols(outputs) if len(outputs) > 1 else outputs[0], weights)
    chosen = soft
    if config.mode == "ahsn":
        # the straight-through step in its dense form: a one-hot of each
        # column's row forward, the identity back to S~
        one_hot = np.zeros_like(soft.data)
        one_hot[soft.data.argmax(axis=0), np.arange(soft.data.shape[1])] = 1.0
        chosen = ad.custom(one_hot, (soft,), lambda g: (g,))
    return ad.matmul(ad.transpose(chosen), Tensor(cloud.points)), soft


def config_of(**overrides):
    base = dict(k=4, oa_layers=2, c=8, m=5, mode="assn", radius=0.3, embed_hidden=8, score_hidden=8, seed=0)
    base.update(overrides)
    return CasNetConfig(**base)


def unit_weights(config, m, seed=0):
    """Weights at a scale where relu units are active and inactive and the
    softmaxes are far from uniform but not saturated, which would leave some
    gradients at rounding level."""
    weights = casnet.init_weights(config, m)
    rng = np.random.default_rng(seed)
    for p in weights.parameters():
        p.data[...] = rng.normal(scale=0.5, size=p.data.shape)
    return weights


def grads(out, params, upstream):
    """Gradients of sum(out * upstream) with respect to params."""
    for p in params:
        p.zero_grad()
    ad.backward(ad.tsum(ad.mul(out, Tensor(upstream))))
    return [p.grad.copy() for p in params]


def assert_close(got, want):
    floor = 1e-3 * max(np.linalg.norm(b) for b in want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.linalg.norm(a - b) <= RTOL * max(np.linalg.norm(b), floor)


def padded_input(n, k, radius, seed):
    cloud = PointCloud(np.random.default_rng(seed).random((n, 3)))
    table = find_neighbors(cloud, radius, k)
    return casnet.combine(cloud, casnet.group_features(cloud, table)), table


@pytest.mark.parametrize("k, radius", [(6, 0.3), (1, 0.3), (6, 2.0)], ids=["padded", "k1", "full-rows"])
def test_embed_matches_tape(k, radius):
    combined, table = padded_input(40, k, radius, seed=1)
    if k > 1 and radius < 1:
        assert (table.indices == -1).any()
    weights = unit_weights(config_of(k=k), 5)
    params = [p for pair in weights.sigma for p in pair]
    got, want = casnet.embed(combined, weights), tape_embed(combined, weights)
    assert np.array_equal(got.data, want.data)
    upstream = np.random.default_rng(2).normal(size=got.data.shape)
    assert_close(grads(got, params, upstream), grads(want, params, upstream))


def test_embed_tied_maxima_send_the_gradient_to_the_lowest_slot():
    # two slots whose first channel ties at 1 + 2 = 2 + 1 from different inputs;
    # with an identity first layer and zero biases the hidden layer copies the inputs
    weights = casnet.init_weights(config_of(c=2, embed_hidden=6), 5)
    (w1, b1), (w2, b2) = weights.sigma
    w1.data[...] = np.eye(6)
    b1.data[...] = 0.0
    w2.data[...] = 0.0
    w2.data[:2, 0] = 1.0
    w2.data[2, 1] = 1.0
    b2.data[...] = 0.0
    combined = np.array([[[1.0, 2.0, 0, 0, 0, 0], [2.0, 1.0, 0, 0, 0, 0]]])
    out = casnet.embed(combined, weights)
    assert out.data[0, 0] == 3.0
    g_w1, _, g_w2, _ = grads(out, [w1, b1, w2, b2], np.array([[1.0, 0.0]]))
    assert np.array_equal(g_w2[:, 0], [1.0, 2.0, 0, 0, 0, 0])  # slot 0's hidden row
    assert_close([g_w1, g_w2], grads(tape_embed(combined, weights), [w1, w2], np.array([[1.0, 0.0]])))


@pytest.mark.parametrize("k, radius", [(32, 2.0), (32, 0.3), (1, 0.3)], ids=["k32", "k32-padded", "k1"])
def test_embed_over_several_blocks_matches_tape(k, radius):
    # two full blocks and a partial last one
    step = casnet.EMBED_BLOCK_SLOTS // k
    combined, table = padded_input(2 * step + 5, k, radius, seed=10)
    assert (table.indices == -1).any() == (radius < 1 and k > 1)
    weights = unit_weights(config_of(k=k), 5)
    params = [p for pair in weights.sigma for p in pair]
    got, want = casnet.embed(combined, weights), tape_embed(combined, weights)
    assert_close([got.data], [want.data])
    upstream = np.random.default_rng(11).normal(size=got.data.shape)
    assert_close(grads(got, params, upstream), grads(want, params, upstream))


def test_embed_tied_maximum_in_the_last_block_sends_the_gradient_to_the_lowest_slot():
    # the first-test construction, at a point of a partial last block: slots 0
    # and 1 tie at 1 + 2 = 2 + 1 in channel 0; every other slot sums below 2
    k = 2
    n = 2 * (casnet.EMBED_BLOCK_SLOTS // k) + 3
    weights = casnet.init_weights(config_of(c=2, embed_hidden=6), 5)
    (w1, b1), (w2, b2) = weights.sigma
    w1.data[...] = np.eye(6)
    b1.data[...] = 0.0
    w2.data[...] = 0.0
    w2.data[:2, 0] = 1.0
    w2.data[2, 1] = 1.0
    b2.data[...] = 0.0
    combined = np.random.default_rng(12).uniform(size=(n, k, 6))
    combined[n - 2, :, :2] = [[1.0, 2.0], [2.0, 1.0]]
    upstream = np.random.default_rng(13).normal(size=(n, 2))
    out = casnet.embed(combined, weights)
    assert out.data[n - 2, 0] == 3.0
    g_w1, _, g_w2, _ = grads(out, [w1, b1, w2, b2], upstream)
    want_w1, want_w2 = grads(tape_embed(combined, weights), [w1, w2], upstream)
    assert_close([g_w1, g_w2], [want_w1, want_w2])
    # moving the tied point's gradient to slot 1 swaps its first two hidden units
    swapped = want_w2[:, 0].copy()
    swapped[:2] += upstream[n - 2, 0] * np.array([1.0, -1.0])
    assert np.linalg.norm(g_w2[:, 0] - swapped) > 0.5


def _slot_winners(combined, weights):
    """Each (point, channel)'s winning slot, by a plain argmax over the per-slot outputs."""
    (w1, b1), (w2, b2) = weights.sigma
    n, k, width = combined.shape
    h = np.maximum(combined.reshape(n * k, width) @ w1.data + b1.data, 0)
    return (h @ w2.data + b2.data).reshape(n, k, -1).argmax(axis=1)


@pytest.mark.parametrize("spread", [False, True], ids=["one-slot-wins-all", "all-slots-win"])
def test_embed_backward_with_one_winning_slot_or_every_slot_winning(spread):
    # two blocks of k=32 slots, the second partial, at the two extremes of the
    # slot rows the backward keeps: one per point, or all 32 of every point
    k, c = 32, 64
    n = casnet.EMBED_BLOCK_SLOTS // k + 5
    rng = np.random.default_rng(14)
    if spread:
        # channel ch is the tent relu(t - a + 1) - 2 relu(t - a) + relu(t - a - 1)
        # with a = ch % 32, which is 1 at t = a and 0 at every other integer;
        # slot j carries t = j, so slot ch % 32 wins channel ch
        weights = casnet.init_weights(config_of(k=k, c=c, embed_hidden=3 * c), 5)
        (w1, b1), (w2, b2) = weights.sigma
        a = np.arange(c) % k
        w1.data[...] = 0.0
        w1.data[3] = 1.0
        w2.data[...] = 0.0
        for unit, (shift, weight) in enumerate([(1, 1.0), (0, -2.0), (-1, 1.0)]):
            b1.data[unit::3] = shift - a
            w2.data[np.arange(unit, 3 * c, 3), np.arange(c)] = weight
        b2.data[...] = rng.normal(size=c)
        combined = rng.normal(size=(n, k, 6))
        combined[:, :, 3] = np.arange(k)
        want_winner = np.broadcast_to(a, (n, c))
    else:
        # positive weights make every channel increase with every input, and
        # point i's slot i % 32 holds the largest inputs
        weights = unit_weights(config_of(k=k, c=c, embed_hidden=16), 5, seed=15)
        for pair in weights.sigma:
            for p in pair:
                p.data[...] = np.abs(p.data) + 0.1
        combined = rng.uniform(size=(n, k, 6))
        combined[np.arange(n), np.arange(n) % k] += 2.0
        want_winner = np.broadcast_to((np.arange(n) % k)[:, None], (n, c))
    assert np.array_equal(_slot_winners(combined, weights), want_winner)
    params = [p for pair in weights.sigma for p in pair]
    got, want = casnet.embed(combined, weights), tape_embed(combined, weights)
    assert np.array_equal(got.data, want.data)
    upstream = rng.normal(size=got.data.shape)
    assert_close(grads(got, params, upstream), grads(want, params, upstream))


@pytest.mark.parametrize("n", [1, 7, casnet.ATTENTION_BLOCK_ROWS + 44])
def test_offset_attention_matches_tape(n):
    lay = unit_weights(config_of(), 5).layers[0]
    f_in = Tensor(np.random.default_rng(3).normal(size=(n, 8)), requires_grad=True)
    params = [f_in, lay.wq, lay.wk, lay.wv, lay.wg, lay.bg]
    got, want = casnet.offset_attention(f_in, lay), tape_offset_attention(f_in, lay)
    assert_close([got.data], [want.data])
    upstream = np.random.default_rng(4).normal(size=(n, 8))
    assert_close(grads(got, params, upstream), grads(want, params, upstream))


def test_offset_attention_values_do_not_depend_on_keeping_activations():
    lay = unit_weights(config_of(), 5).layers[0]
    f = np.random.default_rng(5).normal(size=(casnet.ATTENTION_BLOCK_ROWS * 2 + 3, 8))
    kept = casnet.offset_attention(Tensor(f, requires_grad=True), lay)
    for p in (lay.wq, lay.wk, lay.wv, lay.wg, lay.bg):
        p.requires_grad = False
    blocked = casnet.offset_attention(Tensor(f), lay)
    assert blocked._backward is None and kept._backward is not None
    assert np.array_equal(blocked.data, kept.data)


@pytest.mark.parametrize("n", [5, casnet.ATTENTION_BLOCK_ROWS + 44])
def test_soft_matrix_matches_tape(n):
    weights = unit_weights(config_of(), 5)
    f = Tensor(np.random.default_rng(6).normal(size=(n, 16)), requires_grad=True)
    params = [f, *weights.rho_hidden, weights.rho_out]
    (got, rows), want = casnet.soft_matrix(f, weights), tape_soft_matrix(f, weights)
    assert_close([got.data], [want.data])
    logits = np.maximum(f.data @ weights.rho_hidden[0].data + weights.rho_hidden[1].data, 0) @ weights.rho_out.data
    assert np.array_equal(rows, logits.argmax(axis=0))
    none, same_rows = casnet.soft_matrix(f, weights, keep_soft=False)
    assert none is None and np.array_equal(same_rows, rows)
    upstream = np.random.default_rng(7).normal(size=(n, 5))
    assert_close(grads(got, params, upstream), grads(want, params, upstream))


def test_hard_rows_come_from_the_logits_not_the_rounded_softmax():
    # two float32 logits one ulp apart: exp rounds their softmax values to one
    # value, whose argmax would be the lower row; the logits pick the larger
    config = config_of(oa_layers=1, c=1, score_hidden=1, m=1)
    weights = casnet.init_weights(config, 1, dtype=np.float32)
    ones = Tensor(np.ones((1, 1), np.float32))
    weights.tensors.update({"rho.hidden.w": ones, "rho.hidden.b": Tensor(np.zeros(1, np.float32)), "rho.out.w": ones})
    low = np.float32(0.1)
    f = Tensor(np.array([[low], [np.nextafter(low, np.float32(1))]]))
    soft, rows = casnet.soft_matrix(f, weights)
    assert soft.data[0, 0] == soft.data[1, 0]
    assert rows.tolist() == [1]


@pytest.mark.parametrize("mode", ["assn", "ahsn"])
@pytest.mark.parametrize("k, oa_layers, radius", [(4, 2, 0.3), (1, 1, 2.0), (6, 3, 2.0)], ids=["padded", "k1", "full-rows"])
def test_network_gradients_match_tape(mode, k, oa_layers, radius):
    config = config_of(mode=mode, k=k, oa_layers=oa_layers, radius=radius)
    cloud = PointCloud(np.random.default_rng(8).random((24, 3)))
    weights = unit_weights(config, 5, seed=9)
    params = weights.parameters()

    def loss(p_sp, soft):
        return total_loss(Tensor(np.asarray(0.0)), subset_loss(cloud, p_sp), cosine_loss(ad.transpose(soft)), 1.0, 1.0).total

    _, net_p_sp, net_soft = casnet.forward(cloud, config, weights)
    p_sp, soft = tape_forward(cloud, config, weights)
    assert_close([net_soft.data, net_p_sp.data], [soft.data, p_sp.data])
    assert_close(grads(loss(net_p_sp, net_soft), params, 1.0), grads(loss(p_sp, soft), params, 1.0))


@pytest.mark.parametrize("keep_soft", [True, False])
def test_hard_rows_break_ties_to_the_lower_row_across_blocks(keep_soft):
    weights = unit_weights(config_of(), 5)
    f = Tensor(np.ones((casnet.ATTENTION_BLOCK_ROWS + 1, 16)))
    _, rows = casnet.soft_matrix(f, weights, keep_soft=keep_soft)
    assert rows.tolist() == [0] * 5


# float32 inputs at a scale where each attention row's scores, and each score
# column's logits, spread over more than 110, so that exp of the max-shifted
# values would span the float32 subnormal range (about -87 to -103)
F32 = np.float32


def is_subnormal(a):
    a = np.abs(a)
    return (a > 0) & (a < np.finfo(a.dtype).tiny)


def wide_attention(n=96, seed=20):
    """Small integers in F and in Q and K's weights, at c=4 (1/sqrt(d_k) = 0.5),
    so that float32 computes every score exactly: a float32 output differs
    from the float64 one by the rounding after the scores only."""
    rng = np.random.default_rng(seed)
    lay = unit_weights(config_of(c=4), 5, seed=seed).detached(F32).layers[0]
    lay.wq.data[...] = rng.integers(-3, 4, size=(4, 4))
    lay.wk.data[...] = rng.integers(-3, 4, size=(4, 4))
    f = rng.integers(-5, 6, size=(n, 4)).astype(F32)
    for p in (lay.wq, lay.wk, lay.wv, lay.wg, lay.bg):
        p.requires_grad = True
    scores = (f @ lay.wq.data) @ (f @ lay.wk.data).T / 2
    shifted = scores - scores.max(axis=1, keepdims=True)
    assert (shifted.min(axis=1) < -110).all() and ((shifted < -87.4) & (shifted > -103.3)).sum() > n
    return f, lay


def test_offset_attention_in_float32_makes_no_subnormal_output_or_gradient():
    f, lay = wide_attention()
    f_in = Tensor(f, requires_grad=True)
    params = [f_in, lay.wq, lay.wk, lay.wv, lay.wg, lay.bg]
    upstream = np.random.default_rng(21).normal(size=(len(f), 4)).astype(F32)
    # no step of the forward or backward, exp included, underflows
    with np.errstate(under="raise"):
        out = casnet.offset_attention(f_in, lay)
        g = grads(out, params, upstream)
    for a in [out.data, *g]:
        assert a.dtype == F32 and not is_subnormal(a).any()


def test_offset_attention_in_float32_keeps_kept_and_unkept_values_equal():
    f, lay = wide_attention(n=casnet.ATTENTION_BLOCK_ROWS + 40)
    kept = casnet.offset_attention(Tensor(f, requires_grad=True), lay)
    for p in (lay.wq, lay.wk, lay.wv, lay.wg, lay.bg):
        p.requires_grad = False
    assert np.array_equal(casnet.offset_attention(Tensor(f), lay).data, kept.data)


def test_offset_attention_in_float32_stays_close_to_float64():
    f, lay = wide_attention()
    got = casnet.offset_attention(Tensor(f), lay).data
    lay64 = casnet.OaLayerWeights(*(Tensor(p.data.astype(np.float64)) for p in (lay.wq, lay.wk, lay.wv, lay.wg, lay.bg)))
    want = tape_offset_attention(Tensor(f.astype(np.float64)), lay64).data
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_soft_matrix_in_float32_flushes_entries_below_the_normal_floor():
    weights = unit_weights(config_of(), 5, seed=22).detached(F32)
    f = Tensor((np.random.default_rng(23).normal(size=(200, 16)) * 30).astype(F32))
    logits = np.maximum(f.data @ weights.rho_hidden[0].data + weights.rho_hidden[1].data, 0) @ weights.rho_out.data
    shifted = logits - logits.max(axis=0)
    assert (shifted.min(axis=0) < -110).all() and ((shifted < -87.4) & (shifted > -103.3)).any()
    soft, _ = casnet.soft_matrix(f, weights)
    s = soft.data
    assert s.dtype == F32 and not ((s > 0) & (s < np.sqrt(np.finfo(F32).tiny))).any()
    assert np.allclose(s.sum(axis=0), 1, atol=1e-6)
