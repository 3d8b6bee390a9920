import numpy as np
import pytest

from pcsimp import autodiff as ad
from pcsimp.autodiff import Tensor
from pcsimp.cli import _gradcheck_op_cases
from pcsimp.core import ConfigError, ShapeMismatchError


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def test_matmul_identity():
    x = t([[1.0, 2], [3, 4]])
    out = ad.matmul(Tensor(np.eye(2)), x)
    assert np.array_equal(out.data, x.data)


def test_matmul_hand_case():
    a = t([[1.0, 0, 2], [0, 1, 1]])
    b = t([[1.0, 1], [2, 0], [0, 3]])
    assert np.array_equal(ad.matmul(a, b).data, [[1, 7], [2, 3]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


def test_matmul_gradient_of_sum_is_row_sums():
    a = t(np.random.default_rng(0).normal(size=(3, 4)))
    b = t(np.random.default_rng(1).normal(size=(4, 2)))
    ad.backward(ad.tsum(ad.matmul(a, b)))
    # d sum(AB) / dA = ones @ B^T: every row holds B's row sums
    expected = np.tile(b.data.sum(axis=1), (3, 1))
    assert np.allclose(a.grad, expected)


def test_elementwise_ops_forward():
    x = t([[1.0, -2], [3, 4]])
    y = t([[2.0, 2], [2, 2]])
    assert np.array_equal(ad.add(x, y).data, [[3, 0], [5, 6]])
    assert np.array_equal(ad.sub(x, y).data, [[-1, -4], [1, 2]])
    assert np.array_equal(ad.mul(x, y).data, [[2, -4], [6, 8]])
    assert np.array_equal(ad.div(x, y).data, [[0.5, -1], [1.5, 2]])
    assert np.array_equal(ad.scale(x, 2.0).data, [[2, -4], [6, 8]])
    assert np.array_equal(ad.relu(x).data, [[1, 0], [3, 4]])
    assert np.array_equal(ad.absolute(x).data, [[1, 2], [3, 4]])


def test_transpose_and_reshape_round_trip():
    x = t(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert np.array_equal(ad.transpose(x).data, x.data.T)
    assert np.array_equal(ad.reshape(x, (3, 2)).data.reshape(2, 3), x.data)


def test_concat_cols_layout_and_gradient_split():
    a = t(np.ones((2, 2)))
    b = t(np.full((2, 3), 2.0))
    out = ad.concat_cols([a, b])
    assert out.data.shape == (2, 5)
    ad.backward(ad.tsum(ad.mul(out, out)))
    assert np.allclose(a.grad, 2.0)
    assert np.allclose(b.grad, 4.0)


def test_max_over_axis_ties_route_to_lower_index():
    x = t([[1.0, 5.0, 5.0]])
    out = ad.max_over_axis(x, axis=1)
    ad.backward(ad.tsum(out))
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])


def test_softmax_constant_row_is_uniform():
    x = t(np.full((2, 4), 3.7))
    out = ad.softmax(x, axis=1)
    assert np.allclose(out.data, 0.25)


def test_softmax_closed_form():
    x = t([[0.0, np.log(3.0)]])
    assert np.allclose(ad.softmax(x, axis=1).data, [[0.25, 0.75]])


def test_softmax_rows_sum_to_one_for_wide_range():
    rng = np.random.default_rng(3)
    x = t(rng.uniform(-50, 50, size=(20, 7)))
    out = ad.softmax(x, axis=1)
    assert (out.data >= 0).all()
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


def test_cross_entropy_aligned_logits_approach_zero():
    logits = t([[50.0, 0.0, 0.0]])
    loss = ad.cross_entropy(logits, np.array([0]))
    assert float(loss.data) < 1e-8


def test_cross_entropy_uniform_logits():
    logits = t(np.zeros((1, 4)))
    loss = ad.cross_entropy(logits, np.array([2]))
    assert np.isclose(float(loss.data), np.log(4.0))


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(ConfigError, match=r"^labels must lie in \[0, 3\)$"):
        ad.cross_entropy(t(np.zeros((1, 3))), np.array([3]))


def test_backward_scales_linear_chain():
    x = t(3.0)
    y = ad.scale(x, 2.0)
    ad.backward(y)
    assert float(x.grad) == 2.0


def test_backward_quadratic():
    x = t([1.0, -2.0, 3.0])
    y = ad.tsum(ad.mul(x, x))
    ad.backward(y)
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_diamond_fanout_accumulates():
    x = t(2.0)
    a = ad.scale(x, 3.0)
    b = ad.scale(x, 4.0)
    y = ad.add(a, b)
    ad.backward(y)
    assert float(x.grad) == 7.0


def test_backward_rejects_non_scalar_root():
    with pytest.raises(ShapeMismatchError, match=r"^backward root must be scalar, got shape \(3,\)$"):
        ad.backward(t(np.ones(3)))


def test_gather_rows_scatter_adds_duplicates():
    x = t(np.arange(6, dtype=np.float64).reshape(3, 2))
    out = ad.gather_rows(x, np.array([0, 2, 2]))
    ad.backward(ad.tsum(out))
    assert np.array_equal(x.grad, [[1, 1], [0, 0], [2, 2]])


def test_ste_harden_forward_gathers_the_rows_backward_passes_the_products_gradient():
    values = [[0.2, 0.6], [0.5, 0.3], [0.3, 0.1]]
    soft, dense = t(values), t(values)
    points = np.arange(9.0).reshape(3, 3) - 4
    upstream = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
    hard = ad.ste_harden(soft, np.array([1, 0]), points)
    assert np.array_equal(hard.data, points[[1, 0]])
    ad.backward(ad.tsum(ad.mul(hard, upstream)))
    # straight through: S~ gets the gradient it gets when it forms the sample as S~^T P
    ad.backward(ad.tsum(ad.mul(ad.matmul(ad.transpose(dense), Tensor(points)), upstream)))
    assert np.array_equal(soft.grad, dense.grad)


def test_finite_diff_quadratic_tight():
    x = t([1.3, -0.4, 0.9])
    err = ad.finite_diff_check(lambda ps: ad.tsum(ad.mul(ps[0], ps[0])), [x])
    assert err < 1e-9


def test_finite_diff_linear_is_nearly_exact():
    x = t([0.3, 0.7])
    w = Tensor(np.array([2.0, -1.5]))
    err = ad.finite_diff_check(lambda ps: ad.tsum(ad.mul(ps[0], w)), [x])
    assert err < 1e-10


def test_no_graph_retention_without_requires_grad():
    # each case's output is built by its op and the ops around it; with
    # constant inputs none of them may keep parents or a backward rule
    cases = _gradcheck_op_cases()
    cases.append(("ste_harden", [t(np.ones((3, 2)))], lambda ps: ad.ste_harden(ps[0], np.array([1, 0]), np.ones((3, 3)))))
    for name, params, fn in cases:
        for p in params:
            p.requires_grad = False
        out = fn(params)
        assert out._parents == () and out._backward is None, name
        assert not out.requires_grad, name


def _nodes(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.mark.parametrize(
    "op",
    [
        lambda x, y: ad.add(x, y),
        lambda x, y: ad.sub(x, y),
        lambda x, y: ad.transpose(x),
        lambda x, y: ad.reshape(x, (3, 2)),
        lambda x, y: ad.concat_cols([x, y]),
        lambda x, y: ad.tsum(x, axis=0),
        lambda x, y: ad.ste_harden(x, np.array([0, 1, 1]), np.ones((2, 3))),
        lambda x, y: ad.add(x, x),
    ],
    ids=["add", "sub", "transpose", "reshape", "concat_cols", "tsum", "ste_harden", "add_x_x"],
)
def test_no_two_gradients_share_memory(op):
    # these vjps pass the node's gradient, or a view of it, to a parent: the
    # parent's first gradient must be a copy, or a later += writes through
    rng = np.random.default_rng(0)
    x, y = t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 3)))
    out = op(x, y)
    root = ad.tsum(ad.mul(out, Tensor(rng.normal(size=out.shape))))
    ad.backward(root)
    grads = [n.grad for n in _nodes(root) if n.grad is not None]
    assert len(grads) >= 4
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "weights.pcw"
    arrays = {
        "layer.w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "layer.b": np.array([1.5, -2.25], dtype=np.float32),
    }
    ad.save_arrays(path, arrays)
    loaded = ad.load_arrays(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert np.array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == np.float32


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "weights.pcw"
    ad.save_arrays(path, {"w": np.zeros(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[0] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ad.IoFailureError):
        ad.load_arrays(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "weights.pcw"
    ad.save_arrays(path, {"w": np.zeros(8, dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ad.IoFailureError):
        ad.load_arrays(path)
