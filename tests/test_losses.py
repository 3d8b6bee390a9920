import numpy as np
import pytest

from pcsimp import autodiff as ad
from pcsimp.autodiff import Tensor
from pcsimp.core import PointCloud, ShapeMismatchError
from pcsimp.losses import cosine_loss, subset_loss, total_loss


def subset_oracle(a, b):
    """Double-loop bidirectional mean of squared minimum distances."""
    term1 = np.mean([min(((x - y) ** 2).sum() for y in b) for x in a])
    term2 = np.mean([min(((y - x) ** 2).sum() for x in a) for y in b])
    return term1 + term2


def cosine_oracle(vectors):
    """Double loop over ordered pairs of |cos|; zero vectors contribute 0."""
    total = 0.0
    p = len(vectors)
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            ni, nj = np.linalg.norm(vectors[i]), np.linalg.norm(vectors[j])
            if ni == 0 or nj == 0:
                continue
            total += abs(float(vectors[i] @ vectors[j]) / (ni * nj))
    return total


def test_subset_loss_zero_for_identical_clouds():
    pts = np.random.default_rng(0).normal(size=(10, 3))
    assert float(subset_loss(PointCloud(pts), Tensor(pts)).data) == 0.0


def test_subset_loss_single_pair_closed_form():
    a = PointCloud(np.array([[0.0, 0, 0]]))
    b = Tensor(np.array([[1.0, 0, 0]]))
    assert np.isclose(float(subset_loss(a, b).data), 2.0)


def test_subset_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(20, 3))
    b = rng.normal(size=(7, 3))
    got = float(subset_loss(PointCloud(a), Tensor(b)).data)
    assert np.isclose(got, subset_oracle(a, b), atol=1e-6)


def test_subset_loss_symmetric_for_equal_sizes():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
    fwd = float(subset_loss(PointCloud(a), Tensor(b)).data)
    rev = float(subset_loss(PointCloud(b), Tensor(a)).data)
    assert np.isclose(fwd, rev, atol=1e-12)


def test_subset_loss_nonnegative_and_gradient_flows():
    rng = np.random.default_rng(6)
    a = PointCloud(rng.normal(size=(12, 3)))
    sp = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    loss = subset_loss(a, sp)
    assert float(loss.data) > 0
    ad.backward(loss)
    assert np.abs(sp.grad).max() > 0


def test_subset_loss_gradient_against_finite_differences():
    rng = np.random.default_rng(7)
    a = PointCloud(rng.normal(size=(8, 3)))
    sp = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    err = ad.finite_diff_check(lambda ps: subset_loss(a, ps[0]), [sp])
    assert err < 1e-7


def test_cosine_loss_orthogonal_rows_is_zero():
    soft = Tensor(np.eye(3))
    assert float(cosine_loss(soft).data) == 0.0


def test_cosine_loss_two_identical_rows_counts_ordered_pairs():
    v = Tensor(np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]]))
    assert np.isclose(float(cosine_loss(v).data), 2.0)


def test_cosine_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 3))
    got = float(cosine_loss(Tensor(m)).data)
    assert np.isclose(got, cosine_oracle(m), atol=1e-6)
    got_cols = float(cosine_loss(ad.transpose(Tensor(m))).data)
    assert np.isclose(got_cols, cosine_oracle(m.T), atol=1e-6)


def test_cosine_loss_invariant_under_positive_rescaling():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(5, 4))
    base = float(cosine_loss(Tensor(m)).data)
    scaled = m.copy()
    scaled[2] *= 37.5
    assert np.isclose(float(cosine_loss(Tensor(scaled)).data), base, atol=1e-9)


def test_cosine_loss_zero_rows_contribute_nothing():
    m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    got = float(cosine_loss(Tensor(m)).data)
    assert np.isclose(got, cosine_oracle(m), atol=1e-12)
    assert np.isclose(got, 0.0)


def test_cosine_loss_rejects_single_vector():
    with pytest.raises(ShapeMismatchError, match=r"^need at least two vectors$"):
        cosine_loss(Tensor(np.ones((1, 4))))


def test_duplicate_columns_increase_column_cosine_loss():
    # one-hot columns selecting distinct rows vs two columns selecting the same row
    distinct = np.zeros((4, 3))
    distinct[0, 0] = distinct[1, 1] = distinct[2, 2] = 1.0
    collided = np.zeros((4, 3))
    collided[0, 0] = collided[0, 1] = collided[2, 2] = 1.0
    low = float(cosine_loss(ad.transpose(Tensor(distinct))).data)
    high = float(cosine_loss(ad.transpose(Tensor(collided))).data)
    assert high > low


def test_cosine_loss_gradient_against_finite_differences():
    rng = np.random.default_rng(10)
    v = Tensor(rng.normal(size=(4, 3)) + 0.2, requires_grad=True)
    err = ad.finite_diff_check(lambda ps: cosine_loss(ps[0]), [v])
    assert err < 1e-7


def test_total_loss_weighted_sum():
    one = Tensor(np.asarray(1.0))
    two = Tensor(np.asarray(2.0))
    three = Tensor(np.asarray(3.0))
    assert float(total_loss(one, two, three, 1.0, 1.0).total.data) == 6.0
    assert float(total_loss(one, two, three, 1.0, 0.0).total.data) == 3.0
    assert float(total_loss(one, two, three, 0.5, 2.0).total.data) == 8.0


def test_total_loss_identity_holds_tightly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        task, subset, cosine = (Tensor(np.asarray(v)) for v in rng.normal(size=3) ** 2)
        alpha, beta = rng.uniform(0, 3, size=2)
        b = total_loss(task, subset, cosine, alpha, beta)
        expected = float(task.data) + alpha * float(subset.data) + beta * float(cosine.data)
        assert abs(float(b.total.data) - expected) < 1e-9


def test_total_loss_gradient_is_weighted_sum_of_components():
    x = Tensor(np.array([0.7, -0.3]), requires_grad=True)

    def objective(ps):
        task = ad.tsum(ad.mul(ps[0], ps[0]))
        subset = ad.tsum(ad.absolute(ps[0]))
        cosine = ad.scale(ad.tsum(ps[0]), 2.0)
        return total_loss(task, subset, cosine, alpha=0.5, beta=1.5).total

    err = ad.finite_diff_check(objective, [x])
    assert err < 1e-8
