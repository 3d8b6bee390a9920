"""Composite training objective: task loss plus subset and cosine regularizers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import DegenerateAxisError, EmptyCloudError, PointCloud


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, PointCloud):
        return Tensor(x.points)
    return Tensor(np.asarray(x))


def subset_loss(p_in: PointCloud, p_sp) -> Tensor:
    """Bidirectional mean of squared minimum distances between the two clouds.

    Keeps every input point near some output point and the output points
    spread over the input. The min backpropagates through its argmin branch
    (ties to the lower index).
    """
    sp = _as_tensor(p_sp)
    a = p_in.points.astype(sp.data.dtype, copy=False)
    b = sp.data
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        raise EmptyCloudError("subset_loss requires non-empty clouds")
    diff = a[:, None, :] - b[None, :, :]
    d = (diff * diff).sum(axis=-1)
    nearest_out = d.argmin(axis=1)  # for each input point
    nearest_in = d.argmin(axis=0)  # for each output point

    d1 = ad.sub(Tensor(a), ad.gather_rows(sp, nearest_out))
    term1 = ad.scale(ad.tsum(ad.mul(d1, d1)), 1.0 / n)
    d2 = ad.sub(sp, Tensor(a[nearest_in]))
    term2 = ad.scale(ad.tsum(ad.mul(d2, d2)), 1.0 / m)
    return ad.add(term1, term2)


def cosine_loss(soft, axis: str = "rows") -> Tensor:
    """Sum of |cos| over ordered pairs of distinct row (or column) vectors.

    Large values mean many near-parallel vectors, i.e. duplicated selections.
    Zero vectors contribute zero by convention.
    """
    v = _as_tensor(soft)
    if axis == "columns":
        v = ad.transpose(v)
    elif axis != "rows":
        raise ValueError(f"axis must be 'rows' or 'columns', got {axis!r}")
    p = v.data.shape[0]
    if p < 2:
        raise DegenerateAxisError("need at least two vectors along the chosen axis")
    gram = ad.matmul(v, ad.transpose(v))
    sq_norms = ad.tsum(ad.mul(v, v), axis=1, keepdims=True)
    # shift (near-)zero norms to ~1 (constant, carries no gradient): their
    # numerators are ~0, so those cosines read as 0 per the zero-vector
    # convention; the floor also keeps denormal norms out of the backward
    zero_shift = Tensor((sq_norms.data < 1e-30).astype(v.data.dtype))
    norms = ad.sqrt(ad.add(sq_norms, zero_shift))
    denom = ad.matmul(norms, ad.transpose(norms))
    cos = ad.div(gram, denom)
    off_diagonal = Tensor(1.0 - np.eye(p, dtype=v.data.dtype))
    return ad.tsum(ad.mul(ad.absolute(cos), off_diagonal))


@dataclass
class LossBreakdown:
    """Weighted sum with its components; total = task + alpha*subset + beta*cosine."""

    total: Tensor
    task: Tensor
    subset: Tensor
    cosine: Tensor
    alpha: float
    beta: float

    def values(self) -> tuple[float, float, float, float]:
        return (self.total.item(), self.task.item(), self.subset.item(), self.cosine.item())


def total_loss(task: Tensor, subset: Tensor, cosine: Tensor, alpha: float = 1.0, beta: float = 1.0) -> LossBreakdown:
    total = ad.add(task, ad.add(ad.scale(subset, alpha), ad.scale(cosine, beta)))
    return LossBreakdown(total=total, task=task, subset=subset, cosine=cosine, alpha=alpha, beta=beta)
