"""Attention-based sampler of point clouds.

Pipeline: neighbor grouping -> per-point feature embedding -> stacked
offset-attention layers -> soft sampling matrix -> soft (ASSN) or hardened
(AHSN) selection. The network is defined once: embed, offset_attention and
soft_matrix are each one autodiff node computed over plain arrays, with a
hand-written backward. forward() joins them on the tape for training (a hard
sample is its input rows, one straight-through node, and the losses stay tape
ops); sample() runs the same layers on weights that require no gradient, so no
layer keeps an activation and attention runs in row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import (
    CasNetConfig,
    NeighborTable,
    PointCloud,
    SampleResult,
    SENTINEL,
    ShapeMismatchError,
)
from .nnsearch import find_neighbors

ATTENTION_BLOCK_ROWS = 256
# slot rows per embed block: a block's (slots x 64) arrays stay within a core's L2
EMBED_BLOCK_SLOTS = 2048


@dataclass
class OaLayerWeights:
    """One attention layer: query/key/value projections plus the offset MLP."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wg: Tensor
    bg: Tensor


def layout(e: int, c: int, s: int, m: int, depth: int) -> dict[str, tuple[int, ...]]:
    """Every sampler array's name and shape, in the order init_weights draws
    them: the embedding MLP (6 -> e -> c), `depth` attention layers of width
    c, and the score MLP (depth * c -> s -> m). The output projection has no
    bias: the per-column softmax (and the per-column argmax) cancel any
    constant added to a whole column, so such a bias could not be trained."""
    shapes = {"sigma.0.w": (6, e), "sigma.0.b": (e,), "sigma.1.w": (e, c), "sigma.1.b": (c,)}
    for i in range(depth):
        shapes.update({f"oa.{i}.wq": (c, c), f"oa.{i}.wk": (c, c), f"oa.{i}.wv": (c, c), f"oa.{i}.wg": (c, c), f"oa.{i}.bg": (c,)})
    shapes.update({"rho.hidden.w": (depth * c, s), "rho.hidden.b": (s,), "rho.out.w": (s, m)})
    return shapes


@dataclass
class CasNetWeights:
    """The sampler's tensors by name, in layout() order; the layers read them
    as sigma, layers, rho_hidden and rho_out."""

    tensors: dict[str, Tensor]

    @property
    def sigma(self) -> list[tuple[Tensor, Tensor]]:
        return [(self.tensors[f"sigma.{i}.w"], self.tensors[f"sigma.{i}.b"]) for i in range(2)]

    @property
    def layers(self) -> list[OaLayerWeights]:
        names = [f.name for f in fields(OaLayerWeights)]
        return [OaLayerWeights(*(self.tensors[f"oa.{i}.{nm}"] for nm in names)) for i in range(self.depth)]

    @property
    def rho_hidden(self) -> tuple[Tensor, Tensor]:
        return self.tensors["rho.hidden.w"], self.tensors["rho.hidden.b"]

    @property
    def rho_out(self) -> Tensor:
        return self.tensors["rho.out.w"]

    @property
    def depth(self) -> int:
        return sum(name.endswith(".wq") for name in self.tensors)

    @property
    def m(self) -> int:
        return self.rho_out.data.shape[1]

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}

    def detached(self, dtype) -> "CasNetWeights":
        """The same values in `dtype`, as constants: layers given these keep
        nothing for a backward pass."""
        return CasNetWeights({name: Tensor(t.data.astype(dtype, copy=False)) for name, t in self.tensors.items()})

    def check_fits(self, oa_layers: int, m: int) -> None:
        """Raise ShapeMismatchError unless these weights hold `oa_layers`
        attention layers and emit m output points: the one place the weights
        are compared with a config. A caller naming the input adds its name."""
        if self.depth != oa_layers:
            raise ShapeMismatchError(f"weights hold {self.depth} attention layers but oa_layers is {oa_layers}")
        if self.m != m:
            raise ShapeMismatchError(f"weights emit m={self.m} points but m={m} is needed")

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "CasNetWeights":
        """Constant weights from the arrays layout() names; other arrays are
        ignored. The architecture is read off sigma.1.w (e, c), rho.hidden.w
        (depth * c, s) and rho.out.w (m), at least one attention layer;
        ShapeMismatchError names the first array that is missing or does not
        fit it."""
        e, c = ad.matrix_shape(arrays, "sigma.1.w")
        rows, s = ad.matrix_shape(arrays, "rho.hidden.w")
        m = ad.matrix_shape(arrays, "rho.out.w")[1]
        return cls(ad.constants(arrays, layout(e, c, s, m, max(1, rows // c))))


def init_weights(config: CasNetConfig, m: int, dtype=np.float64, seed: int | None = None) -> CasNetWeights:
    """Seeded uniform init in [-sqrt(1/fan_in), +sqrt(1/fan_in)]; zero biases."""
    shapes = layout(config.embed_hidden, config.c, config.score_hidden, m, config.oa_layers)
    return CasNetWeights(ad.init_tensors(shapes, config.seed if seed is None else seed, dtype))


def group_features(cloud: PointCloud, neighbors: NeighborTable) -> np.ndarray:
    """Offsets p_neighbor - p_self per slot; sentinel slots give the zero vector."""
    pts = cloud.points
    idx = neighbors.indices
    real = idx != SENTINEL
    if idx[real].size and (idx[real].min() < 0 or idx[real].max() >= cloud.n):
        raise ShapeMismatchError("neighbor index outside cloud")
    safe = np.where(real, idx, 0)
    grouped = pts[safe] - pts[:, None, :]
    grouped[~real] = 0.0
    return grouped


def combine(cloud: PointCloud, grouped: np.ndarray) -> np.ndarray:
    """Concatenate the point itself (duplicated across slots) with its offsets."""
    n, k, three = grouped.shape
    if three != 3 or n != cloud.n:
        raise ShapeMismatchError(f"grouped shape {grouped.shape} does not match cloud n={cloud.n}")
    dup = np.broadcast_to(cloud.points[:, None, :], (n, k, 3))
    return np.concatenate([dup, grouped], axis=2)


def _affine_relu(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    h = x @ w.data
    h += b.data
    return np.maximum(h, 0, out=h)


def embed(combined: np.ndarray, weights: CasNetWeights) -> Tensor:
    """Shared per-slot MLP followed by max-pooling over the neighbor axis.

    One node, computed in blocks of max(1, EMBED_BLOCK_SLOTS // k) points so
    that a block's per-slot arrays stay in cache; each block max-pools
    straight into the output. The second layer's bias is added once, to the
    pooled output: rounding x + b is monotone in x, so the maximum of the
    biased slots is the biased maximum, bit for bit. With a gradient to keep,
    the forward also records each (point, channel)'s winning slot, the lowest
    slot holding the unbiased maximum, and nothing else. The backward puts
    each pooled gradient into that slot and runs the MLP backward block by
    block over the slots that won at least one channel, recomputing their
    hidden activations.
    """
    n, k, width = combined.shape
    (w1, b1), (w2, b2) = weights.sigma
    if width != w1.data.shape[0]:
        raise ShapeMismatchError(f"combined width {width} vs sigma input {w1.data.shape[0]}")
    keep = any(p.requires_grad for p in (w1, b1, w2, b2))
    dtype, c = w1.data.dtype, w2.data.shape[1]
    step = max(1, EMBED_BLOCK_SLOTS // k)
    blocks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    hidden = np.empty((min(step, n) * k, w1.data.shape[1]), dtype=dtype)
    per_slot = np.empty((min(step, n) * k, c), dtype=dtype)
    winner = np.empty((n, c), dtype=np.intp) if keep else None
    countdown = np.arange(k, 0, -1).astype(np.min_scalar_type(k)).reshape(k, 1)
    out = np.empty((n, c), dtype=dtype)
    for lo, hi in blocks:
        x = combined[lo:hi].reshape(-1, width).astype(dtype, copy=False)
        h = hidden[: len(x)]
        np.matmul(x, w1.data, out=h)
        h += b1.data
        np.maximum(h, 0, out=h)
        s = per_slot[: len(x)]
        np.matmul(h, w2.data, out=s)
        s = s.reshape(hi - lo, k, c)
        s.max(axis=1, out=out[lo:hi])
        if keep:
            # the lowest slot equal to each maximum, as the largest k - slot
            # among them: numpy's argmax over a middle axis makes one call per
            # point and channel. A NaN matches no slot and takes slot k - 1.
            top = ((s == out[lo:hi, None, :]) * countdown).max(axis=1)
            winner[lo:hi] = k - np.maximum(top, 1)
    out += b2.data
    if not keep:
        return Tensor(out)

    def vjp(g):
        g_w1, g_b1, g_w2 = (np.zeros_like(p.data) for p in (w1, b1, w2))
        slots = combined.reshape(n * k, width).astype(dtype, copy=False)
        channels = np.arange(c)
        for lo, hi in blocks:
            # only slot rows that won some channel carry a gradient; the
            # products run over those rows alone, in ascending order
            won = (np.arange(hi - lo) * k)[:, None] + winner[lo:hi]
            marked = np.zeros((hi - lo) * k, dtype=bool)
            marked[won] = True
            used = np.flatnonzero(marked)
            at = np.cumsum(marked) - 1  # a marked slot's row in used
            g_slot = np.zeros((len(used), c), dtype=g.dtype)
            g_slot[at[won], channels] = g[lo:hi]
            x = slots[lo * k + used]
            h = _affine_relu(x, w1, b1)
            g_h = g_slot @ w2.data.T
            g_h *= h > 0
            g_w1 += x.T @ g_h
            g_b1 += g_h.sum(axis=0)
            g_w2 += h.T @ g_slot
        return g_w1, g_b1, g_w2, g.sum(axis=0)

    return ad.custom(out, (w1, b1, w2, b2), vjp)


def _normal_floor(dtype) -> float:
    """sqrt of the smallest normal number of `dtype`: a value at or above it
    stays normal when squared or multiplied by a probability-sized factor.
    Arithmetic on subnormals runs many times slower on most CPUs."""
    return float(np.sqrt(np.finfo(dtype).tiny))


def offset_attention(f_in: Tensor, lay: OaLayerWeights) -> Tensor:
    """gamma(F_in - F_sa) + F_in, where F_sa = softmax(Q K^T / sqrt(d_k)) V
    normalizes each query row and gamma = relu(x Wg + bg).

    One node. Scores are computed in row blocks, each block's softmax
    normalization folded into its small output. Without a gradient to keep,
    the blocks share one buffer and no n-by-n matrix exists; with one, they
    fill the n-by-n matrix of probabilities the backward needs, each block's
    exponentials divided by their row sums after its product. Both ways give
    the same values. The max-shifted scores are clamped at the log of the
    dtype's normal floor before exp, so no exponential is subnormal (in
    float64 the clamp, at -354, does not act in practice). V carries a column
    of ones, so each block product also yields its rows' sums.
    """
    parents = (f_in, lay.wq, lay.wk, lay.wv, lay.wg, lay.bg)
    keep = any(p.requires_grad for p in parents)
    f = f_in.data
    n, c = f.shape[0], lay.wv.data.shape[1]
    inv_sqrt_dk = f.dtype.type(1.0 / np.sqrt(lay.wk.data.shape[1]))
    low = f.dtype.type(np.log(_normal_floor(f.dtype)))
    q = f @ lay.wq.data
    q *= inv_sqrt_dk
    kt = (f @ lay.wk.data).T
    v_ones = np.empty((n, c + 1), dtype=q.dtype)
    np.matmul(f, lay.wv.data, out=v_ones[:, :c])
    v_ones[:, c] = 1
    v = v_ones[:, :c]
    block = ATTENTION_BLOCK_ROWS
    expo = np.empty((n, n) if keep else (min(block, n), n), dtype=q.dtype)
    weighted = np.empty_like(v_ones)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        e = expo[lo:hi] if keep else expo[: hi - lo]
        np.matmul(q[lo:hi], kt, out=e)
        e -= e.max(axis=1, keepdims=True)
        np.maximum(e, low, out=e)
        np.exp(e, out=e)
        np.matmul(e, v_ones, out=weighted[lo:hi])
        if keep:
            e /= weighted[lo:hi, c:]
    sums = weighted[:, c:]
    f_sa = weighted[:, :c] / sums
    diff = f - f_sa
    gamma = _affine_relu(diff, lay.wg, lay.bg)
    out = gamma + f
    if not keep:
        return Tensor(out)

    def vjp(g):
        probs = expo
        g_pre = g * (gamma > 0)
        g_diff = g_pre @ lay.wg.data.T
        # the gradient of P, negated (F_sa enters as -F_sa), then the
        # row-softmax backward in place: the row sums of that gradient times P
        # are g_diff . F_sa per row
        g_scores = g_diff @ v.T
        np.subtract((g_diff * f_sa).sum(axis=1, keepdims=True), g_scores, out=g_scores)
        g_scores *= probs
        g_q = g_scores @ kt.T
        g_q *= inv_sqrt_dk
        g_k = g_scores.T @ q
        g_v = -(probs.T @ g_diff)
        g_f = g + g_diff + g_q @ lay.wq.data.T + g_k @ lay.wk.data.T + g_v @ lay.wv.data.T
        return g_f, f.T @ g_q, f.T @ g_k, f.T @ g_v, diff.T @ g_pre, g_pre.sum(axis=0)

    return ad.custom(out, parents, vjp)


def asm(f_embed: Tensor, weights: CasNetWeights) -> Tensor:
    """Stack of skip-connected attention layers, one per layer the weights
    hold; outputs concatenated column-wise."""
    outputs = []
    current = f_embed
    for lay in weights.layers:
        current = offset_attention(current, lay)
        outputs.append(current)
    return ad.concat_cols(outputs) if len(outputs) > 1 else outputs[0]


def soft_matrix(f_concat: Tensor, weights: CasNetWeights, keep_soft: bool = True) -> tuple[Tensor | None, np.ndarray]:
    """Score MLP, then softmax over the input-point axis: each of the
    weights.m columns of S~ sums to 1.

    One node, returned with each column's argmax over the logits (ties to the
    lower row): the rows a hard sample selects. Training and inference both
    select from the logits, because the softmax can round two nearly equal
    logits to one value. The logits are formed in row blocks under a running
    argmax; with keep_soft=False (hard inference) the blocks share one buffer
    and S~ is not formed, and None is returned in its place. Entries of S~
    below the square root of the dtype's smallest normal number are set to
    zero after normalizing.
    """
    w1, b1 = weights.rho_hidden
    w2 = weights.rho_out
    f = f_concat.data
    n, m = f.shape[0], weights.m
    h = _affine_relu(f, w1, b1)
    block = ATTENTION_BLOCK_ROWS
    logits = np.empty((n, m) if keep_soft else (min(block, n), m), dtype=h.dtype)
    best = np.full(m, -np.inf, dtype=h.dtype)
    rows = np.zeros(m, dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        lb = logits[lo:hi] if keep_soft else logits[: hi - lo]
        np.matmul(h[lo:hi], w2.data, out=lb)
        block_max = lb.max(axis=0)
        improved = block_max > best
        if improved.any():
            rows[improved] = lb[:, improved].argmax(axis=0) + lo
            best[improved] = block_max[improved]
    if not keep_soft:
        return None, rows
    soft = logits
    soft -= best
    np.exp(soft, out=soft)
    soft /= soft.sum(axis=0, keepdims=True)
    # flush entries below the normal floor to zero, so that neither S~ nor
    # its square in the cosine loss holds a subnormal
    soft[soft < _normal_floor(soft.dtype)] = 0

    def vjp(g):
        g_logits = soft * (g - (g * soft).sum(axis=0, keepdims=True))
        g_h = g_logits @ w2.data.T
        g_h *= h > 0
        return g_h @ w1.data.T, f.T @ g_h, g_h.sum(axis=0), h.T @ g_logits

    return ad.custom(soft, (f_concat, w1, b1, w2), vjp), rows


def _encode(cloud: PointCloud, config: CasNetConfig, weights: CasNetWeights) -> Tensor:
    """Neighbor search, grouping, embedding and the attention stack, in the
    weights' dtype: the concatenated attention features."""
    config.validate(cloud.n)
    weights.check_fits(config.oa_layers, config.m)
    dtype = weights.sigma[0][0].data.dtype
    if config.k == 1:
        # the one slot holds a point at distance zero, the point itself or an
        # exact duplicate, so its offset is zero: no search is needed
        f_group = np.zeros((cloud.n, 1, 3), dtype=dtype)
    else:
        # looked up in this module at call time, so a wrapper set here sees every search
        neighbors = find_neighbors(cloud, config.radius, config.k)
        f_group = group_features(cloud, neighbors).astype(dtype, copy=False)
    f_combine = combine(cloud, f_group).astype(dtype, copy=False)
    return asm(embed(f_combine, weights), weights)


def forward(cloud: PointCloud, config: CasNetConfig, weights: CasNetWeights) -> tuple[SampleResult, Tensor, Tensor]:
    """Graph-building forward pass. Returns the sample, as sample() returns
    it, with the two tape tensors the objective reads: the sampled points
    p_sp (m x 3) and the soft matrix S~ (n x m). A hard (AHSN) p_sp is the
    selected rows, one straight-through node (autodiff.ste_harden)."""
    f_concat = _encode(cloud, config, weights)
    soft, rows = soft_matrix(f_concat, weights)
    p_in = cloud.points.astype(f_concat.data.dtype, copy=False)
    if config.mode == "ahsn":
        p_sp = ad.ste_harden(soft, rows, p_in)
        return SampleResult(PointCloud(cloud.points[rows]), rows), p_sp, soft
    p_sp = ad.matmul(ad.transpose(soft), Tensor(p_in))
    return SampleResult(PointCloud(p_sp.data.copy()), None), p_sp, soft


# the one backward of both variants, under the name bench/run.py wraps; it
# goes with the change to the benchmark that stops wrapping it
backward_ste = ad.backward


def sample(cloud: PointCloud, config: CasNetConfig, weights: CasNetWeights) -> SampleResult:
    """Inference through the layers of forward(), in the cloud's dtype.

    The weights are used as constants, so no layer keeps an activation even
    when they require gradients, and no n-by-n matrix is held. For the hard
    variant the column softmax is skipped: the rows come from a running
    argmax over blocks of logits, as in forward(). Returns the sampled cloud
    plus the selected row indices (None for ASSN).
    """
    weights = weights.detached(cloud.points.dtype)
    f_concat = _encode(cloud, config, weights)
    soft, rows = soft_matrix(f_concat, weights, keep_soft=config.mode == "assn")
    if soft is None:
        return SampleResult(PointCloud(cloud.points[rows]), rows)
    return SampleResult(PointCloud(soft.data.T @ cloud.points), None)
