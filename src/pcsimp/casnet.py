"""Attention-based point cloud sampler.

Pipeline: neighbor grouping -> per-point feature embedding -> stacked
offset-attention layers -> soft sampling matrix -> soft (ASSN) or hardened
(AHSN) selection. The network is defined once: embed, offset_attention and
soft_matrix are each one autodiff node computed over plain arrays, with a
hand-written backward. forward() joins them on the tape for training (the
straight-through rule, the sampled points and the losses stay tape ops);
sample() runs the same layers on weights that require no gradient, so no
layer keeps an activation and attention runs in row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import (
    CasNetConfig,
    IndexOutOfRangeError,
    NeighborTable,
    NoCacheError,
    PointCloud,
    SENTINEL,
    ShapeMismatchError,
    validate_cloud,
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


@dataclass
class CasNetWeights:
    sigma: list[tuple[Tensor, Tensor]]
    layers: list[OaLayerWeights]
    rho_hidden: tuple[Tensor, Tensor]
    # no bias on the output projection: the per-column softmax (and the
    # per-column argmax) cancel any constant added to a whole column, so such
    # a bias would be an untrainable dead parameter
    rho_out: Tensor

    @property
    def c(self) -> int:
        return self.sigma[-1][0].data.shape[1]

    @property
    def m(self) -> int:
        return self.rho_out.data.shape[1]

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in self.sigma:
            out += [w, b]
        for lay in self.layers:
            out += [lay.wq, lay.wk, lay.wv, lay.wg, lay.bg]
        out += [self.rho_hidden[0], self.rho_hidden[1], self.rho_out]
        return out

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag

    def to_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        out = {}
        for i, (w, b) in enumerate(self.sigma):
            out[f"{prefix}sigma.{i}.w"] = w.data
            out[f"{prefix}sigma.{i}.b"] = b.data
        for i, lay in enumerate(self.layers):
            for name in ("wq", "wk", "wv", "wg", "bg"):
                out[f"{prefix}oa.{i}.{name}"] = getattr(lay, name).data
        out[f"{prefix}rho.hidden.w"] = self.rho_hidden[0].data
        out[f"{prefix}rho.hidden.b"] = self.rho_hidden[1].data
        out[f"{prefix}rho.out.w"] = self.rho_out.data
        return out

    def detached(self, dtype) -> "CasNetWeights":
        """The same values in `dtype`, as constants: layers given these keep
        nothing for a backward pass."""
        return CasNetWeights.from_arrays({k: v.astype(dtype, copy=False) for k, v in self.to_arrays().items()})

    def _check_shapes(self, prefix: str) -> None:
        """Raise ShapeMismatchError naming the first array that does not fit the
        architecture read off sigma.0.w (e), sigma.1.w (c), rho.hidden.w (s),
        rho.out.w (m) and the number of attention layers."""
        if len(self.sigma) != 2 or not self.layers:
            raise ShapeMismatchError(f"{prefix}sigma.*, {prefix}oa.*: expected 2 embedding layers and at least 1 attention layer")
        arrays = self.to_arrays(prefix)
        for name in ("sigma.0.w", "sigma.1.w", "rho.hidden.w", "rho.out.w"):
            if arrays[prefix + name].ndim != 2:
                raise ShapeMismatchError(f"{prefix}{name} has shape {arrays[prefix + name].shape}, expected a matrix")
        e, c, s, m = self.sigma[0][0].data.shape[1], self.c, self.rho_hidden[0].data.shape[1], self.m
        expected = {"sigma.0.w": (6, e), "sigma.0.b": (e,), "sigma.1.w": (e, c), "sigma.1.b": (c,)}
        for i in range(len(self.layers)):
            expected.update({f"oa.{i}.{name}": (c, c) for name in ("wq", "wk", "wv", "wg")})
            expected[f"oa.{i}.bg"] = (c,)
        expected.update({"rho.hidden.w": (len(self.layers) * c, s), "rho.hidden.b": (s,), "rho.out.w": (s, m)})
        for name, shape in expected.items():
            if arrays[prefix + name].shape != shape:
                raise ShapeMismatchError(f"{prefix}{name} has shape {arrays[prefix + name].shape}, expected {shape}")

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], prefix: str = "", requires_grad: bool = False) -> "CasNetWeights":
        """Weights from named arrays; raises ShapeMismatchError when their
        shapes do not fit one architecture."""
        sigma = []
        i = 0
        while f"{prefix}sigma.{i}.w" in arrays:
            sigma.append(
                (
                    Tensor(arrays[f"{prefix}sigma.{i}.w"], requires_grad),
                    Tensor(arrays[f"{prefix}sigma.{i}.b"], requires_grad),
                )
            )
            i += 1
        layers = []
        i = 0
        while f"{prefix}oa.{i}.wq" in arrays:
            layers.append(
                OaLayerWeights(*(Tensor(arrays[f"{prefix}oa.{i}.{nm}"], requires_grad) for nm in ("wq", "wk", "wv", "wg", "bg")))
            )
            i += 1
        weights = cls(
            sigma=sigma,
            layers=layers,
            rho_hidden=(
                Tensor(arrays[f"{prefix}rho.hidden.w"], requires_grad),
                Tensor(arrays[f"{prefix}rho.hidden.b"], requires_grad),
            ),
            rho_out=Tensor(arrays[f"{prefix}rho.out.w"], requires_grad),
        )
        weights._check_shapes(prefix)
        return weights


def parameter_count(k: int, c: int, oa_layers: int, m: int, embed_hidden: int = 64, score_hidden: int = 256) -> int:
    """Total trainable scalars; depends only on the architecture sizes."""
    sigma = 6 * embed_hidden + embed_hidden + embed_hidden * c + c
    per_layer = 3 * c * c + c * c + c
    rho = oa_layers * c * score_hidden + score_hidden + score_hidden * m
    return sigma + oa_layers * per_layer + rho


def init_weights(config: CasNetConfig, m: int, dtype=np.float64, seed: int | None = None) -> CasNetWeights:
    """Seeded uniform init in [-sqrt(1/fan_in), +sqrt(1/fan_in)]; zero biases."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    c, eh, sh = config.c, config.embed_hidden, config.score_hidden

    def affine(fan_in, fan_out):
        bound = np.sqrt(1.0 / fan_in)
        w = rng.uniform(-bound, bound, (fan_in, fan_out)).astype(dtype)
        b = np.zeros(fan_out, dtype=dtype)
        return Tensor(w, True), Tensor(b, True)

    def square(fan_in, fan_out):
        bound = np.sqrt(1.0 / fan_in)
        return Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)).astype(dtype), True)

    sigma = [affine(6, eh), affine(eh, c)]
    layers = []
    for _ in range(config.oa_layers):
        wq, wk, wv = square(c, c), square(c, c), square(c, c)
        wg, bg = affine(c, c)
        layers.append(OaLayerWeights(wq, wk, wv, wg, bg))
    return CasNetWeights(
        sigma=sigma,
        layers=layers,
        rho_hidden=affine(config.oa_layers * c, sh),
        rho_out=square(sh, m),
    )


@dataclass
class ForwardCache:
    """Every intermediate of one forward pass, kept for the backward.

    At k=1 no search runs and `neighbors` lists each point as its own only
    neighbor; a search would list the lowest-index exact duplicate instead,
    which gives the same zero offset. `rows` lists the input row each output
    point of a hard (AHSN) sample copies; it is None for a soft (ASSN) one.
    """

    neighbors: NeighborTable
    f_group: np.ndarray
    f_combine: np.ndarray
    f_pointwise: Tensor
    f_oa: list[Tensor]
    f_concat: Tensor
    soft: Tensor
    rows: np.ndarray | None
    p_sp: Tensor


def group_features(cloud: PointCloud, neighbors: NeighborTable) -> np.ndarray:
    """Offsets p_neighbor - p_self per slot; sentinel slots give the zero vector."""
    pts = cloud.points
    idx = neighbors.indices
    real = idx != SENTINEL
    if idx[real].size and (idx[real].min() < 0 or idx[real].max() >= cloud.n):
        raise IndexOutOfRangeError("neighbor index outside cloud")
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
    straight into the output. With a gradient to keep, the forward also
    records each (point, channel)'s winning slot (ties to the lowest slot),
    and nothing else. The backward puts each pooled gradient into that slot
    and runs the MLP backward block by block over the slots that won at least
    one channel, recomputing their hidden activations.
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
        s += b2.data
        s = s.reshape(hi - lo, k, c)
        s.max(axis=1, out=out[lo:hi])
        if keep:
            # the lowest slot equal to each maximum, as the largest k - slot
            # among them: numpy's argmax over a middle axis makes one call per
            # point and channel. A NaN matches no slot and takes slot k - 1.
            top = ((s == out[lo:hi, None, :]) * countdown).max(axis=1)
            winner[lo:hi] = k - np.maximum(top, 1)
    if not keep:
        return Tensor(out)

    def vjp(g):
        g_w1, g_b1, g_w2 = (np.zeros_like(p.data) for p in (w1, b1, w2))
        slots = combined.reshape(n * k, width).astype(dtype, copy=False)
        channels = np.arange(c)
        for lo, hi in blocks:
            # only slot rows that won some channel carry a gradient; the
            # products run over those rows alone
            won = (np.arange(lo, hi) * k)[:, None] + winner[lo:hi]
            used, at = np.unique(won, return_inverse=True)
            g_slot = np.zeros((len(used), c), dtype=g.dtype)
            g_slot[at.reshape(won.shape), channels] = g[lo:hi]
            x = slots[used]
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
    fill the n-by-n matrix of exponentials the backward needs. Both ways give
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
    sums = weighted[:, c:]
    f_sa = weighted[:, :c] / sums
    diff = f - f_sa
    gamma = _affine_relu(diff, lay.wg, lay.bg)
    out = gamma + f
    if not keep:
        return Tensor(out)

    def vjp(g):
        probs = expo / sums
        g_pre = g * (gamma > 0)
        g_diff = g_pre @ lay.wg.data.T
        g_probs = g_diff @ v.T  # the gradient of P, negated: F_sa enters as -F_sa
        # row-softmax backward; the row sums of g_probs * P are g_diff . F_sa per row
        g_scores = probs * ((g_diff * f_sa).sum(axis=1, keepdims=True) - g_probs)
        g_q = g_scores @ kt.T
        g_q *= inv_sqrt_dk
        g_k = g_scores.T @ q
        g_v = -(probs.T @ g_diff)
        g_f = g + g_diff + g_q @ lay.wq.data.T + g_k @ lay.wk.data.T + g_v @ lay.wv.data.T
        return g_f, f.T @ g_q, f.T @ g_k, f.T @ g_v, diff.T @ g_pre, g_pre.sum(axis=0)

    return ad.custom(out, parents, vjp)


def asm(f_pointwise: Tensor, weights: CasNetWeights, oa_layers: int) -> tuple[Tensor, list[Tensor]]:
    """Stack of skip-connected attention layers; outputs concatenated column-wise."""
    outputs = []
    current = f_pointwise
    for lay in weights.layers[:oa_layers]:
        current = offset_attention(current, lay)
        outputs.append(current)
    return ad.concat_cols(outputs) if len(outputs) > 1 else outputs[0], outputs


def soft_matrix(f_concat: Tensor, weights: CasNetWeights, m: int, keep_soft: bool = True) -> tuple[Tensor | None, np.ndarray]:
    """Score MLP, then softmax over the input-point axis: each column of S~ sums to 1.

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
    if w2.data.shape[1] != m:
        raise ShapeMismatchError(f"score head emits {w2.data.shape[1]} columns, expected m={m}")
    f = f_concat.data
    n = f.shape[0]
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


def _encode(cloud: PointCloud, config: CasNetConfig, weights: CasNetWeights):
    """Neighbor search, grouping, embedding and the attention stack, in the weights' dtype."""
    validate_cloud(cloud)
    config.validate(cloud.n)
    dtype = weights.sigma[0][0].data.dtype
    if config.k == 1:
        # the one slot holds the point itself or an exact duplicate, so its
        # offset is zero whatever the table holds: no search is needed
        neighbors = NeighborTable(np.arange(cloud.n).reshape(cloud.n, 1))
        f_group = np.zeros((cloud.n, 1, 3), dtype=dtype)
    else:
        # looked up in this module at call time, so a wrapper set here sees every search
        neighbors = find_neighbors(cloud, config.backend, config.k, config.radius)
        f_group = group_features(cloud, neighbors).astype(dtype, copy=False)
    f_combine = combine(cloud, f_group).astype(dtype, copy=False)
    f_pointwise = embed(f_combine, weights)
    f_concat, f_oa = asm(f_pointwise, weights, config.oa_layers)
    return neighbors, f_group, f_combine, f_pointwise, f_oa, f_concat


def forward(cloud: PointCloud, config: CasNetConfig, weights: CasNetWeights) -> tuple[PointCloud, ForwardCache]:
    """Graph-building forward pass; the cache retains every intermediate."""
    neighbors, f_group, f_combine, f_pointwise, f_oa, f_concat = _encode(cloud, config, weights)
    s_tilde, rows = soft_matrix(f_concat, weights, config.output_count(cloud.n))

    p_in = Tensor(cloud.points.astype(f_concat.data.dtype, copy=False))
    if config.mode == "ahsn":
        p_sp = ad.matmul(ad.transpose(ad.ste_harden(s_tilde, rows)), p_in)
        out_cloud = PointCloud(cloud.points[rows])  # exact rows, not the matmul
    else:
        p_sp = ad.matmul(ad.transpose(s_tilde), p_in)
        rows = None
        out_cloud = PointCloud(p_sp.data)
    cache = ForwardCache(
        neighbors=neighbors,
        f_group=f_group,
        f_combine=f_combine,
        f_pointwise=f_pointwise,
        f_oa=f_oa,
        f_concat=f_concat,
        soft=s_tilde,
        rows=rows,
        p_sp=p_sp,
    )
    return out_cloud, cache


def backward_ste(loss_root: Tensor, cache: ForwardCache) -> None:
    """Backward for the hard forward: the hardening step passes gradients through
    to the soft matrix unchanged (already wired in by the forward's STE node).

    Note that finite-difference checks do not apply to the hard forward: it is
    piecewise constant in the weights, so its true derivative is zero almost
    everywhere and the straight-through gradient is deliberately not that.
    """
    if cache.rows is None:
        raise NoCacheError("backward_ste requires an AHSN forward cache")
    ad.backward(loss_root)


def sample(cloud: PointCloud, config: CasNetConfig, weights: CasNetWeights) -> tuple[PointCloud, np.ndarray | None]:
    """Inference through the layers of forward(), in the cloud's dtype.

    The weights are used as constants, so no layer keeps an activation even
    when they require gradients, and no n-by-n matrix is held. For the hard
    variant the column softmax is skipped: the rows come from a running
    argmax over blocks of logits, as in forward(). Returns the sampled cloud
    plus the selected row indices (None for ASSN).
    """
    weights = weights.detached(cloud.points.dtype)
    *_, f_concat = _encode(cloud, config, weights)
    soft, rows = soft_matrix(f_concat, weights, config.output_count(cloud.n), keep_soft=config.mode == "assn")
    if soft is None:
        return PointCloud(cloud.points[rows]), rows
    return PointCloud(soft.data.T @ cloud.points), None
