"""Minimal dense reverse-mode differentiation over numpy arrays.

Provides the operations the sampler and its losses need, plus softmax, the
reference op for the gradient checks and the layer tape oracles. Graphs are
implicit: every op, here and in the sampler's layers, is one `custom` node, its
forward array plus a vjp that returns one gradient per parent. backward()
topologically sorts from the root and accumulates gradients additively, so
fan-out is handled by summation. Tensors created from ops whose inputs do not
require gradients carry no parents, which keeps inference passes free of graph
retention.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import ConfigError, IoFailureError, ShapeMismatchError

WEIGHTS_FORMAT_VERSION = 1

# finite_diff_check's step
FD_EPS = 1e-6


class Tensor:
    """Shape-tagged dense array participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # copy: g may be the node's own gradient passed through, or a view of it
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def custom(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """The one way to make a node: vjp(g) returns one gradient per parent, in
    order, and each is accumulated into the parents that require one. When no
    parent requires a gradient the node keeps neither parents nor vjp, so
    nothing vjp refers to stays alive."""
    out, parents = Tensor(data), tuple(parents)
    if any(p.requires_grad for p in parents):

        def bw(g):
            for p, gp in zip(parents, vjp(g)):
                if p.requires_grad:
                    _accumulate(p, gp)

        out.requires_grad = True
        out._parents = parents
        out._backward = bw
    return out


def backward(root: Tensor) -> None:
    """Propagate d(root)/d(tensor) into .grad of every reachable tensor."""
    if root.data.size != 1:
        raise ShapeMismatchError(f"backward root must be scalar, got shape {root.shape}")
    # iterative topological order over the parent DAG
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul {a.shape} @ {b.shape}")
    return custom(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"{op} {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return custom(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return custom(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return custom(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")
    return custom(a.data / b.data, (a, b), lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def scale(a: Tensor, s: float) -> Tensor:
    return custom(a.data * s, (a,), lambda g: (g * s,))


def add_rowvec(a: Tensor, b: Tensor) -> Tensor:
    """Add a length-d bias vector to every row of an (n, d) matrix."""
    if a.data.ndim != 2 or b.data.ndim != 1 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"add_rowvec {a.shape} + {b.shape}")
    return custom(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))


def transpose(a: Tensor) -> Tensor:
    return custom(a.data.T, (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return custom(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate (n, c_i) matrices along the feature axis."""
    rows = {p.data.shape[0] for p in parts}
    if len(rows) != 1 or any(p.data.ndim != 2 for p in parts):
        raise ShapeMismatchError("concat_cols requires 2-d inputs with equal row counts")
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])
    columns = [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return custom(np.concatenate([p.data for p in parts], axis=1), parts, lambda g: [g[:, c] for c in columns])


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient at 0 is 0
    return custom(np.where(mask, a.data, 0), (a,), lambda g: (g * mask,))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)  # subgradient at 0 is 0
    return custom(np.abs(a.data), (a,), lambda g: (g * sign,))


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return custom(out_data, (a,), lambda g: (g * 0.5 / out_data,))


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return custom(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def max_over_axis(a: Tensor, axis: int) -> Tensor:
    """Max along one axis; ties route the gradient to the lowest index."""
    arg = np.expand_dims(a.data.argmax(axis=axis), axis)  # argmax takes the first occurrence

    def vjp(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, arg, np.expand_dims(g, axis), axis=axis)
        return (full,)

    return custom(np.take_along_axis(a.data, arg, axis=axis).squeeze(axis), (a,), vjp)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Exp-normalize along `axis` with max-subtraction for stability."""
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    out_data = e / e.sum(axis=axis, keepdims=True)
    return custom(out_data, (a,), lambda g: (out_data * (g - (g * out_data).sum(axis=axis, keepdims=True)),))


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of a 2-d tensor; backward scatter-adds into the sources."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeMismatchError("gather_rows requires a 2-d tensor")

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return custom(a.data[idx], (a,), vjp)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    labels = np.asarray(labels, dtype=np.int64)
    b, n_classes = logits.data.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ConfigError(f"labels must lie in [0, {n_classes})")
    top = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - top)
    total = e.sum(axis=1, keepdims=True)
    lse = np.log(total[:, 0]) + top[:, 0]
    loss = (lse - logits.data[np.arange(b), labels]).mean()
    probs = e / total

    def vjp(g):
        d = probs.copy()
        d[np.arange(b), labels] -= 1.0
        return (d * (g / b),)

    return custom(np.asarray(loss), (logits,), vjp)


def ste_harden(soft: Tensor, rows: np.ndarray, points: np.ndarray) -> Tensor:
    """The hard sample points[rows] forward; the straight-through rule
    backward: the soft matrix S~ (n x m), whose column j selects rows[j],
    receives the gradient it would if it had formed the sample as the product
    S~^T points, that is (g points^T)^T. The forward is piecewise constant in
    S~, so finite differences do not check this gradient."""
    return custom(points[rows], (soft,), lambda g: ((g @ points.T).T,))


def finite_diff_check(f: Callable[[Sequence[Tensor]], Tensor], params: Sequence[Tensor]) -> float:
    """Central-difference check of autodiff gradients.

    Runs f once, backpropagates, then perturbs every entry of every parameter
    by +/-FD_EPS to build the central-difference gradient. Returns the worst
    per-parameter relative disagreement
    ||g_ad - g_fd|| / max(1e-12, ||g_ad|| + ||g_fd||); the norm comparison
    keeps individual entries whose true gradient sits below the
    finite-difference noise floor (dead relu branches) from dominating.
    For single-entry parameters this is the plain |a-b| / (|a|+|b|) ratio.
    """
    for p in params:
        p.zero_grad()
    out = f(params)
    backward(out)
    grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for p, g_ad in zip(params, grads):
        flat = p.data.reshape(-1)
        g_fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            f_plus = float(f(params).data)
            flat[i] = orig - FD_EPS
            f_minus = float(f(params).data)
            flat[i] = orig
            g_fd[i] = (f_plus - f_minus) / (2.0 * FD_EPS)
        g_flat = g_ad.reshape(-1)
        err = np.linalg.norm(g_flat - g_fd) / max(1e-12, np.linalg.norm(g_flat) + np.linalg.norm(g_fd))
        worst = max(worst, float(err))
    return worst


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays: version byte, manifest (name, shape, offset), f32 payload."""
    manifest = []
    payload = bytearray()
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        manifest.append({"name": name, "shape": list(a.shape), "offset": len(payload)})
        payload += a.tobytes()
    blob = json.dumps(manifest).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<B", WEIGHTS_FORMAT_VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(bytes(payload))
    except OSError as e:
        raise IoFailureError(str(e)) from e


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by save_arrays; arrays come back as float32.

    The manifest is validated before any array is read: a list of entries,
    each a unique string name, a shape of non-negative integers and a
    non-negative integer offset, the arrays lying inside the payload without
    overlapping. Every value must be finite. Any failure is an IoFailureError.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise IoFailureError(str(e)) from e
    if len(raw) < 5:
        raise IoFailureError(f"{path}: truncated weights container")
    version = raw[0]
    if version != WEIGHTS_FORMAT_VERSION:
        raise IoFailureError(f"{path}: unsupported container version {version}")
    (blob_len,) = struct.unpack("<I", raw[1:5])
    try:
        manifest = json.loads(raw[5 : 5 + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IoFailureError(f"{path}: bad manifest: {e}") from e
    payload = memoryview(raw)[5 + blob_len :]
    if not isinstance(manifest, list):
        raise IoFailureError(f"{path}: manifest is not a list of entries")
    spans = []
    for i, entry in enumerate(manifest):
        if not isinstance(entry, dict):
            raise IoFailureError(f"{path}: manifest entry {i} is not an object")
        name, shape, start = entry.get("name"), entry.get("shape"), entry.get("offset")
        if not isinstance(name, str):
            raise IoFailureError(f"{path}: manifest entry {i} has no string name")
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise IoFailureError(f"{path}: {name}: shape must be a list of non-negative integers")
        if not _is_count(start):
            raise IoFailureError(f"{path}: {name}: offset must be a non-negative integer")
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise IoFailureError(f"{path}: {name}: payload shorter than manifest claims")
        spans.append((start, end, name, tuple(shape)))
    if len({name for _, _, name, _ in spans}) != len(spans):
        raise IoFailureError(f"{path}: duplicate array names in manifest")
    by_offset = sorted(spans)
    for (_, prev_end, prev, _), (start, _, name, _) in zip(by_offset, by_offset[1:]):
        if start < prev_end:
            raise IoFailureError(f"{path}: arrays {prev} and {name} overlap")
    out = {}
    for start, end, name, shape in spans:
        flat = np.frombuffer(payload, dtype="<f4", count=(end - start) // 4, offset=start)
        try:
            arr = flat.reshape(shape).copy()
        except ValueError as e:  # more dimensions, or larger ones, than numpy supports
            raise IoFailureError(f"{path}: {name}: shape {list(shape)}: {e}") from None
        if not np.isfinite(arr).all():
            raise IoFailureError(f"{path}: {name}: non-finite values")
        out[name] = arr
    return out


def init_tensors(shapes: dict[str, tuple[int, ...]], seed: int, dtype) -> dict[str, Tensor]:
    """Trainable tensors for a layout of named shapes, drawn in its order from
    one seeded generator: a matrix uniform in [-sqrt(1/rows), +sqrt(1/rows)],
    a vector of zeros."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            bound = np.sqrt(1.0 / shape[0])
            out[name] = Tensor(rng.uniform(-bound, bound, shape).astype(dtype), True)
        else:
            out[name] = Tensor(np.zeros(shape, dtype=dtype), True)
    return out


def matrix_shape(arrays: dict[str, np.ndarray], name: str) -> tuple[int, int]:
    """The shape of the matrix `name`; ShapeMismatchError when it is missing,
    not two-dimensional or zero wide in either dimension."""
    a = arrays.get(name)
    if a is None or a.ndim != 2:
        raise ShapeMismatchError(f"{name} is missing" if a is None else f"{name} has shape {a.shape}, expected a matrix")
    if 0 in a.shape:
        raise ShapeMismatchError(f"{name} has shape {a.shape}, expected no zero width")
    return a.shape


def constants(arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> dict[str, Tensor]:
    """Constant tensors of the arrays a layout names, in the layout's order;
    other arrays are ignored. Raises ShapeMismatchError naming the first array
    that is missing or has another shape."""
    out = {}
    for name, shape in shapes.items():
        a = arrays.get(name)
        if a is None or a.shape != shape:
            raise ShapeMismatchError(f"{name} is missing" if a is None else f"{name} has shape {a.shape}, expected {shape}")
        out[name] = Tensor(a)
    return out
