"""Minimal dense reverse-mode differentiation over numpy arrays.

Provides exactly the operations the sampler and its losses need. Graphs are
implicit: each Tensor records its parents and a backward rule; backward()
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

from .core import (
    BadLabelError,
    IoFailureError,
    NonScalarRootError,
    ShapeMismatchError,
)

WEIGHTS_FORMAT_VERSION = 1


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

    # operator sugar used throughout the network code
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # copy: g may be shared with another consumer's accumulation
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def custom(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """A node whose backward is written by hand: vjp(g) returns one gradient
    per parent, in order. When no parent requires a gradient the node keeps
    neither parents nor vjp, so nothing vjp refers to stays alive."""

    def bw(g):
        for p, gp in zip(parents, vjp(g)):
            if p.requires_grad:
                _accumulate(p, gp)

    return _make(data, parents, bw)


def backward(root: Tensor) -> None:
    """Propagate d(root)/d(tensor) into .grad of every reachable tensor."""
    if root.data.size != 1:
        raise NonScalarRootError(f"backward root must be scalar, got shape {root.shape}")
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

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), bw)


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"{op} {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _make(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _make(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _make(a.data * b.data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g / b.data)
        if b.requires_grad:
            _accumulate(b, -g * a.data / (b.data * b.data))

    return _make(a.data / b.data, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * s)

    return _make(a.data * s, (a,), bw)


def add_rowvec(a: Tensor, b: Tensor) -> Tensor:
    """Add a length-d bias vector to every row of an (n, d) matrix."""
    if a.data.ndim != 2 or b.data.ndim != 1 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"add_rowvec {a.shape} + {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    return _make(a.data + b.data, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accumulate(a, g.T)

    return _make(a.data.T, (a,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), bw)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate (n, c_i) matrices along the feature axis."""
    rows = {p.data.shape[0] for p in parts}
    if len(rows) != 1 or any(p.data.ndim != 2 for p in parts):
        raise ShapeMismatchError("concat_cols requires 2-d inputs with equal row counts")
    widths = [p.data.shape[1] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[:, lo:hi])

    return _make(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient at 0 is 0

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * mask)

    return _make(np.where(mask, a.data, 0), (a,), bw)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)  # subgradient at 0 is 0

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * sign)

    return _make(np.abs(a.data), (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * 0.5 / out_data)

    return _make(out_data, (a,), bw)


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def bw(g):
        if a.requires_grad:
            if axis is None:
                _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            else:
                _accumulate(a, np.broadcast_to(np.expand_dims(g, axis) if not keepdims else g, a.data.shape).copy())

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def max_over_axis(a: Tensor, axis: int) -> Tensor:
    """Max along one axis; ties route the gradient to the lowest index."""
    arg = a.data.argmax(axis=axis)  # argmax takes the first occurrence
    out_data = np.take_along_axis(a.data, np.expand_dims(arg, axis), axis=axis).squeeze(axis)

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.put_along_axis(full, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis)
            _accumulate(a, full)

    return _make(out_data, (a,), bw)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Exp-normalize along `axis` with max-subtraction for stability."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if a.requires_grad:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            _accumulate(a, out_data * (g - inner))

    return _make(out_data, (a,), bw)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of a 2-d tensor; backward scatter-adds into the sources."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeMismatchError("gather_rows requires a 2-d tensor")

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            _accumulate(a, full)

    return _make(a.data[idx], (a,), bw)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    labels = np.asarray(labels, dtype=np.int64)
    b, n_classes = logits.data.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise BadLabelError(f"labels must lie in [0, {n_classes})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.data.max(axis=1)
    picked = logits.data[np.arange(b), labels]
    loss = (lse - picked).mean()
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)

    def bw(g):
        if logits.requires_grad:
            d = probs.copy()
            d[np.arange(b), labels] -= 1.0
            _accumulate(logits, d * (g / b))

    return _make(np.asarray(loss), (logits,), bw)


def ste_harden(soft: Tensor, rows: np.ndarray) -> Tensor:
    """One-hot per column in the forward pass, identity in the backward.

    Column j is 1 at rows[j]. The straight-through rule: gradients reaching
    the hardened matrix flow to the soft matrix unchanged, as if the soft
    matrix had been used forward.
    """
    n, m = soft.data.shape
    hard = np.zeros_like(soft.data)
    hard[rows, np.arange(m)] = 1.0

    def bw(g):
        if soft.requires_grad:
            _accumulate(soft, g)

    return _make(hard, (soft,), bw)


def finite_diff_check(f: Callable[[Sequence[Tensor]], Tensor], params: Sequence[Tensor], eps: float = 1e-6) -> float:
    """Central-difference check of autodiff gradients.

    Runs f once, backpropagates, then perturbs every entry of every parameter
    by +/-eps to build the central-difference gradient. Returns the worst
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
            flat[i] = orig + eps
            f_plus = float(f(params).data)
            flat[i] = orig - eps
            f_minus = float(f(params).data)
            flat[i] = orig
            g_fd[i] = (f_plus - f_minus) / (2.0 * eps)
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
