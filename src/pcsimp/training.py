"""Desk-scale end-to-end training: Adam, a toy classifier head, a synthetic
three-class dataset, the joint training loop, and classification metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import casnet
from .autodiff import Tensor
from .core import CasNetConfig, ConfigError, PcsimpError, PointCloud, ShapeMismatchError, at_least
from .losses import cosine_loss, subset_loss, total_loss

CLASS_NAMES = ("sphere", "cube", "plane")
# test clouds per checked epoch whose hard samples are checked to be exact input rows
SUBSET_CHECKS = 4
# every this many epochs (and at the last) those test samples are checked
SUBSET_CHECK_EVERY = 10
TRAIN_DTYPE = np.float32
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# noise scale of the synthetic shapes (the plane's height noise is 3x this)
JITTER = 0.02


class AdamState:
    """First/second moment accumulators plus the step counter."""

    def __init__(self, params: list[Tensor]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState, lr: float) -> None:
    """Standard Adam update with bias correction; updates params in place."""
    b1, b2 = ADAM_BETAS
    state.t += 1
    correct1 = 1.0 - b1**state.t
    correct2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise ShapeMismatchError(f"gradient shape {g.shape} vs parameter {p.data.shape}")
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        p.data -= lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


def head_layout(hidden: int, n_classes: int) -> dict[str, tuple[int, ...]]:
    """Every head array's name and shape, in the order init_head draws them:
    a per-point MLP (3 -> hidden -> hidden), then a linear classifier."""
    return {"head.mlp.0.w": (3, hidden), "head.mlp.0.b": (hidden,), "head.mlp.1.w": (hidden, hidden), "head.mlp.1.b": (hidden,),
            "head.cls.w": (hidden, n_classes), "head.cls.b": (n_classes,)}


@dataclass
class ToyTaskHead:
    """Per-point MLP, global max pool, linear classifier. Permutation-invariant.
    Holds its tensors by name, in head_layout() order."""

    tensors: dict[str, Tensor]

    @property
    def n_classes(self) -> int:
        return self.tensors["head.cls.w"].data.shape[1]

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())

    def forward(self, points: Tensor) -> Tensor:
        *mlp, wc, bc = self.tensors.values()
        h = points
        for w, b in zip(mlp[::2], mlp[1::2]):
            h = ad.relu(ad.add_rowvec(ad.matmul(h, w), b))
        pooled = ad.reshape(ad.max_over_axis(h, axis=0), (1, -1))
        return ad.add_rowvec(ad.matmul(pooled, wc), bc)

    def predict(self, points: np.ndarray) -> int:
        logits = self.forward(Tensor(points.astype(self.tensors["head.cls.w"].data.dtype, copy=False)))
        return int(logits.data.argmax())

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ToyTaskHead":
        """A constant head from the arrays head_layout() names; other arrays
        are ignored. The widths are read off head.cls.w (hidden, n_classes);
        ShapeMismatchError names the first array that is missing or does not
        fit them."""
        return cls(ad.constants(arrays, head_layout(*ad.matrix_shape(arrays, "head.cls.w"))))


def init_head(n_classes: int, hidden: int = 32, dtype=np.float64, seed: int = 0) -> ToyTaskHead:
    return ToyTaskHead(ad.init_tensors(head_layout(hidden, n_classes), seed, dtype))


@dataclass(frozen=True)
class LabeledCloud:
    cloud: PointCloud
    label: int


@dataclass
class DatasetSpec:
    """Synthetic set parameters; 100/30 per class mirrors a 7:3-style split."""

    train_per_class: int = 100
    test_per_class: int = 30
    points_per_cloud: int = 256
    seed: int = 0


@dataclass
class SyntheticDataset:
    train: list[LabeledCloud]
    test: list[LabeledCloud]
    class_names: tuple[str, ...]
    spec: DatasetSpec

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def _make_shape(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if name == "sphere":
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return d * (1.0 + rng.normal(scale=JITTER, size=(n, 1)))
    if name == "cube":
        face = rng.integers(0, 6, size=n)
        uv = rng.uniform(-1, 1, size=(n, 2))
        axis = face % 3
        rows = np.arange(n)
        pts = np.empty((n, 3))
        pts[rows, axis] = np.where(face < 3, 1.0, -1.0)
        # uv fills the two other axes in ascending order
        pts[rows, np.where(axis == 0, 1, 0)] = uv[:, 0]
        pts[rows, np.where(axis == 2, 1, 2)] = uv[:, 1]
        return pts + rng.normal(scale=JITTER, size=(n, 3))
    if name == "plane":
        pts = np.zeros((n, 3))
        pts[:, :2] = rng.uniform(-1, 1, size=(n, 2))
        pts[:, 2] = rng.normal(scale=3 * JITTER, size=n)
        return pts
    raise ValueError(f"unknown shape {name!r}")


def generate_dataset(spec: DatasetSpec) -> SyntheticDataset:
    """Seeded unit-scale shapes; same seed reproduces the same dataset."""
    rng = np.random.default_rng(spec.seed)
    train: list[LabeledCloud] = []
    test: list[LabeledCloud] = []
    for label, name in enumerate(CLASS_NAMES):
        for bucket, count in ((train, spec.train_per_class), (test, spec.test_per_class)):
            for _ in range(count):
                pts = _make_shape(name, spec.points_per_cloud, rng)
                bucket.append(LabeledCloud(PointCloud(pts), label))
    order = rng.permutation(len(train))
    train = [train[i] for i in order]
    return SyntheticDataset(train=train, test=test, class_names=CLASS_NAMES, spec=spec)


def _csv(spec: str):
    """A field written to the history CSV in the format `spec`."""
    return field(metadata={"csv": spec})


@dataclass
class EpochStats:
    epoch: int = _csv("d")
    total: float = _csv(".6f")
    task: float = _csv(".6f")
    subset: float = _csv(".6f")
    cosine: float = _csv(".6f")
    train_acc: float = _csv(".4f")
    test_acc: float = _csv(".4f")
    seconds: float = _csv(".3f")


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self) -> str:
        """One row per epoch under a header of EpochStats' field names."""
        columns = fields(EpochStats)
        lines = [",".join(f.name for f in columns)]
        lines += [",".join(format(getattr(e, f.name), f.metadata["csv"]) for f in columns) for e in self.epochs]
        return "\n".join(lines) + "\n"


def _split_accuracy(split: list[LabeledCloud], config, weights, head, check_subset: int = 0) -> float:
    """Accuracy of the head on the sampler's output; the first `check_subset`
    samples with indices are also checked to be exact rows of their input."""
    correct = 0
    for i, it in enumerate(split):
        sampled, idx = casnet.sample(it.cloud, config, weights)
        if i < check_subset and idx is not None and not np.array_equal(sampled.points, it.cloud.points[idx]):
            raise AssertionError("hard-sampled output is not an exact row subset")
        correct += head.predict(sampled.points) == it.label
    return correct / len(split)


def cloud_loss(cloud: PointCloud, label: int, config: CasNetConfig, weights: casnet.CasNetWeights, head: ToyTaskHead):
    """The training objective of one cloud: the sampler's forward, the head on
    its output, then task + alpha * subset + beta * cosine as the config
    sets them. Returns the loss breakdown and the head's logits; the
    breakdown's total is the root autodiff.backward takes in either variant."""
    _, p_sp, soft = casnet.forward(cloud, config, weights)
    logits = head.forward(p_sp)
    task = ad.cross_entropy(logits, np.array([label]))
    subset, cosine = subset_loss(cloud, p_sp), cosine_loss(ad.transpose(soft))
    return total_loss(task, subset, cosine, config.alpha, config.beta), logits


def train(
    config: CasNetConfig,
    dataset: SyntheticDataset,
    epochs: int = 100,
    lr: float = 5e-4,
    batch_size: int = 12,
    early_stop_acc: float | None = None,
) -> tuple[casnet.CasNetWeights, ToyTaskHead, TrainHistory]:
    """Jointly optimize sampler and head against the composite loss.

    One autodiff.backward per cloud serves both variants: a hard sample's tape
    node passes the straight-through gradient. The batch loss is the mean of
    per-cloud losses, each cloud building its own graph (see cloud_loss).
    History records every epoch; with early_stop_acc set, training stops once
    test accuracy reaches it. A parameter that is not finite after an Adam
    step stops training with a PcsimpError naming its array.

    Training runs in float32, the precision checkpoints store and inference
    on float32 frames runs in: the weights start in float32 and the train and
    test clouds are cast once per call (copies; `dataset` is not changed), so
    the forward, the losses, the backward, Adam and the test-split sampling
    all compute in float32. The layers keep their softmaxes free of
    subnormals (see casnet.offset_attention and casnet.soft_matrix).
    """
    config.validate(dataset.spec.points_per_cloud)
    at_least("m", config.m, 2)  # the cosine loss compares pairs of S~ columns
    weights = casnet.init_weights(config, config.m, dtype=TRAIN_DTYPE)
    head = init_head(dataset.n_classes, dtype=TRAIN_DTYPE, seed=config.seed + 1)
    train_split, test_split = (
        [LabeledCloud(PointCloud(it.cloud.points.astype(TRAIN_DTYPE)), it.label) for it in split]
        for split in (dataset.train, dataset.test)
    )
    named = {**weights.tensors, **head.tensors}
    params = list(named.values())
    state = AdamState(params)
    rng = np.random.default_rng(config.seed + 2)
    history = TrainHistory()

    for epoch in range(epochs):
        started = time.perf_counter()
        order = rng.permutation(len(train_split))
        sums = np.zeros(4)
        n_batches = 0
        train_hits = 0
        for lo in range(0, len(order), batch_size):
            batch = [train_split[i] for i in order[lo : lo + batch_size]]
            for p in params:
                p.zero_grad()
            batch_sums = np.zeros(4)
            for item in batch:
                breakdown, logits = cloud_loss(item.cloud, item.label, config, weights, head)
                train_hits += int(logits.data.argmax()) == item.label
                ad.backward(ad.scale(breakdown.total, 1.0 / len(batch)))
                batch_sums += breakdown.values()
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
            adam_step(params, grads, state, lr)
            for name, p in named.items():
                if not np.isfinite(p.data).all():
                    raise PcsimpError(f"{name} is not finite after an Adam step of epoch {epoch}")
            sums += batch_sums / len(batch)
            n_batches += 1

        # running train accuracy from the batch forwards; test via fresh inference
        train_acc = train_hits / len(train_split)
        check = epoch % SUBSET_CHECK_EVERY == 0 or epoch == epochs - 1
        test_acc = _split_accuracy(test_split, config, weights, head, SUBSET_CHECKS if check else 0)
        avg = sums / n_batches
        history.epochs.append(EpochStats(epoch, *avg, train_acc, test_acc, time.perf_counter() - started))
        if early_stop_acc is not None and test_acc >= early_stop_acc:
            break
    return weights, head, history


def classification_metrics(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> tuple[float, float, float, float]:
    """Accuracy plus macro-averaged precision/recall/F1.

    Classes that never occur in y_true are excluded from the macro means.
    A class predicted zero times gets precision 0 (and F1 0 when recall is
    also 0).
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ConfigError("cannot evaluate an empty split")
    acc = float((y_true == y_pred).mean())
    precisions, recalls, f1s = [], [], []
    for c in range(n_classes):
        support = (y_true == c).sum()
        if support == 0:
            continue
        tp = ((y_true == c) & (y_pred == c)).sum()
        fp = ((y_true != c) & (y_pred == c)).sum()
        fn = ((y_true == c) & (y_pred != c)).sum()
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn)
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    return acc, float(np.mean(precisions)), float(np.mean(recalls)), float(np.mean(f1s))
