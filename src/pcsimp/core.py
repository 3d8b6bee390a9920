"""Domain types, configuration, and validation shared by every sampler module."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

SENTINEL = -1

# One value each: bench/run.py and bench/quality.py construct configs with
# backend= and cosine_axis=, so the two fields, these tuples and those two
# arguments are deleted together, in a change to the benchmark.
BACKENDS = ("ball_query",)
MODES = ("assn", "ahsn")
COSINE_AXES = ("columns",)


class PcsimpError(Exception):
    """Base class of the package's errors. The CLI prints each as one line
    and exits 2 for an IoFailureError, 1 for any other."""


class ConfigError(PcsimpError):
    """A parameter outside the range its rule allows."""


class ShapeMismatchError(PcsimpError):
    pass


class EmptyCloudError(PcsimpError):
    pass


class NonFiniteCoordinateError(PcsimpError):
    def __init__(self, row: int):
        super().__init__(f"non-finite coordinate at row {row}")
        self.row = row


class IoFailureError(PcsimpError):
    """A file that cannot be read, written or decoded: the CLI exits 2."""


class ParseFailureError(IoFailureError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def at_least(name: str, value, low) -> None:
    """ConfigError unless value >= low."""
    if not value >= low:
        raise ConfigError(f"{name} must be >= {low}")


def one_of(name: str, value, choices: tuple) -> None:
    """ConfigError unless value is one of choices."""
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}")


def check_radius(radius: float) -> None:
    """ConfigError unless radius > 0: NaN fails; inf means an unbounded radius."""
    if not radius > 0:
        raise ConfigError("radius must be > 0")


def check_count(name: str, value: int, n: int) -> None:
    """ConfigError unless 1 <= value <= n: the one range rule for the counts
    an n-point cloud serves, k, m, chunks and downsampling ratios."""
    if not 1 <= value <= n:
        raise ConfigError(f"{name}={value} outside [1, {n}]")


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents; a file that cannot be read or decoded
    raises IoFailureError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise IoFailureError(str(e)) from e
    except UnicodeDecodeError as e:
        raise IoFailureError(f"{path}: not UTF-8 text: {e}") from e


@dataclass(frozen=True)
class PointCloud:
    """A non-empty n-by-3 matrix of finite spatial coordinates. Immutable
    after construction; raises ShapeMismatchError, EmptyCloudError or
    NonFiniteCoordinateError (naming the first bad row) otherwise. A contiguous
    float array is made read-only in place, not copied: PointCloud(a) freezes a."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.dtype not in (np.float32, np.float64):
            pts = pts.astype(np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ShapeMismatchError(f"expected (n, 3) array, got {pts.shape}")
        if len(pts) == 0:
            raise EmptyCloudError("point cloud has no points")
        if not np.isfinite(pts).all():
            raise NonFiniteCoordinateError(int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]))
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n


class SampleResult(NamedTuple):
    """A sampler's output cloud and the input rows it copies; indices is None
    for a soft (ASSN) sample, whose points are blends rather than rows."""

    cloud: PointCloud
    indices: np.ndarray | None


@dataclass(frozen=True)
class NeighborTable:
    """n-by-k index table; rows list neighbors nearest-first, -1 pads absent slots."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        if idx.ndim != 2:
            raise ShapeMismatchError(f"expected (n, k) index array, got {idx.shape}")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class CasNetConfig:
    """Sampler hyperparameters. Loadable from key=value files, overridden by
    CLI flags through dataclasses.replace. Every rule that does not depend on
    the cloud is checked when a config is made, raising ConfigError."""

    k: int = 32
    oa_layers: int = 3
    c: int = 64
    radius: float = 2.0
    backend: str = "ball_query"
    m: int | None = None
    alpha: float = 1.0
    beta: float = 1.0
    mode: str = "ahsn"
    seed: int = 0
    # widths the reference description leaves open; defaults match the smallest
    # shapes consistent with the feature width c and the output size m
    embed_hidden: int = 64
    score_hidden: int = 256
    cosine_axis: str = "columns"

    def __post_init__(self):
        at_least("k", self.k, 1)
        for name in ("oa_layers", "c", "embed_hidden", "score_hidden"):
            at_least(name, getattr(self, name), 1)
        at_least("seed", self.seed, 0)
        check_radius(self.radius)
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ConfigError("loss weights must be finite and >= 0")
        one_of("backend", self.backend, BACKENDS)
        one_of("mode", self.mode, MODES)
        one_of("cosine_axis", self.cosine_axis, COSINE_AXES)

    def validate(self, n: int) -> None:
        """Raise ConfigError unless m is set and k and m fit an n-point cloud."""
        if self.m is None:
            raise ConfigError("m is not set")
        check_count("k", self.k, n)
        check_count("m", self.m, n)

    @classmethod
    def from_file(cls, path: str | Path) -> "CasNetConfig":
        """Parse a plain-text key=value config file; '#' starts a comment.

        Raises IoFailureError (unreadable or not UTF-8) or ConfigError.
        """
        names = {f.name: f for f in fields(cls)}
        values = {}
        text = read_text(path)
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in names:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            typ = names[key].type
            try:
                if typ.startswith("int"):
                    values[key] = int(value)
                elif typ.startswith("float"):
                    values[key] = float(value)
                else:
                    values[key] = value
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from e
        return cls(**values)


def ratio_to_count(n: int, ratio: int) -> int:
    """Output size m = n // D at downsampling ratio D; ConfigError unless 1 <= D <= n."""
    check_count("ratio", ratio, n)
    return n // ratio


@dataclass(frozen=True)
class RunRecord:
    """One benchmark row: method, configuration, timings, and quality metrics.
    Raises PcsimpError for a negative time or a metric outside [0, 1]."""

    method: str
    n_in: int
    n_out: int
    oa: int | None = None
    k: int | None = None
    t_batch_s: float = 0.0
    t_sample_s: float = 0.0
    acc: float | None = None
    prec: float | None = None
    rec: float | None = None
    f1: float | None = None

    def __post_init__(self):
        if self.t_batch_s < 0 or self.t_sample_s < 0:
            raise PcsimpError("times must be >= 0")
        for v in (self.acc, self.prec, self.rec, self.f1):
            if v is not None and not 0.0 <= v <= 1.0:
                raise PcsimpError("metrics must lie in [0, 1]")
