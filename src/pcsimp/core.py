"""Domain types, configuration, and validation shared by every sampler module."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

SENTINEL = -1

BACKENDS = ("ball_query", "knn_bruteforce")
MODES = ("assn", "ahsn")
COSINE_AXES = ("rows", "columns")


class PcsimpError(Exception):
    """Base class for all validation and processing errors."""


class EmptyCloudError(PcsimpError):
    pass


class NonFiniteCoordinateError(PcsimpError):
    def __init__(self, row: int):
        super().__init__(f"non-finite coordinate at row {row}")
        self.row = row


class InvalidRatioError(PcsimpError):
    pass


class KTooLargeError(PcsimpError):
    pass


class MTooLargeError(PcsimpError):
    pass


class BadStartError(PcsimpError):
    pass


class BadChunkCountError(PcsimpError):
    pass


class ShapeMismatchError(PcsimpError):
    pass


class IndexOutOfRangeError(PcsimpError):
    pass


class BadLabelError(PcsimpError):
    pass


class NonScalarRootError(PcsimpError):
    pass


class DegenerateAxisError(PcsimpError):
    pass


class EmptySplitError(PcsimpError):
    pass


class NoCacheError(PcsimpError):
    pass


class IoFailureError(PcsimpError):
    pass


class MalformedLengthError(PcsimpError):
    pass


class ParseFailureError(PcsimpError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(PcsimpError):
    pass


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
    """An n-by-3 matrix of spatial coordinates. Immutable after construction."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.dtype not in (np.float32, np.float64):
            pts = pts.astype(np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ShapeMismatchError(f"expected (n, 3) array, got {pts.shape}")
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n


def validate_cloud(cloud: PointCloud) -> None:
    """Raise unless the cloud is non-empty with all-finite coordinates."""
    if cloud.n == 0:
        raise EmptyCloudError("point cloud has no points")
    finite = np.isfinite(cloud.points).all(axis=1)
    if not finite.all():
        raise NonFiniteCoordinateError(int(np.flatnonzero(~finite)[0]))


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

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def validate(self, n_source: int) -> None:
        idx = self.indices
        real = idx != SENTINEL
        if idx[real].size and (idx[real].min() < 0 or idx[real].max() >= n_source):
            raise IndexOutOfRangeError("neighbor index outside source cloud")
        # sentinels must form a suffix of each row
        if np.any(real[:, 1:] & ~real[:, :-1]):
            raise PcsimpError("sentinel entries precede real entries")
        for row in idx:
            r = row[row != SENTINEL]
            if len(np.unique(r)) != len(r):
                raise PcsimpError("duplicate neighbor indices within a row")


@dataclass
class CasNetConfig:
    """Sampler hyperparameters. Loadable from key=value files, overridable by CLI flags."""

    k: int = 32
    oa_layers: int = 3
    c: int = 64
    radius: float = 2.0
    backend: str = "ball_query"
    m: int | None = None
    ratio: int | None = None
    alpha: float = 1.0
    beta: float = 1.0
    mode: str = "ahsn"
    seed: int = 0
    # widths the reference description leaves open; defaults match the smallest
    # shapes consistent with the feature width c and the output size m
    embed_hidden: int = 64
    score_hidden: int = 256
    cosine_axis: str = "rows"

    def validate(self, n: int | None = None) -> None:
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.oa_layers < 1:
            raise ConfigError("oa_layers must be >= 1")
        if self.radius <= 0:
            raise ConfigError("radius must be > 0")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.cosine_axis not in COSINE_AXES:
            raise ConfigError(f"cosine_axis must be one of {COSINE_AXES}")
        if self.m is None and self.ratio is None:
            raise ConfigError("either m or ratio must be set")
        if n is not None:
            if self.k > n:
                raise KTooLargeError(f"k={self.k} exceeds cloud size {n}")
            m = self.output_count(n)
            if not 1 <= m <= n:
                raise ConfigError(f"m={m} outside [1, {n}]")

    def output_count(self, n: int) -> int:
        if self.m is not None:
            return self.m
        return ratio_to_count(n, self.ratio)

    @classmethod
    def from_file(cls, path: str | Path) -> "CasNetConfig":
        """Parse a plain-text key=value config file; '#' starts a comment.

        Raises IoFailureError (unreadable or not UTF-8) or ConfigError.
        """
        cfg = cls()
        names = {f.name: f for f in fields(cls)}
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
                    parsed = int(value)
                elif typ.startswith("float"):
                    parsed = float(value)
                else:
                    parsed = value
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from e
            setattr(cfg, key, parsed)
        return cfg


def ratio_to_count(n: int, ratio: int) -> int:
    """Output size for an n-point cloud at downsampling ratio D (floor division)."""
    if ratio is None or ratio < 1 or n < ratio:
        raise InvalidRatioError(f"ratio {ratio} invalid for n={n}")
    return n // ratio


@dataclass
class RunRecord:
    """One benchmark row: method, configuration, timings, and quality metrics."""

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

    def validate(self) -> None:
        if self.t_batch_s < 0 or self.t_sample_s < 0:
            raise PcsimpError("times must be >= 0")
        for v in (self.acc, self.prec, self.rec, self.f1):
            if v is not None and not 0.0 <= v <= 1.0:
                raise PcsimpError("metrics must lie in [0, 1]")
