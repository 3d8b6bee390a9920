"""Point cloud file ingestion/egress and benchmark report emission.

Formats: KITTI-style .bin (little-endian float32 x,y,z,intensity quadruples)
and whitespace-separated ASCII .xyz. Intensity is parsed and discarded; the
write path emits zero intensity. Reports go out as CSV or grouped markdown.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import (
    EmptyCloudError,
    IoFailureError,
    MalformedLengthError,
    ParseFailureError,
    PcsimpError,
    PointCloud,
    RunRecord,
    read_text,
    validate_cloud,
)

KITTI_RECORD_BYTES = 16

REPORT_COLUMNS = ("method", "n_in", "n_out", "oa", "k", "t_batch_s", "t_sample_s", "acc", "prec", "rec", "f1")


def read_kitti_bin(path: str | Path) -> PointCloud:
    """Parse consecutive 16-byte records; keep xyz, drop intensity.

    Raises IoFailureError (unreadable), MalformedLengthError (size not a
    whole number of records), EmptyCloudError or NonFiniteCoordinateError.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise IoFailureError(str(e)) from e
    if len(raw) % KITTI_RECORD_BYTES != 0:
        raise MalformedLengthError(f"{path}: size {len(raw)} is not a multiple of {KITTI_RECORD_BYTES}")
    if len(raw) == 0:
        raise EmptyCloudError(f"{path}: empty file")
    records = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    cloud = PointCloud(records[:, :3].copy())
    validate_cloud(cloud)
    return cloud


def write_kitti_bin(path: str | Path, cloud: PointCloud) -> None:
    """xyz as float32 plus a zero intensity channel per record."""
    out = np.zeros((cloud.n, 4), dtype="<f4")
    out[:, :3] = cloud.points.astype("<f4")
    try:
        with open(path, "wb") as fh:
            fh.write(out.tobytes())
    except OSError as e:
        raise IoFailureError(str(e)) from e


def read_xyz(path: str | Path) -> PointCloud:
    """One point per line, whitespace-separated decimals, parsed as float32.

    Raises IoFailureError (unreadable or not UTF-8), ParseFailureError (a
    line that is not three decimals), EmptyCloudError or
    NonFiniteCoordinateError (including values beyond the float32 range).
    """
    text = read_text(path)
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseFailureError(lineno, f"expected 3 values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as e:
            raise ParseFailureError(lineno, str(e)) from e
    if not rows:
        raise EmptyCloudError(f"{path}: no points")
    # a value beyond the float32 range casts to inf, which validate_cloud reports
    with np.errstate(over="ignore"):
        pts = np.asarray(rows, dtype=np.float32)
    cloud = PointCloud(pts)
    validate_cloud(cloud)
    return cloud


def write_xyz(path: str | Path, cloud: PointCloud) -> None:
    """17-significant-digit decimals so read(write(c)) is bit-exact for float32."""
    lines = [" ".join(f"{v:.17g}" for v in row) for row in cloud.points]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise IoFailureError(str(e)) from e


def read_cloud(path: str | Path, fmt: str | None = None) -> PointCloud:
    fmt = fmt or ("bin" if str(path).endswith(".bin") else "xyz")
    return read_kitti_bin(path) if fmt == "bin" else read_xyz(path)


def write_cloud(path: str | Path, cloud: PointCloud, fmt: str | None = None) -> None:
    fmt = fmt or ("bin" if str(path).endswith(".bin") else "xyz")
    if fmt == "bin":
        write_kitti_bin(path, cloud)
    else:
        write_xyz(path, cloud)


def _cell(value, time_format: bool = False) -> str:
    if value is None:
        return ""
    if time_format:
        return f"{value:.6f}"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _record_cells(r: RunRecord) -> list[str]:
    return [
        r.method,
        str(r.n_in),
        str(r.n_out),
        _cell(r.oa),
        _cell(r.k),
        _cell(r.t_batch_s, time_format=True),
        _cell(r.t_sample_s, time_format=True),
        _cell(r.acc),
        _cell(r.prec),
        _cell(r.rec),
        _cell(r.f1),
    ]


def format_report(records: list[RunRecord], fmt: str = "csv") -> str:
    if not records:
        raise PcsimpError("no records to report")
    for r in records:
        r.validate()
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        lines += [",".join(_record_cells(r)) for r in records]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        header = "| " + " | ".join(REPORT_COLUMNS) + " |"
        rule = "|" + "|".join("---" for _ in REPORT_COLUMNS) + "|"
        lines = [header, rule]
        previous_method = None
        for r in records:
            cells = _record_cells(r)
            if r.method == previous_method:
                cells[0] = ""  # method name spans its block
            previous_method = r.method
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise PcsimpError(f"unknown report format {fmt!r}")


def write_report(records: list[RunRecord], fmt: str, path: str | Path) -> None:
    text = format_report(records, fmt)
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise IoFailureError(str(e)) from e
