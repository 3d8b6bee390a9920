"""Point cloud file ingestion/egress and benchmark report emission.

Formats: KITTI-style .bin (little-endian float32 x,y,z,intensity quadruples)
and whitespace-separated ASCII .xyz. Intensity is parsed and discarded; the
write path emits zero intensity. Reports go out as CSV or grouped markdown.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import (
    EmptyCloudError,
    IoFailureError,
    ParseFailureError,
    PcsimpError,
    PointCloud,
    RunRecord,
    read_text,
)

KITTI_RECORD_BYTES = 16

REPORT_COLUMNS = tuple(f.name for f in fields(RunRecord))


def read_kitti_bin(path: str | Path) -> PointCloud:
    """Parse consecutive 16-byte records; keep xyz, drop intensity.

    Raises IoFailureError (unreadable, or a size that is not a whole number
    of records), EmptyCloudError or NonFiniteCoordinateError.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise IoFailureError(str(e)) from e
    if len(raw) % KITTI_RECORD_BYTES != 0:
        raise IoFailureError(f"{path}: size {len(raw)} is not a multiple of {KITTI_RECORD_BYTES}")
    if len(raw) == 0:
        raise EmptyCloudError(f"{path}: empty file")
    records = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    return PointCloud(records[:, :3].copy())


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
    # a value beyond the float32 range casts to inf, which PointCloud reports
    with np.errstate(over="ignore"):
        pts = np.asarray(rows, dtype=np.float32)
    return PointCloud(pts)


def write_xyz(path: str | Path, cloud: PointCloud) -> None:
    """17-significant-digit decimals so read(write(c)) is bit-exact for float32."""
    lines = [" ".join(f"{v:.17g}" for v in row) for row in cloud.points]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise IoFailureError(str(e)) from e


def read_cloud(path: str | Path) -> PointCloud:
    return read_kitti_bin(path) if str(path).endswith(".bin") else read_xyz(path)


def write_cloud(path: str | Path, cloud: PointCloud) -> None:
    if str(path).endswith(".bin"):
        write_kitti_bin(path, cloud)
    else:
        write_xyz(path, cloud)


def _cell(column: str, value) -> str:
    """Empty for None, times (t_*) to 6 decimals, other floats to 4."""
    if value is None:
        return ""
    if column.startswith("t_"):
        return f"{value:.6f}"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _record_cells(r: RunRecord) -> list[str]:
    return [_cell(column, getattr(r, column)) for column in REPORT_COLUMNS]


def format_report(records: list[RunRecord], fmt: str = "csv") -> str:
    if not records:
        raise PcsimpError("no records to report")
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
