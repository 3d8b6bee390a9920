import struct

import numpy as np
import pytest

from pcsimp.core import (
    EmptyCloudError,
    MalformedLengthError,
    NonFiniteCoordinateError,
    ParseFailureError,
    PcsimpError,
    PointCloud,
    RunRecord,
)
from pcsimp.io import (
    format_report,
    read_kitti_bin,
    read_xyz,
    write_kitti_bin,
    write_report,
    write_xyz,
)


def test_read_kitti_bin_known_records(tmp_path):
    path = tmp_path / "scan.bin"
    payload = struct.pack("<8f", 1.5, -2.25, 3.0, 0.5, 0.0, 10.0, -0.125, 0.9)
    path.write_bytes(payload)
    cloud = read_kitti_bin(path)
    assert cloud.n == 2
    assert np.array_equal(cloud.points, np.array([[1.5, -2.25, 3.0], [0.0, 10.0, -0.125]], dtype=np.float32))


def test_read_kitti_bin_rejects_partial_record(tmp_path):
    path = tmp_path / "scan.bin"
    path.write_bytes(b"\x00" * 17)
    with pytest.raises(MalformedLengthError):
        read_kitti_bin(path)


def test_read_kitti_bin_rejects_empty_file(tmp_path):
    path = tmp_path / "scan.bin"
    path.write_bytes(b"")
    with pytest.raises(EmptyCloudError):
        read_kitti_bin(path)


def test_read_kitti_bin_rejects_non_finite(tmp_path):
    path = tmp_path / "scan.bin"
    path.write_bytes(struct.pack("<4f", 1.0, float("nan"), 0.0, 0.0))
    with pytest.raises(NonFiniteCoordinateError):
        read_kitti_bin(path)


def test_kitti_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    pts = (rng.normal(size=(1000, 3)) * 50).astype(np.float32)
    path = tmp_path / "scan.bin"
    write_kitti_bin(path, PointCloud(pts))
    back = read_kitti_bin(path)
    assert np.array_equal(back.points, pts)
    # intensity slots written as zero
    raw = np.frombuffer(path.read_bytes(), dtype="<f4").reshape(-1, 4)
    assert np.all(raw[:, 3] == 0.0)


def test_read_xyz_basic(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("0 0 0\n1 2 3\n")
    cloud = read_xyz(path)
    assert cloud.n == 2
    assert np.array_equal(cloud.points[1], np.array([1, 2, 3], dtype=np.float32))


def test_read_xyz_rejects_empty(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("")
    with pytest.raises(EmptyCloudError):
        read_xyz(path)


def test_read_xyz_reports_line_number(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("0 0 0\n1 2\n")
    with pytest.raises(ParseFailureError) as exc:
        read_xyz(path)
    assert exc.value.line == 2
    path.write_text("0 0 0\n\n1 2 zebra\n")
    with pytest.raises(ParseFailureError) as exc:
        read_xyz(path)
    assert exc.value.line == 3


def test_read_xyz_rejects_non_finite(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("0 0 0\n1 nan 3\n")
    with pytest.raises(NonFiniteCoordinateError) as exc:
        read_xyz(path)
    assert exc.value.row == 1


@pytest.mark.filterwarnings("error")
def test_read_xyz_reports_a_value_beyond_float32_without_a_warning(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("0 0 0\n1e39 0 0\n")
    with pytest.raises(NonFiniteCoordinateError) as exc:
        read_xyz(path)
    assert exc.value.row == 1


def test_xyz_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    pts = (rng.normal(size=(1000, 3)) * 123.456).astype(np.float32)
    path = tmp_path / "cloud.xyz"
    write_xyz(path, PointCloud(pts))
    back = read_xyz(path)
    assert np.array_equal(back.points, pts)


def _records():
    return [
        RunRecord("rs", 1024, 512, None, None, 0.000540, 0.000045),
        RunRecord("rs", 1024, 256, None, None, 0.000517, 0.000043),
        RunRecord("casnet", 1024, 512, 1, 1, 0.019459, 0.001624, 0.8951, 0.8421, 0.8523, 0.8435),
    ]


def test_csv_report_layout(tmp_path):
    path = tmp_path / "report.csv"
    write_report(_records()[:1], "csv", path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "method,n_in,n_out,oa,k,t_batch_s,t_sample_s,acc,prec,rec,f1"
    assert lines[1] == "rs,1024,512,,,0.000540,0.000045,,,,"


def test_times_use_six_decimal_places():
    text = format_report(_records(), "csv")
    assert "0.001624" in text
    assert "0.000045" in text


def test_markdown_groups_rows_by_method():
    text = format_report(_records(), "markdown")
    lines = text.splitlines()
    assert lines[0].startswith("| method |")
    body = lines[2:]
    assert body[0].startswith("| rs |")
    assert body[1].startswith("|  |")  # second rs row leaves the method cell blank
    assert body[2].startswith("| casnet |")


def test_report_rejects_empty_records():
    with pytest.raises(PcsimpError):
        format_report([], "csv")


def test_report_rejects_unknown_format():
    with pytest.raises(PcsimpError):
        format_report(_records(), "html")
