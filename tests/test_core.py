import numpy as np
import pytest

from pcsimp.core import (
    CasNetConfig,
    ConfigError,
    EmptyCloudError,
    InvalidRatioError,
    NeighborTable,
    NonFiniteCoordinateError,
    PcsimpError,
    PointCloud,
    RunRecord,
    ratio_to_count,
    validate_cloud,
)


def test_validate_cloud_accepts_finite_points():
    validate_cloud(PointCloud(np.array([[0.0, 0, 0], [1, 2, 3], [-1, 0.5, 2]])))


def test_validate_cloud_rejects_empty():
    with pytest.raises(EmptyCloudError):
        validate_cloud(PointCloud(np.empty((0, 3))))


def test_validate_cloud_reports_offending_row():
    pts = np.zeros((8, 3))
    pts[5, 1] = np.nan
    with pytest.raises(NonFiniteCoordinateError) as exc:
        validate_cloud(PointCloud(pts))
    assert exc.value.row == 5


def test_cloud_points_are_immutable():
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


@pytest.mark.parametrize("n,d,expected", [(1024, 2, 512), (1024, 8, 128), (7, 1, 7), (10, 3, 3)])
def test_ratio_to_count(n, d, expected):
    assert ratio_to_count(n, d) == expected


def test_ratio_to_count_rejects_bad_ratio():
    with pytest.raises(InvalidRatioError):
        ratio_to_count(1024, 0)
    with pytest.raises(InvalidRatioError):
        ratio_to_count(4, 5)


def test_neighbor_table_validation():
    NeighborTable(np.array([[0, 1], [1, -1]])).validate(2)
    with pytest.raises(PcsimpError):
        NeighborTable(np.array([[0, 2]])).validate(2)  # index out of range
    with pytest.raises(PcsimpError):
        NeighborTable(np.array([[-1, 0]])).validate(2)  # sentinel before real
    with pytest.raises(PcsimpError):
        NeighborTable(np.array([[1, 1]])).validate(2)  # duplicate


def test_config_defaults_follow_reference_setup():
    cfg = CasNetConfig()
    assert cfg.k == 32 and cfg.oa_layers == 3 and cfg.c == 64
    assert cfg.radius == 2.0 and cfg.alpha == 1.0 and cfg.beta == 1.0


def test_config_validation():
    cfg = CasNetConfig(m=32)
    cfg.validate(256)
    with pytest.raises(ConfigError):
        CasNetConfig(m=None, ratio=None).validate(256)
    with pytest.raises(ConfigError):
        CasNetConfig(m=32, radius=-1).validate(256)
    with pytest.raises(ConfigError):
        CasNetConfig(m=32, backend="octree").validate(256)
    with pytest.raises(PcsimpError):
        CasNetConfig(m=32, k=300).validate(256)


def test_config_output_count_uses_ratio():
    assert CasNetConfig(ratio=4).output_count(1024) == 256
    assert CasNetConfig(m=100, ratio=4).output_count(1024) == 100  # explicit m wins


def test_config_from_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("k = 1\noa_layers=1\nradius = 2.5  # wide\nmode=assn\nm=64\n")
    cfg = CasNetConfig.from_file(path)
    assert cfg.k == 1 and cfg.oa_layers == 1 and cfg.radius == 2.5
    assert cfg.mode == "assn" and cfg.m == 64


def test_config_from_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("neighbours=3\n")
    with pytest.raises(ConfigError):
        CasNetConfig.from_file(path)


def test_run_record_validation():
    rec = RunRecord(method="rs", n_in=1024, n_out=512, t_batch_s=0.1, t_sample_s=0.01)
    rec.validate()
    with pytest.raises(PcsimpError):
        RunRecord(method="rs", n_in=1, n_out=1, t_batch_s=-0.1).validate()
    with pytest.raises(PcsimpError):
        RunRecord(method="rs", n_in=1, n_out=1, acc=1.2).validate()
