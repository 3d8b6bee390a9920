import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from pcsimp import core
from pcsimp.core import (
    CasNetConfig,
    ConfigError,
    EmptyCloudError,
    IoFailureError,
    NonFiniteCoordinateError,
    ParseFailureError,
    PcsimpError,
    PointCloud,
    RunRecord,
    ShapeMismatchError,
    ratio_to_count,
)


def test_point_cloud_accepts_finite_points():
    assert PointCloud(np.array([[0.0, 0, 0], [1, 2, 3], [-1, 0.5, 2]])).n == 3


def test_point_cloud_rejects_empty():
    with pytest.raises(EmptyCloudError):
        PointCloud(np.empty((0, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_point_cloud_reports_offending_row(dtype, bad):
    pts = np.ones((64, 3), dtype=dtype)
    pts[40, 0] = bad
    pts[5, 1] = bad
    with pytest.raises(NonFiniteCoordinateError) as exc:
        PointCloud(pts)
    assert exc.value.row == 5 and "row 5" in str(exc.value)


def test_point_cloud_rejects_a_wrong_shape():
    with pytest.raises(ShapeMismatchError):
        PointCloud(np.zeros((4, 2)))


def test_cloud_points_are_immutable():
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


@pytest.mark.parametrize("n,d,expected", [(1024, 2, 512), (1024, 8, 128), (7, 1, 7), (10, 3, 3)])
def test_ratio_to_count(n, d, expected):
    assert ratio_to_count(n, d) == expected


def test_ratio_to_count_rejects_bad_ratio():
    with pytest.raises(ConfigError, match=r"^ratio 0 invalid for n=1024$"):
        ratio_to_count(1024, 0)
    with pytest.raises(ConfigError, match=r"^ratio 5 invalid for n=4$"):
        ratio_to_count(4, 5)


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
    CasNetConfig(m=32, radius=float("inf")).validate(256)  # an unbounded radius
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


CLOUD_FREE_RULES = [
    ("k", 0, "k must be >= 1"),
    ("oa_layers", 0, "oa_layers must be >= 1"),
    ("c", -1, "c must be >= 1"),
    ("embed_hidden", 0, "embed_hidden must be >= 1"),
    ("score_hidden", 0, "score_hidden must be >= 1"),
    ("seed", -1, "seed must be >= 0"),
    ("radius", -1.0, "radius must be > 0"),
    ("alpha", math.nan, "loss weights must be finite and >= 0"),
    ("beta", math.inf, "loss weights must be finite and >= 0"),
    ("backend", "octree", "backend must be one of ('ball_query',)"),
    ("mode", "soft", "mode must be one of ('assn', 'ahsn')"),
    ("cosine_axis", "diag", "cosine_axis must be one of ('columns',)"),
]


@pytest.mark.parametrize("name, value, message", CLOUD_FREE_RULES, ids=[rule[0] for rule in CLOUD_FREE_RULES])
def test_each_cloud_free_rule_fails_wherever_a_config_is_made(tmp_path, name, value, message):
    path = tmp_path / "run.conf"
    path.write_text(f"{name}={value}\n")
    makers = [
        lambda: CasNetConfig(**{name: value}),
        lambda: replace(CasNetConfig(), **{name: value}),
        lambda: CasNetConfig.from_file(path),
    ]
    for make in makers:
        with pytest.raises(ConfigError) as exc:
            make()
        assert str(exc.value) == message


def test_config_and_run_record_are_frozen():
    with pytest.raises(FrozenInstanceError):
        CasNetConfig().radius = -1.0
    with pytest.raises(FrozenInstanceError):
        RunRecord(method="rs", n_in=1, n_out=1).acc = 0.5


def test_run_record_validation():
    RunRecord(method="rs", n_in=1024, n_out=512, t_batch_s=0.1, t_sample_s=0.01)
    with pytest.raises(PcsimpError):
        RunRecord(method="rs", n_in=1, n_out=1, t_batch_s=-0.1)
    with pytest.raises(PcsimpError):
        RunRecord(method="rs", n_in=1, n_out=1, acc=1.2)


def test_core_defines_seven_error_classes():
    found = {name for name, obj in vars(core).items() if isinstance(obj, type) and issubclass(obj, Exception)}
    assert found == {
        "PcsimpError", "ConfigError", "ShapeMismatchError", "EmptyCloudError",
        "NonFiniteCoordinateError", "IoFailureError", "ParseFailureError",
    }


def test_parse_failure_is_an_io_failure_that_keeps_its_line():
    err = ParseFailureError(4, "expected 3 values, got 2")
    assert isinstance(err, IoFailureError) and err.line == 4 and str(err) == "line 4: expected 3 values, got 2"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"c": 0}, "c must be >= 1"),
        ({"embed_hidden": -1}, "embed_hidden must be >= 1"),
        ({"score_hidden": 0}, "score_hidden must be >= 1"),
        ({"oa_layers": 0}, "oa_layers must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"k": 0}, "k must be >= 1"),
        ({"radius": float("nan")}, "radius must be > 0"),
        ({"mode": "soft"}, "mode must be one of ('assn', 'ahsn')"),
        ({"cosine_axis": "diag"}, "cosine_axis must be one of ('columns',)"),
        ({"m": 0}, "m=0 outside [1, 256]"),
        ({"m": 300}, "m=300 outside [1, 256]"),
        ({"k": 300}, "k=300 exceeds cloud size 256"),
    ],
)
def test_config_validation_names_the_field(changes, message):
    with pytest.raises(ConfigError) as exc:
        CasNetConfig(**{"m": 32, **changes}).validate(256)
    assert str(exc.value) == message
