"""Property-based fuzz tests of every reader of outside input.

For any bytes, each reader either returns a well-formed result or raises one
of the PcsimpError subclasses its docstring names; any other exception fails
the test. Inputs mix arbitrary bytes with near-valid files built from tokens
that sit at each parser's edges. The example count and seed come from the
profile in conftest.py.
"""

import json
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pcsimp import autodiff as ad  # noqa: E402
from pcsimp.cli import _read_labels  # noqa: E402
from pcsimp.core import (  # noqa: E402
    CasNetConfig,
    ConfigError,
    EmptyCloudError,
    IoFailureError,
    NonFiniteCoordinateError,
    ParseFailureError,
    PointCloud,
)
from pcsimp.io import read_kitti_bin, read_xyz  # noqa: E402

TOKENS = st.sampled_from(
    ["0", "1", "-2.5", "1e3", "3.4e38", "1e39", "-1e400", "nan", "inf", "-0", "0x10", "1_000", "abc", "", " ", "#", ",", "=", "\t", "٣", "\x00", "None"]
)
WORDS = st.one_of(TOKENS, st.text(max_size=6))
NUMBERS = st.one_of(TOKENS, st.floats().map(repr), st.integers().map(str))


def text_files(line):
    """Lines from `line`, as UTF-8 bytes, sometimes after bytes that are not UTF-8."""
    text = st.lists(line, max_size=6).map("\n".join).map(lambda t: t.encode("utf-8"))
    return st.one_of(text, text, st.binary(max_size=64), st.tuples(st.sampled_from([b"\xff\xfe", b"\xc3", b"\x80"]), text).map(b"".join))


def float32_bytes(per_record=1):
    """Little-endian float32 values, a whole number of `per_record` groups."""
    values = st.integers(0, 6).flatmap(lambda r: st.lists(st.floats(width=32), min_size=r * per_record, max_size=r * per_record))
    return values.map(lambda v: np.array(v, dtype="<f4").tobytes())


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _finite_cloud(cloud):
    assert isinstance(cloud, PointCloud) and cloud.points.dtype == np.float32
    assert cloud.n >= 1 and cloud.points.shape == (cloud.n, 3) and np.isfinite(cloud.points).all()


@given(text_files(st.one_of(st.lists(NUMBERS, min_size=3, max_size=3), st.lists(WORDS, max_size=5)).map(" ".join)))
def test_read_xyz_parses_or_raises_a_documented_error(path, data):
    path.write_bytes(data)
    try:
        cloud = read_xyz(path)
    except (IoFailureError, ParseFailureError, EmptyCloudError, NonFiniteCoordinateError):
        return
    _finite_cloud(cloud)


@given(st.one_of(st.binary(max_size=80), float32_bytes(), float32_bytes(per_record=4)))
def test_read_kitti_bin_parses_or_raises_a_documented_error(path, data):
    path.write_bytes(data)
    try:
        cloud = read_kitti_bin(path)
    except (IoFailureError, EmptyCloudError, NonFiniteCoordinateError):
        return
    _finite_cloud(cloud)
    assert cloud.n == len(data) // 16


NAMES = st.sampled_from(["w", "v", "u"])
# counts, with a zero beside a size numpy cannot index, and more dimensions than it supports
COUNTS = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 3), st.sampled_from([2**62, 10**20])), max_size=3)
SHAPES = st.one_of(COUNTS, COUNTS, COUNTS, st.lists(st.just(1), min_size=60, max_size=70))
OFFSETS = st.sampled_from([0, 4, 8, 16, 24])
ODD = st.one_of(st.integers(-1, 2**40), st.floats(), st.booleans(), st.text(max_size=2), st.none(), st.lists(st.floats(), max_size=2))
WELL_TYPED = st.fixed_dictionaries({"name": NAMES, "shape": SHAPES, "offset": OFFSETS})
ILL_TYPED = st.fixed_dictionaries({}, optional={"name": st.one_of(NAMES, ODD), "shape": st.one_of(SHAPES, ODD), "offset": st.one_of(OFFSETS, ODD)})
MANIFESTS = st.one_of(
    st.lists(st.one_of(WELL_TYPED, WELL_TYPED, WELL_TYPED, ILL_TYPED, ODD), max_size=3),
    st.lists(WELL_TYPED, max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.integers(),
)


@st.composite
def containers(draw):
    """save_arrays' layout: version byte, manifest length, manifest, payload;
    each part near-valid or off."""
    blob = json.dumps(draw(MANIFESTS)).encode("utf-8")
    blob_len = max(0, len(blob) + draw(st.sampled_from([0] * 8 + [-1, 1, 1000])))
    version = draw(st.sampled_from([ad.WEIGHTS_FORMAT_VERSION] * 8 + [0, 2]))
    payload = draw(st.one_of(float32_bytes(), float32_bytes(), st.binary(max_size=32)))
    return struct.pack("<BI", version, blob_len) + blob + payload


@given(st.one_of(st.binary(max_size=64), containers(), containers()))
def test_load_arrays_parses_or_raises_a_documented_error(path, data):
    path.write_bytes(data)
    try:
        arrays = ad.load_arrays(path)
    except IoFailureError:
        return
    for name, arr in arrays.items():
        assert isinstance(name, str) and arr.dtype == np.float32 and np.isfinite(arr).all()


CONFIG_KEYS = st.one_of(st.sampled_from(["k", "oa_layers", "c", "radius", "backend", "m", "ratio", "mode", "seed", "cosine_axis"]), st.text(max_size=4))


@given(text_files(st.one_of(st.tuples(CONFIG_KEYS, TOKENS, WORDS).map(lambda t: f"{t[0]}{t[1]}{t[2]}"), WORDS)))
def test_config_from_file_parses_or_raises_a_documented_error(path, data):
    path.write_bytes(data)
    try:
        config = CasNetConfig.from_file(path)
    except (IoFailureError, ConfigError):
        return
    assert isinstance(config, CasNetConfig)


@given(text_files(st.one_of(st.tuples(WORDS, TOKENS, WORDS).map(lambda t: f"{t[0]}{t[1]}{t[2]}"), WORDS)))
def test_read_labels_parses_or_raises_a_documented_error(path, data):
    path.write_bytes(data)
    try:
        labels = _read_labels(path)
    except (IoFailureError, ParseFailureError):
        return
    assert all(isinstance(name, str) and isinstance(label, int) for name, label in labels.items())
