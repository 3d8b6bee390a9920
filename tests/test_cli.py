import json
import struct

import numpy as np
import pytest

from pcsimp import autodiff as ad
from pcsimp import casnet, classic_samplers, nnsearch, training
from pcsimp.cli import main
from pcsimp.core import CasNetConfig, NeighborTable, PointCloud
from pcsimp.io import read_xyz, write_xyz


@pytest.fixture
def cloud_file(tmp_path):
    rng = np.random.default_rng(0)
    pts = (rng.uniform(size=(1024, 3)) * 4).astype(np.float32)
    path = tmp_path / "cloud.xyz"
    write_xyz(path, PointCloud(pts))
    return path


def _write_weights(path, config, m, seed=0):
    weights = casnet.init_weights(config, m, dtype=np.float32, seed=seed)
    ad.save_arrays(path, weights.to_arrays(prefix="sampler."))
    return weights


def test_unknown_flag_exits_with_validation_code(capsys):
    assert main(["sample", "--bogus"]) == 1


def test_missing_subcommand_exits_with_validation_code():
    assert main([]) == 1


def test_sample_rs_is_deterministic(cloud_file, tmp_path, capsys):
    out1 = tmp_path / "a.xyz"
    out2 = tmp_path / "b.xyz"
    for out in (out1, out2):
        code = main(
            ["sample", "--input", str(cloud_file), "--method", "rs", "--ratio", "2", "--seed", "7", "--output", str(out)]
        )
        assert code == 0
    captured = capsys.readouterr().out
    assert "t_sample_s=" in captured
    a, b = read_xyz(out1), read_xyz(out2)
    assert a.n == 512
    assert np.array_equal(a.points, b.points)


def test_sample_count_flag_and_fps(cloud_file, tmp_path):
    out = tmp_path / "fps.xyz"
    code = main(["sample", "--input", str(cloud_file), "--method", "fps", "--count", "64", "--output", str(out)])
    assert code == 0
    assert read_xyz(out).n == 64


def test_sample_fps_chunked_halves_point_count(tmp_path):
    rng = np.random.default_rng(1)
    src = tmp_path / "big.xyz"
    write_xyz(src, PointCloud(rng.uniform(size=(8192, 3)).astype(np.float32) * 30))
    out = tmp_path / "half.xyz"
    code = main(
        ["sample", "--input", str(src), "--method", "fps-chunked", "--chunks", "8", "--ratio", "2", "--output", str(out)]
    )
    assert code == 0
    assert read_xyz(out).n == 4096


def test_sample_casnet_requires_weights(cloud_file, tmp_path):
    code = main(
        ["sample", "--input", str(cloud_file), "--method", "casnet", "--ratio", "2", "--output", str(tmp_path / "o.xyz")]
    )
    assert code == 1


def test_sample_casnet_ahsn_output_is_subset(cloud_file, tmp_path):
    config = CasNetConfig(k=1, oa_layers=1, c=16, m=128, embed_hidden=16, score_hidden=16, mode="ahsn")
    wpath = tmp_path / "w.pcw"
    _write_weights(wpath, config, 128)
    out = tmp_path / "sampled.xyz"
    code = main(
        [
            "sample", "--input", str(cloud_file), "--method", "casnet", "--count", "128",
            "--weights", str(wpath), "--mode", "ahsn", "--k", "1", "--oa", "1", "--output", str(out),
        ]
    )
    assert code == 0
    written = read_xyz(out)
    source = read_xyz(cloud_file)
    rows = {row.tobytes() for row in source.points}
    assert all(row.tobytes() in rows for row in written.points)


def test_sample_missing_input_is_io_error(tmp_path):
    code = main(
        ["sample", "--input", str(tmp_path / "absent.xyz"), "--method", "rs", "--ratio", "2", "--output", str(tmp_path / "o.xyz")]
    )
    assert code == 2


def test_sample_requires_count_or_ratio(cloud_file, tmp_path):
    code = main(["sample", "--input", str(cloud_file), "--method", "rs", "--output", str(tmp_path / "o.xyz")])
    assert code == 1


def test_bench_produces_report(tmp_path, capsys):
    rng = np.random.default_rng(2)
    data = tmp_path / "clouds"
    data.mkdir()
    for i in range(3):
        write_xyz(data / f"c{i}.xyz", PointCloud(rng.uniform(size=(256, 3)).astype(np.float32)))
    report = tmp_path / "report.csv"
    code = main(
        ["bench", "--input", str(data), "--methods", "rs,fps", "--ratios", "2,4", "--repeats", "3", "--report", str(report)]
    )
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("method,")
    assert len(lines) == 1 + 4  # 2 methods x 2 ratios
    out = capsys.readouterr().out
    assert "rs" in out and "fps" in out


def test_bench_empty_directory_is_validation_error(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["bench", "--input", str(empty)]) == 1


def test_bench_casnet_without_weights_times_random_init(tmp_path):
    rng = np.random.default_rng(3)
    data = tmp_path / "clouds"
    data.mkdir()
    for i in range(2):
        write_xyz(data / f"c{i}.xyz", PointCloud(rng.uniform(size=(128, 3)).astype(np.float32)))
    report = tmp_path / "report.csv"
    code = main(
        [
            "bench", "--input", str(data), "--methods", "casnet", "--ratios", "2", "--repeats", "1",
            "--k", "1", "--oa", "1", "--report", str(report),
        ]
    )
    assert code == 0
    row = report.read_text().splitlines()[1]
    assert row.startswith("casnet,128,64,1,1,")


def test_bench_rejects_mismatched_weights_before_timing(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(4)
    data = tmp_path / "clouds"
    data.mkdir()
    for i in range(2):
        write_xyz(data / f"c{i}.xyz", PointCloud(rng.uniform(size=(64, 3)).astype(np.float32)))
    config = CasNetConfig(k=1, oa_layers=1, c=16, m=32, embed_hidden=16, score_hidden=16, mode="ahsn")
    weights = tmp_path / "w.pcw"
    _write_weights(weights, config, 32)
    calls = []
    monkeypatch.setattr(classic_samplers, "random_sample", lambda *a: calls.append("rs"))
    monkeypatch.setattr(casnet, "sample", lambda *a: calls.append("casnet"))
    code = main(
        [
            "bench", "--input", str(data), "--methods", "rs,casnet", "--ratios", "2,4", "--repeats", "1",
            "--weights", str(weights), "--k", "1", "--oa", "1",
        ]
    )
    assert code == 1
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "m=32" in captured.err and "m=16" in captured.err


def test_nnbench_verifies_backends(capsys):
    code = main(["nnbench", "--n", "64", "--k", "1,4", "--radius", "2.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "match" in out and "MISMATCH" not in out
    rows = out.splitlines()[1:]
    assert sum("ball_query" in row for row in rows) == 2
    assert all(row.endswith("match") for row in rows)


def test_nnbench_flags_a_ball_query_with_reversed_rows(monkeypatch, capsys):
    exact = nnsearch.ball_query
    # every reversed row still lists only in-radius neighbours, in the wrong order
    monkeypatch.setattr(nnsearch, "ball_query", lambda cloud, radius, k: NeighborTable(exact(cloud, radius, k).indices[:, ::-1]))
    code = main(["nnbench", "--n", "512", "--k", "8", "--backends", "ball_query", "--radius", "0.3"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_gradcheck_ops(capsys):
    assert main(["gradcheck", "--ops"]) == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "FAIL" not in out


def test_train_writes_checkpoint_and_history(tmp_path, capsys):
    out = tmp_path / "model.pcw"
    code = main(
        [
            "train", "--epochs", "2", "--batch", "4", "--out", str(out),
            "--k", "1", "--oa", "1", "--count", "8",
            "--train-per-class", "3", "--test-per-class", "1", "--points", "32",
            "--cosine-axis", "columns",
        ]
    )
    assert code == 0
    assert out.exists()
    history = (tmp_path / "model.pcw.history.csv").read_text().splitlines()
    assert history[0].startswith("epoch,")
    assert len(history) == 3
    arrays = ad.load_arrays(out)
    assert any(k.startswith("sampler.") for k in arrays)
    assert any(k.startswith("head.") for k in arrays)


def test_trained_weights_feed_sample_command(tmp_path):
    out = tmp_path / "model.pcw"
    assert (
        main(
            [
                "train", "--epochs", "1", "--batch", "4", "--out", str(out),
                "--k", "1", "--oa", "1", "--count", "8",
                "--train-per-class", "2", "--test-per-class", "1", "--points", "32",
            ]
        )
        == 0
    )
    rng = np.random.default_rng(5)
    src = tmp_path / "in.xyz"
    write_xyz(src, PointCloud(rng.uniform(size=(32, 3)).astype(np.float32)))
    dst = tmp_path / "out.xyz"
    code = main(
        [
            "sample", "--input", str(src), "--method", "casnet", "--count", "8",
            "--weights", str(out), "--k", "1", "--oa", "1", "--mode", "ahsn", "--output", str(dst),
        ]
    )
    assert code == 0
    assert read_xyz(dst).n == 8


def _write_container(path, manifest, payload):
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(struct.pack("<BI", ad.WEIGHTS_FORMAT_VERSION, len(blob)) + blob + payload)


def _small_clouds(tmp_path):
    data = tmp_path / "clouds"
    data.mkdir()
    write_xyz(data / "c.xyz", PointCloud(np.random.default_rng(6).uniform(size=(64, 3)).astype(np.float32)))
    return data


FOUR_FLOATS = np.arange(4, dtype="<f4").tobytes()


@pytest.mark.parametrize(
    "manifest, payload",
    [
        pytest.param([{"shape": [2], "offset": 0}], FOUR_FLOATS, id="entry-without-name"),
        pytest.param([{"name": "w", "shape": [2], "offset": -4}], FOUR_FLOATS, id="negative-offset"),
        pytest.param([{"name": "w", "shape": [2], "offset": 0}], np.array([1.0, np.nan], dtype="<f4").tobytes(), id="nan-value"),
        pytest.param([{"name": "w", "shape": [3], "offset": 0}, {"name": "v", "shape": [1], "offset": 8}], FOUR_FLOATS, id="overlapping-arrays"),
        pytest.param([{"name": "w", "shape": [2], "offset": 0}, {"name": "w", "shape": [2], "offset": 8}], FOUR_FLOATS, id="duplicate-names"),
        pytest.param([{"name": "w", "shape": [2.0], "offset": 0}], FOUR_FLOATS, id="non-integer-shape"),
        pytest.param({"name": "w"}, FOUR_FLOATS, id="manifest-not-a-list"),
        pytest.param([{"name": "w", "shape": [0, 10**20], "offset": 0}], FOUR_FLOATS, id="shape-numpy-cannot-build"),
        pytest.param([{"name": "w", "shape": [1] * 65, "offset": 0}], FOUR_FLOATS, id="more-dimensions-than-numpy-allows"),
    ],
)
def test_bench_rejects_malformed_weights_with_one_line(tmp_path, capsys, manifest, payload):
    data = _small_clouds(tmp_path)
    weights = tmp_path / "w.pcw"
    _write_container(weights, manifest, payload)
    code = main(["bench", "--input", str(data), "--methods", "casnet", "--weights", str(weights), "--k", "1", "--oa", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("io error: ") and "Traceback" not in err


def test_bench_rejects_a_checkpoint_whose_shapes_disagree_with_one_line(tmp_path, capsys):
    data = _small_clouds(tmp_path)
    config = CasNetConfig(k=1, oa_layers=1, c=8, m=32, embed_hidden=16, score_hidden=16)
    arrays = casnet.init_weights(config, 32, dtype=np.float32).to_arrays(prefix="sampler.")
    arrays["sampler.oa.0.wq"] = np.zeros((16, 8), dtype=np.float32)
    weights = tmp_path / "w.pcw"
    ad.save_arrays(weights, arrays)
    code = main(["bench", "--input", str(data), "--methods", "casnet", "--weights", str(weights), "--k", "1", "--oa", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sampler.oa.0.wq" in err and "(16, 8)" in err and "Traceback" not in err


def test_bench_rejects_a_checkpoint_with_another_attention_depth_with_one_line(tmp_path, capsys):
    data = _small_clouds(tmp_path)
    weights = tmp_path / "w.pcw"
    _write_weights(weights, CasNetConfig(k=1, oa_layers=2, c=8, m=32, embed_hidden=16, score_hidden=16), 32)
    code = main(["bench", "--input", str(data), "--methods", "casnet", "--weights", str(weights), "--k", "1", "--oa", "1", "--ratios", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "2 attention layers" in err and "Traceback" not in err


def test_bench_rejects_non_integer_label_with_line_number(tmp_path, capsys):
    data = _small_clouds(tmp_path)
    head = tmp_path / "head.pcw"
    ad.save_arrays(head, training.init_head(3, dtype=np.float32).to_arrays())
    labels = tmp_path / "labels.csv"
    labels.write_text("# name,label\nc.xyz,notanint\n")
    code = main(["bench", "--input", str(data), "--methods", "rs", "--head", str(head), "--labels", str(labels)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 2" in err and "notanint" in err


def test_bench_rejects_head_file_without_head_weights(tmp_path, capsys):
    data = _small_clouds(tmp_path)
    sampler_only = tmp_path / "sampler.pcw"
    _write_weights(sampler_only, CasNetConfig(k=1, oa_layers=1, c=16, m=32, embed_hidden=16, score_hidden=16), 32)
    code = main(["bench", "--input", str(data), "--methods", "rs", "--head", str(sampler_only)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "head.cls.w" in err


NOT_UTF8 = b"\xff\xfe1 2 3\n"


def _assert_one_io_line(capsys, path):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("io error: ") and str(path) in err and "Traceback" not in err


def test_sample_rejects_a_non_utf8_xyz_with_one_line(tmp_path, capsys):
    src = tmp_path / "bad.xyz"
    src.write_bytes(NOT_UTF8)
    code = main(["sample", "--input", str(src), "--method", "rs", "--ratio", "1", "--output", str(tmp_path / "o.xyz")])
    assert code == 2
    _assert_one_io_line(capsys, src)


def test_bench_rejects_non_utf8_labels_with_one_line(tmp_path, capsys):
    data = _small_clouds(tmp_path)
    head = tmp_path / "head.pcw"
    ad.save_arrays(head, training.init_head(3, dtype=np.float32).to_arrays())
    labels = tmp_path / "labels.csv"
    labels.write_bytes(NOT_UTF8)
    code = main(["bench", "--input", str(data), "--methods", "rs", "--head", str(head), "--labels", str(labels)])
    assert code == 2
    _assert_one_io_line(capsys, labels)


def test_sample_rejects_a_non_utf8_config_file_with_one_line(cloud_file, tmp_path, capsys):
    config = tmp_path / "casnet.cfg"
    config.write_bytes(NOT_UTF8)
    code = main(["sample", "--input", str(cloud_file), "--method", "rs", "--ratio", "2", "--config", str(config), "--output", str(tmp_path / "o.xyz")])
    assert code == 2
    _assert_one_io_line(capsys, config)


TINY_TRAIN = ["--train-per-class", "1", "--test-per-class", "1", "--points", "32", "--k", "1", "--oa", "1", "--count", "8"]


@pytest.mark.parametrize(
    "argv",
    [
        ["nnbench", "--n", "abc"],
        ["nnbench", "--n", "-5"],
        ["nnbench", "--k", "abc"],
        ["bench", "--methods", "rs", "--ratios", "abc"],
        ["bench", "--methods", "rs", "--repeats", "0"],
        ["train", "--epochs", "0", *TINY_TRAIN],
        ["train", "--batch", "0", *TINY_TRAIN],
        ["train", *TINY_TRAIN, "--train-per-class", "0"],
        ["train", *TINY_TRAIN, "--test-per-class", "0"],
    ],
)
def test_bad_integer_flags_exit_1_with_one_error_line(tmp_path, capsys, argv):
    paths = {"bench": ["--input", str(_small_clouds(tmp_path))], "train": ["--out", str(tmp_path / "m.pcw")]}
    code = main(argv + paths.get(argv[0], []))
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err and err.count("error: ") == 1


def test_sample_rejects_zero_chunks(cloud_file, tmp_path, capsys):
    out = tmp_path / "o.xyz"
    code = main(["sample", "--input", str(cloud_file), "--method", "fps-chunked", "--chunks", "0", "--ratio", "2", "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")
