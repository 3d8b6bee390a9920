import json
import struct
import time

import numpy as np
import pytest

from pcsimp import autodiff as ad
from pcsimp import casnet, classic_samplers, nnsearch, training
from pcsimp.cli import main
from pcsimp.core import CasNetConfig, PointCloud
from pcsimp.io import REPORT_COLUMNS, read_kitti_bin, read_xyz, write_xyz


@pytest.fixture
def cloud_file(tmp_path):
    rng = np.random.default_rng(0)
    pts = (rng.uniform(size=(1024, 3)) * 4).astype(np.float32)
    path = tmp_path / "cloud.xyz"
    write_xyz(path, PointCloud(pts))
    return path


def _write_weights(path, config, m, seed=0):
    weights = casnet.init_weights(config, m, dtype=np.float32, seed=seed)
    ad.save_arrays(path, weights.to_arrays())
    return weights


def test_unknown_flag_exits_with_validation_code(capsys):
    assert main(["sample", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "k", "time_s", "verified"]
    assert [row.split()[:2] for row in rows] == [["64", "1"], ["64", "4"]]
    assert all(row.split()[-1] == "match" for row in rows)


def test_nnbench_flags_a_grid_that_drops_a_candidate(monkeypatch, capsys):
    rank = nnsearch._rank_block

    def faulty(pts, rows, cand, r2, k, out):
        # a fault in the grid alone: the whole-cloud reference ranks every point
        rank(pts, rows, cand[1:] if len(cand) < len(pts) else cand, r2, k, out)

    monkeypatch.setattr(nnsearch, "_rank_block", faulty)
    code = main(["nnbench", "--n", "512", "--k", "8"])
    assert code == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].split()[:2] == ["512", "8"] and rows[0].endswith("MISMATCH")


def test_nnbench_default_cloud_takes_the_grid(ranked_blocks, capsys):
    assert main(["nnbench"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["1024"] * 3 and all(row.endswith(" match") for row in rows)
    # the reference ranks every row against all 1024 points; the grid ranks fewer
    assert min(cand for _, cand in ranked_blocks) < 1024


def test_nnbench_times_no_row_with_the_first_call_cost(monkeypatch, capsys):
    search = nnsearch.ball_query
    calls = []

    def slow_first_call(*args):
        if not calls:
            time.sleep(0.05)
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(nnsearch, "ball_query", slow_first_call)
    assert main(["nnbench", "--n", "64", "--k", "8,1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 and all(float(row.split()[2]) < 0.05 for row in rows)


def test_nnbench_rejects_k_above_n_before_printing(capsys):
    code = main(["nnbench", "--n", "512,64", "--k", "8,100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: k=100 exceeds cloud size 64\n"


@pytest.mark.parametrize("radius", ["nan", "0", "-1"])
def test_nnbench_rejects_a_bad_radius_before_printing(capsys, radius):
    code = main(["nnbench", "--n", "64", "--k", "4", "--radius", radius])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: radius must be > 0\n"


def test_gradcheck_ops(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "FAIL" not in out
    assert out.splitlines()[-1].startswith("end-to-end ")


def test_sample_without_count_or_ratio_exits_with_one_line(cloud_file, tmp_path, capsys):
    out = tmp_path / "out.xyz"
    assert main(["sample", "--input", str(cloud_file), "--method", "fps", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "m or ratio" in err
    assert not out.exists()


def test_train_writes_checkpoint_and_history(tmp_path, capsys):
    out = tmp_path / "model.pcw"
    code = main(
        [
            "train", "--epochs", "2", "--batch", "4", "--out", str(out),
            "--k", "1", "--oa", "1", "--count", "8",
            "--train-per-class", "3", "--test-per-class", "1", "--points", "32",
        ]
    )
    assert code == 0
    assert out.exists()
    history = (tmp_path / "model.pcw.history.csv").read_text().splitlines()
    assert history[0].startswith("epoch,")
    assert len(history) == 3
    arrays = ad.load_arrays(out)
    assert "sigma.0.w" in arrays and "head.cls.w" in arrays
    assert not any(k.startswith("sampler.") for k in arrays)


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
    arrays = casnet.init_weights(config, 32, dtype=np.float32).to_arrays()
    arrays["oa.0.wq"] = np.zeros((16, 8), dtype=np.float32)
    weights = tmp_path / "w.pcw"
    ad.save_arrays(weights, arrays)
    code = main(["bench", "--input", str(data), "--methods", "casnet", "--weights", str(weights), "--k", "1", "--oa", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "oa.0.wq" in err and "(16, 8)" in err and "Traceback" not in err


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
    labels = tmp_path / "labels.csv"
    labels.write_text("c.xyz,0\n")
    code = main(["bench", "--input", str(data), "--methods", "rs", "--head", str(sampler_only), "--labels", str(labels)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "head.cls.w" in err


@pytest.mark.parametrize("flag, path", [("--head", "head.pcw"), ("--labels", "/nonexistent.csv")])
def test_bench_rejects_head_or_labels_alone_before_reading_a_file(tmp_path, capsys, flag, path):
    code = main(["bench", "--input", str(_small_clouds(tmp_path)), "--methods", "rs", flag, path])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: quality columns need both --head and --labels\n"


def test_bench_rejects_an_invalid_ratio_before_any_timing(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(classic_samplers, "random_sample", lambda *a: calls.append("rs"))
    code = main(["bench", "--input", str(_small_clouds(tmp_path)), "--methods", "rs", "--ratios", "2,100"])
    captured = capsys.readouterr()
    assert code == 1 and calls == [] and captured.out == ""
    assert captured.err == "error: ratio 100 invalid for n=64\n"


def test_bench_rejects_labels_naming_no_input_cloud_before_any_timing(tmp_path, monkeypatch, capsys):
    data = _small_clouds(tmp_path)
    head = tmp_path / "head.pcw"
    ad.save_arrays(head, training.init_head(3, dtype=np.float32).to_arrays())
    labels = tmp_path / "labels.csv"
    labels.write_text("other.xyz,0\n")
    calls = []
    monkeypatch.setattr(classic_samplers, "random_sample", lambda *a: calls.append("rs"))
    code = main(["bench", "--input", str(data), "--methods", "rs", "--head", str(head), "--labels", str(labels)])
    captured = capsys.readouterr()
    assert code == 1 and calls == [] and captured.out == ""
    assert captured.err == f"error: {labels} names none of the clouds in {data}\n"


@pytest.mark.parametrize("label", [7, 3, -1])
def test_bench_rejects_a_label_outside_the_heads_classes_before_any_timing(tmp_path, monkeypatch, capsys, label):
    data = _small_clouds(tmp_path)
    write_xyz(data / "d.xyz", PointCloud(np.random.default_rng(7).uniform(size=(64, 3)).astype(np.float32)))
    head = tmp_path / "head.pcw"
    ad.save_arrays(head, training.init_head(3, dtype=np.float32).to_arrays())
    labels = tmp_path / "labels.csv"
    labels.write_text(f"c.xyz,{label}\nd.xyz,0\n")
    calls = []
    monkeypatch.setattr(classic_samplers, "random_sample", lambda *a: calls.append("rs"))
    code = main(["bench", "--input", str(data), "--methods", "rs", "--head", str(head), "--labels", str(labels)])
    captured = capsys.readouterr()
    assert code == 1 and calls == [] and captured.out == ""
    assert captured.err == f"error: {labels}: c.xyz has label {label}, outside the head's 3 classes\n"


@pytest.mark.parametrize(
    "command, shapes, name",
    [
        pytest.param("sample", casnet.layout(8, 0, 8, 8, 1), "sigma.1.w", id="sampler-c0"),
        pytest.param("sample", casnet.layout(0, 8, 8, 8, 1), "sigma.1.w", id="sampler-e0"),
        pytest.param("sample", casnet.layout(8, 8, 0, 8, 1), "rho.hidden.w", id="sampler-s0"),
        pytest.param("bench", training.head_layout(32, 0), "head.cls.w", id="head-0-classes"),
    ],
)
def test_a_checkpoint_with_a_zero_width_matrix_exits_1_with_one_line(tmp_path, capsys, command, shapes, name):
    data = _small_clouds(tmp_path)
    ckpt = tmp_path / "w.pcw"
    ad.save_arrays(ckpt, {key: np.ones(shape, np.float32) for key, shape in shapes.items()})
    if command == "sample":
        argv = ["sample", "--input", str(data / "c.xyz"), "--method", "casnet", "--count", "8", "--k", "1", "--oa", "1",
                "--weights", str(ckpt), "--output", str(tmp_path / "o.xyz")]
    else:
        labels = tmp_path / "labels.csv"
        labels.write_text("c.xyz,0\n")
        argv = ["bench", "--input", str(data), "--methods", "rs", "--head", str(ckpt), "--labels", str(labels)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {ckpt}: {name} has shape {shapes[name]}, expected no zero width\n"


def test_sample_refuses_a_checkpoint_with_prefixed_sampler_arrays(cloud_file, tmp_path, capsys):
    weights = casnet.init_weights(CasNetConfig(k=1, oa_layers=1, m=8), 8, dtype=np.float32)
    old = tmp_path / "old.pcw"
    ad.save_arrays(old, {"sampler." + name: a for name, a in weights.to_arrays().items()})
    code = main(["sample", "--input", str(cloud_file), "--method", "casnet", "--count", "8", "--k", "1", "--oa", "1",
                 "--weights", str(old), "--output", str(tmp_path / "o.xyz")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {old}: sigma.1.w is missing\n"


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
        ["train", *TINY_TRAIN, "--points", "-5"],
        ["train", *TINY_TRAIN, "--points", "0"],
    ],
)
def test_bad_integer_flags_exit_1_with_one_error_line(tmp_path, capsys, argv):
    paths = {"bench": ["--input", str(_small_clouds(tmp_path))], "train": ["--out", str(tmp_path / "m.pcw")]}
    code = main(argv + paths.get(argv[0], []))
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--lr", "nan"],
        ["--lr", "inf"],
        ["--lr", "0"],
        ["--lr", "-1"],
        ["--radius", "nan"],
        ["--config", "radius=nan"],
        ["--alpha", "nan"],
        ["--beta", "inf"],
    ],
    ids="=".join,
)
def test_bad_float_settings_exit_1_with_one_error_line_and_no_checkpoint(tmp_path, capsys, argv):
    if argv[0] == "--config":
        config = tmp_path / "casnet.cfg"
        config.write_text(argv[1] + "\n")
        argv = ["--config", str(config)]
    out = tmp_path / "m.pcw"
    code = main(["train", *TINY_TRAIN, "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


def test_sample_rejects_zero_chunks(cloud_file, tmp_path, capsys):
    out = tmp_path / "o.xyz"
    code = main(["sample", "--input", str(cloud_file), "--method", "fps-chunked", "--chunks", "0", "--ratio", "2", "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_sample_and_bench_take_the_seed_from_a_config_file(cloud_file, tmp_path, monkeypatch):
    config = tmp_path / "casnet.cfg"
    config.write_text("seed=5\n")
    seeds = []
    real = classic_samplers.random_sample
    monkeypatch.setattr(classic_samplers, "random_sample", lambda cloud, m, seed: seeds.append(seed) or real(cloud, m, seed))
    sample = ["sample", "--input", str(cloud_file), "--method", "rs", "--ratio", "2", "--output", str(tmp_path / "o.xyz")]
    assert main([*sample, "--config", str(config)]) == 0
    assert main([*sample, "--config", str(config), "--seed", "7"]) == 0
    assert main(sample) == 0
    bench = ["bench", "--input", str(_small_clouds(tmp_path)), "--methods", "rs", "--repeats", "1"]
    assert main([*bench, "--config", str(config)]) == 0
    assert seeds == [5, 7, 0, 5]


def test_bench_rejects_a_mis_shaped_head_before_timing_with_one_line(tmp_path, monkeypatch, capsys):
    data = _small_clouds(tmp_path)
    arrays = training.init_head(3, dtype=np.float32).to_arrays()
    arrays["head.mlp.1.w"] = np.zeros((16, 32), dtype=np.float32)
    head = tmp_path / "head.pcw"
    ad.save_arrays(head, arrays)
    labels = tmp_path / "labels.csv"
    labels.write_text("c.xyz,0\n")
    calls = []
    monkeypatch.setattr(classic_samplers, "random_sample", lambda *a: calls.append("rs"))
    code = main(["bench", "--input", str(data), "--methods", "rs", "--head", str(head), "--labels", str(labels)])
    captured = capsys.readouterr()
    assert code == 1 and calls == [] and captured.out == ""
    assert captured.err == f"error: {head}: head.mlp.1.w has shape (16, 32), expected (32, 32)\n"


def test_train_stops_with_one_line_when_a_parameter_diverges(tmp_path, monkeypatch, capsys):
    real = training.adam_step

    def poisoning(params, grads, state, lr):
        real(params, grads, state, lr)
        params[0].data[0, 0] = np.inf

    monkeypatch.setattr(training, "adam_step", poisoning)
    out = tmp_path / "m.pcw"
    code = main(["train", *TINY_TRAIN, "--epochs", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: sigma.0.w is not finite after an Adam step of epoch 0\n"
    assert not out.exists()


def _one_line(capsys, code, expected_code, line):
    """The command exited with expected_code, wrote nothing to stdout and
    exactly `line` to stderr."""
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (expected_code, "", line + "\n")


# one case per error class folded into ConfigError, ShapeMismatchError or
# IoFailureError that the CLI can reach; {c} is a 64-point cloud, {t} a
# 100-byte .bin, {o} an output path
FOLDED_CLASS_CASES = {
    "k-above-n": (["bench", "--input", "{d}", "--methods", "casnet", "--k", "100", "--oa", "1"], 1, "error: k=100 exceeds cloud size 64"),
    "m-above-n": (["sample", "--input", "{c}", "--method", "fps", "--count", "100", "--output", "{o}"], 1, "error: m=100 outside [1, 64]"),
    "ratio-above-n": (["sample", "--input", "{c}", "--method", "rs", "--ratio", "100", "--output", "{o}"], 1, "error: ratio 100 invalid for n=64"),
    "zero-chunks": (["sample", "--input", "{c}", "--method", "fps-chunked", "--chunks", "0", "--count", "8", "--output", "{o}"], 1, "error: chunks=0 outside [1, 64]"),
    "one-column-cosine": (["train", *TINY_TRAIN, "--count", "1", "--out", "{o}"], 1, "error: need at least two vectors"),
    "truncated-bin": (["sample", "--input", "{t}", "--method", "fps", "--count", "1", "--output", "{o}"], 2, "io error: {t}: size 100 is not a multiple of 16"),
}


@pytest.mark.parametrize("argv, expected_code, line", FOLDED_CLASS_CASES.values(), ids=FOLDED_CLASS_CASES)
def test_each_folded_error_class_keeps_its_exit_code_and_line(tmp_path, capsys, argv, expected_code, line):
    data = _small_clouds(tmp_path)
    truncated = tmp_path / "t.bin"
    truncated.write_bytes(bytes(100))
    paths = {"c": data / "c.xyz", "d": data, "t": truncated, "o": tmp_path / "out.xyz"}
    code = main([a.format(**paths) for a in argv])
    _one_line(capsys, code, expected_code, line.format(**paths))
    assert not paths["o"].exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", *TINY_TRAIN, "--seed", "-1", "--out", "{o}"],
        ["bench", "--input", "{d}", "--methods", "rs", "--seed", "-1"],
        ["nnbench", "--n", "64", "--seed", "-1"],
        ["sample", "--input", "{c}", "--method", "fps", "--count", "8", "--seed", "-1", "--output", "{o}"],
        ["sample", "--input", "{c}", "--method", "rs", "--count", "8", "--seed", "-1", "--output", "{o}"],
        ["train", *TINY_TRAIN, "--config", "{f}", "--out", "{o}"],
        ["bench", "--input", "{d}", "--methods", "rs", "--config", "{f}"],
    ],
    ids=["train", "bench", "nnbench", "sample-fps", "sample-rs", "train-config", "bench-config"],
)
def test_a_negative_seed_exits_1_with_one_line(tmp_path, capsys, argv):
    data = _small_clouds(tmp_path)
    config = tmp_path / "casnet.cfg"
    config.write_text("seed=-1\n")
    paths = {"c": data / "c.xyz", "d": data, "f": config, "o": tmp_path / "out"}
    code = main([a.format(**paths) for a in argv])
    _one_line(capsys, code, 1, "error: seed must be >= 0")
    assert not paths["o"].exists()


@pytest.mark.parametrize("setting", ["c=0", "c=-1", "embed_hidden=0", "score_hidden=-2"])
@pytest.mark.parametrize("command", ["train", "bench"])
def test_a_width_below_one_exits_1_with_one_line_before_any_work(tmp_path, capsys, monkeypatch, command, setting):
    config = tmp_path / "casnet.cfg"
    config.write_text(setting + "\n")
    calls = []
    monkeypatch.setattr(casnet, "init_weights", lambda *a, **kw: calls.append(a))
    out = tmp_path / "m.pcw"
    argv = {
        "train": ["train", *TINY_TRAIN, "--config", str(config), "--out", str(out)],
        "bench": ["bench", "--input", str(_small_clouds(tmp_path)), "--methods", "casnet", "--k", "1", "--oa", "1", "--config", str(config)],
    }[command]
    code = main(argv)
    _one_line(capsys, code, 1, f"error: {setting.split('=')[0]} must be >= 1")
    assert calls == [] and not out.exists()


CLOUD_FREE_SETTINGS = {
    "radius=-1": "error: radius must be > 0",
    "mode=x": "error: mode must be one of ('assn', 'ahsn')",
    "backend=octree": "error: backend must be one of ('ball_query',)",
    "backend=knn_bruteforce": "error: backend must be one of ('ball_query',)",
    "cosine_axis=diag": "error: cosine_axis must be one of ('columns',)",
    "cosine_axis=rows": "error: cosine_axis must be one of ('columns',)",
    "alpha=nan": "error: loss weights must be finite and >= 0",
}


@pytest.mark.parametrize("setting, line", CLOUD_FREE_SETTINGS.items(), ids=CLOUD_FREE_SETTINGS)
@pytest.mark.parametrize("method", ["rs", "fps", "fps-chunked", "casnet"])
def test_sample_rejects_a_bad_config_with_one_line_whatever_the_method(tmp_path, capsys, method, setting, line):
    config = tmp_path / "casnet.cfg"
    config.write_text(setting + "\n")
    weights = tmp_path / "w.pcw"
    _write_weights(weights, CasNetConfig(), 8)
    out = tmp_path / "o.xyz"
    code = main([
        "sample", "--input", str(_small_clouds(tmp_path) / "c.xyz"), "--method", method, "--count", "8",
        "--weights", str(weights), "--config", str(config), "--output", str(out),
    ])
    _one_line(capsys, code, 1, line)
    assert not out.exists()


@pytest.mark.parametrize("k, line", [("0", "error: k must be >= 1"), ("100", "error: k=100 exceeds cloud size 64")], ids=["zero", "above-n"])
def test_bench_with_weights_rejects_a_bad_k_before_timing(tmp_path, monkeypatch, capsys, k, line):
    weights = tmp_path / "w.pcw"
    _write_weights(weights, CasNetConfig(k=1, oa_layers=1, c=16, m=32, embed_hidden=16, score_hidden=16), 32)
    calls = []
    monkeypatch.setattr(classic_samplers, "random_sample", lambda *a: calls.append("rs"))
    code = main([
        "bench", "--input", str(_small_clouds(tmp_path)), "--methods", "rs,casnet", "--ratios", "2",
        "--weights", str(weights), "--oa", "1", "--k", k,
    ])
    _one_line(capsys, code, 1, line)
    assert calls == []


@pytest.mark.parametrize("chunks", ["0", "49"], ids=["zero", "above-a-clouds-n"])
def test_bench_rejects_a_bad_chunk_count_before_any_timing(tmp_path, monkeypatch, capsys, chunks):
    data = _small_clouds(tmp_path)
    write_xyz(data / "d.xyz", PointCloud(np.random.default_rng(7).uniform(size=(48, 3)).astype(np.float32)))
    calls = []
    real = classic_samplers.random_sample
    monkeypatch.setattr(classic_samplers, "random_sample", lambda *a: calls.append("rs") or real(*a))
    code = main(["bench", "--input", str(data), "--methods", "rs,fps-chunked", "--chunks", chunks])
    assert calls == []
    _one_line(capsys, code, 1, f"error: chunks={chunks} outside [1, 48]")


@pytest.mark.parametrize(
    "argv, expected_code, line",
    [
        (["--input", "{d}", "--methods", "rs,xyz"], 1, "error: unknown method 'xyz'"),
        (["--input", "{c}", "--methods", "rs"], 2, "io error: {c}: not a directory"),
    ],
    ids=["unknown-method", "input-is-a-file"],
)
def test_bench_rejects_an_unknown_method_or_a_file_for_input_before_any_timing(tmp_path, monkeypatch, capsys, argv, expected_code, line):
    data = _small_clouds(tmp_path)
    paths = {"c": data / "c.xyz", "d": data}
    calls = []
    monkeypatch.setattr(classic_samplers, "random_sample", lambda *a: calls.append("rs"))
    code = main(["bench", *(a.format(**paths) for a in argv)])
    _one_line(capsys, code, expected_code, line.format(**paths))
    assert calls == []


def test_bench_quality_columns_score_each_methods_samples_of_the_labelled_clouds(tmp_path):
    data = _small_clouds(tmp_path)
    write_xyz(data / "d.xyz", PointCloud(np.random.default_rng(7).uniform(size=(48, 3)).astype(np.float32)))
    head_path = tmp_path / "head.pcw"
    ad.save_arrays(head_path, training.init_head(3, dtype=np.float32, seed=10).to_arrays())
    labels = tmp_path / "labels.csv"
    labels.write_text("d.xyz,1\n")
    report = tmp_path / "report.csv"
    code = main([
        "bench", "--input", str(data), "--methods", "rs,fps", "--ratios", "4", "--repeats", "1",
        "--head", str(head_path), "--labels", str(labels), "--report", str(report),
    ])
    assert code == 0
    rows = [dict(zip(REPORT_COLUMNS, line.split(","))) for line in report.read_text().splitlines()[1:]]
    # only d.xyz, the second cloud in name order, is labelled: rs draws it with seed 1
    cloud = read_xyz(data / "d.xyz")
    head = training.ToyTaskHead.from_arrays(ad.load_arrays(head_path))
    samples = {"rs": classic_samplers.random_sample(cloud, 12, 1), "fps": classic_samplers.fps(cloud, 12, 0)}
    assert [row["method"] for row in rows] == ["rs", "fps"]
    for row in rows:
        predicted = head.predict(samples[row["method"]].cloud.points)
        expected = training.classification_metrics(np.array([1]), np.array([predicted]), 3)
        assert [row[c] for c in ("acc", "prec", "rec", "f1")] == [f"{v:.4f}" for v in expected]


def test_sample_writes_a_bin_output_whose_rows_are_bitwise_input_rows(cloud_file, tmp_path):
    out = tmp_path / "o.bin"
    code = main(["sample", "--input", str(cloud_file), "--method", "rs", "--count", "16", "--seed", "3", "--output", str(out)])
    assert code == 0
    source = read_xyz(cloud_file)
    expected = source.points[classic_samplers.random_sample(source, 16, 3).indices]
    written = read_kitti_bin(out).points
    assert written.dtype == np.float32 and written.tobytes() == expected.tobytes()


def test_train_without_count_saves_a_sampler_of_32_output_points(tmp_path):
    out = tmp_path / "m.pcw"
    argv = ["--train-per-class", "1", "--test-per-class", "1", "--points", "64", "--k", "1", "--oa", "1"]
    assert main(["train", *argv, "--epochs", "1", "--out", str(out)]) == 0
    assert ad.load_arrays(out)["rho.out.w"].shape[1] == 32
