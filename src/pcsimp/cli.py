"""Command-line entry point: sample, bench, nnbench, train, gradcheck.

Exit codes: 0 success, 1 a bad flag or a PcsimpError, 2 an IoFailureError
(a ParseFailureError among them) or an OSError.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import casnet, classic_samplers, nnsearch, training
from .autodiff import Tensor
from .core import (
    MODES,
    CasNetConfig,
    IoFailureError,
    ParseFailureError,
    PcsimpError,
    PointCloud,
    RunRecord,
    SENTINEL,
    ShapeMismatchError,
    at_least,
    check_count,
    check_k,
    check_radius,
    ratio_to_count,
    read_text,
)
from .io import format_report, read_cloud, write_cloud

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

METHODS = ("rs", "fps", "fps-chunked", "casnet")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags and prints its usage first; the CLI
    contract wants exit 1 and one line."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0."""
    try:
        value = float(text)
        if 0 < value < float("inf"):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")


def _positive_ints(text: str) -> list[int]:
    """argparse type: a comma list of integers >= 1."""
    return [_positive_int(v) for v in text.split(",")]


def _config_from_args(args) -> CasNetConfig:
    """The --config file's settings (or the defaults), overridden by every
    flag given: each flag's dest is the name of the field it sets."""
    cfg = CasNetConfig.from_file(args.config) if getattr(args, "config", None) else CasNetConfig()
    flags = {f.name: getattr(args, f.name, None) for f in fields(CasNetConfig)}
    return replace(cfg, **{name: value for name, value in flags.items() if value is not None})


def _load_weights(path: str, read):
    """read(arrays) on the checkpoint at path; its ShapeMismatchError names the file."""
    arrays = ad.load_arrays(path)
    try:
        return read(arrays)
    except ShapeMismatchError as e:
        raise ShapeMismatchError(f"{path}: {e}") from None


def _casnet_setup(config: CasNetConfig, weights, n: int, m: int, what: str):
    """Config and weights for m of n points, checked against the cloud before
    any timing starts. Weights are drawn from the config when none are given;
    loaded ones must fit it."""
    cfg = replace(config, m=m, ratio=None)
    cfg.validate(n)
    if weights is None:
        weights = casnet.init_weights(cfg, m, dtype=np.float32, seed=cfg.seed)
    weights.check_fits(cfg.oa_layers, m, f"{what}: ")
    return cfg, weights


def _sampler_fn(method: str, args, casnet_setups: dict):
    """Returns f(cloud, m, seed) -> SampleResult for one of METHODS.

    casnet_setups maps each m the learned sampler will be asked for to its
    (config, weights) pair from `_casnet_setup`.
    """
    if method == "rs":
        return classic_samplers.random_sample
    if method == "fps":
        return lambda cloud, m, seed: classic_samplers.fps(cloud, m, 0)
    if method == "fps-chunked":
        chunks = args.chunks
        return lambda cloud, m, seed: classic_samplers.fps_chunked(cloud, m, chunks)
    return lambda cloud, m, seed: casnet.sample(cloud, *casnet_setups[m])


def cmd_sample(args) -> int:
    cloud = read_cloud(args.input)
    config = _config_from_args(args)
    m = config.output_count(cloud.n)
    setups = {}
    if args.method == "casnet":
        if not args.weights:
            raise PcsimpError("casnet requires --weights")
        setups[m] = _casnet_setup(config, _load_weights(args.weights, casnet.CasNetWeights.from_arrays), cloud.n, m, args.input)
    fn = _sampler_fn(args.method, args, setups)

    started = time.perf_counter()
    sampled, indices = fn(cloud, m, config.seed)
    elapsed = time.perf_counter() - started
    print(f"t_sample_s={elapsed:.6f}")

    write_cloud(args.output, sampled)
    if args.method == "casnet" and config.mode == "ahsn":
        written = read_cloud(args.output)
        input_rows = {row.tobytes() for row in cloud.points.astype(np.float32)}
        if not all(row.tobytes() in input_rows for row in written.points.astype(np.float32)):
            raise PcsimpError("hard-sampled output is not a subset of the input")
    return EXIT_OK


def _collect_clouds(directory: str) -> list[tuple[str, PointCloud]]:
    root = Path(directory)
    if not root.is_dir():
        raise IoFailureError(f"{directory}: not a directory")
    paths = sorted(p for p in root.iterdir() if p.suffix in (".xyz", ".bin"))
    if not paths:
        raise PcsimpError(f"{directory}: no .xyz or .bin clouds found")
    return [(p.name, read_cloud(p)) for p in paths]


def _read_labels(path: str) -> dict[str, int]:
    """`filename,label` lines; blank lines and '#' lines are skipped. Raises
    IoFailureError (unreadable or not UTF-8) or ParseFailureError."""
    labels = {}
    text = read_text(path)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition(",")
        if not value:
            raise ParseFailureError(lineno, "expected 'filename,label'")
        try:
            labels[name.strip()] = int(value)
        except ValueError:
            raise ParseFailureError(lineno, f"label {value.strip()!r} is not an integer") from None
    return labels


def cmd_bench(args) -> int:
    if bool(args.head) != bool(args.labels):
        raise PcsimpError("quality columns need both --head and --labels")
    clouds = _collect_clouds(args.input)
    methods = args.methods.split(",")
    for mth in methods:
        if mth not in METHODS:
            raise PcsimpError(f"unknown method {mth!r}")
    ratios = args.ratios
    config = _config_from_args(args)
    weights = _load_weights(args.weights, casnet.CasNetWeights.from_arrays) if args.weights else None
    head = _load_weights(args.head, training.ToyTaskHead.from_arrays) if args.head else None
    labels = _read_labels(args.labels) if args.labels else None
    if labels is not None and not any(name in labels for name, _ in clouds):
        raise PcsimpError(f"{args.labels} names none of the clouds in {args.input}")
    for name, label in (labels or {}).items():
        if not 0 <= label < head.n_classes:
            raise PcsimpError(f"{args.labels}: {name} has label {label}, outside the head's {head.n_classes} classes")
    # every (cloud, ratio) and the chunk count are checked before any timing
    counts = {ratio: [ratio_to_count(cloud.n, ratio) for _, cloud in clouds] for ratio in ratios}
    if "fps-chunked" in methods:
        check_count("chunks", args.chunks, min(cloud.n for _, cloud in clouds))
    setups = {}
    if "casnet" in methods:
        # k must fit each cloud, and a checkpoint emits one m, so a pair that
        # needs another fails here; weights drawn for an m serve every later
        # cloud that needs that m
        for ratio in ratios:
            for (name, cloud), m in zip(clouds, counts[ratio]):
                known = setups[m][1] if m in setups else weights
                setups[m] = _casnet_setup(config, known, cloud.n, m, f"{name} at ratio {ratio}")

    records = []
    for method in methods:
        fn = _sampler_fn(method, args, setups)
        for ratio in ratios:
            batch_times = []
            outputs = None
            for rep in range(args.repeats):
                total = 0.0
                outputs = []
                for i, ((name, cloud), m) in enumerate(zip(clouds, counts[ratio])):
                    started = time.perf_counter()
                    sampled, _ = fn(cloud, m, config.seed + i)
                    total += time.perf_counter() - started
                    outputs.append((name, cloud, sampled))
                batch_times.append(total)
            t_batch = float(np.median(batch_times))
            acc = prec = rec = f1 = None
            if head is not None:
                y_true, y_pred = [], []
                for name, _, sampled in outputs:
                    if name not in labels:
                        continue
                    y_true.append(labels[name])
                    y_pred.append(head.predict(sampled.points))
                acc, prec, rec, f1 = training.classification_metrics(np.array(y_true), np.array(y_pred), head.n_classes)
            records.append(RunRecord(
                method=method,
                n_in=int(np.median([c.n for _, c in clouds])),
                n_out=int(np.median([s.n for _, _, s in outputs])),
                oa=config.oa_layers if method == "casnet" else None,
                k=config.k if method == "casnet" else None,
                t_batch_s=t_batch,
                t_sample_s=t_batch / len(clouds),
                acc=acc, prec=prec, rec=rec, f1=f1,
            ))

    text = format_report(records, args.format)
    print(text, end="")
    if args.report:
        Path(args.report).write_text(text)
    return EXIT_OK


def cmd_nnbench(args) -> int:
    check_radius(args.radius)
    at_least("seed", args.seed, 0)
    for n in args.n:
        for k in args.k:
            check_k(k, n)
    rng = np.random.default_rng(args.seed)
    # cubes 8 wide: at the default radius the grid has four cells a side, so
    # the timed search is the grid's and the reference ranks whole rows
    clouds = [PointCloud(rng.random((n, 3)) * 8.0) for n in args.n]
    # one untimed call, so no row carries the process's first-call cost
    nnsearch.ball_query(clouds[0], args.radius, args.k[0])
    print(f"{'n':>6} {'k':>4} {'time_s':>10}  verified")
    failures = 0
    for n, cloud in zip(args.n, clouds):
        for k in args.k:
            started = time.perf_counter()
            table = nnsearch.ball_query(cloud, args.radius, k)
            elapsed = time.perf_counter() - started
            # rows are nearest-first, so the in-radius entries of the k-NN rows form a prefix
            reference = nnsearch.ball_query(cloud, np.inf, k).indices
            diff = cloud.points[reference] - cloud.points[:, None, :]
            inside = (diff * diff).sum(axis=-1) <= np.asarray(args.radius, dtype=cloud.points.dtype) ** 2
            ok = np.array_equal(table.indices, np.where(inside, reference, SENTINEL))
            if not ok:
                failures += 1
            print(f"{n:>6} {k:>4} {elapsed:>10.6f}  {'match' if ok else 'MISMATCH'}")
    return EXIT_VALIDATION if failures else EXIT_OK


def cmd_train(args) -> int:
    config = _config_from_args(args)
    if config.m is None and config.ratio is None:
        config = replace(config, m=32)
    spec = training.DatasetSpec(
        train_per_class=args.train_per_class,
        test_per_class=args.test_per_class,
        points_per_cloud=args.points,
        seed=config.seed,
    )
    dataset = training.generate_dataset(spec)
    weights, head, history = training.train(
        config,
        dataset,
        epochs=args.epochs,
        lr=args.lr,
        batch_size=args.batch,
    )
    ad.save_arrays(args.out, {**weights.to_arrays(), **head.to_arrays()})
    history_path = args.history or (args.out + ".history.csv")
    Path(history_path).write_text(history.to_csv())
    last = history.epochs[-1]
    print(f"epochs={len(history.epochs)} train_acc={last.train_acc:.4f} test_acc={last.test_acc:.4f}")
    print(f"weights={args.out}")
    print(f"history={history_path}")
    return EXIT_OK


def _gradcheck_op_cases():
    """Small f64 cases exercising every registered backward rule."""
    rng = np.random.default_rng(0)

    def t(shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale + 0.05, requires_grad=True)

    cases = []
    a, b = t((3, 4)), t((4, 2))
    cases.append(("matmul", [a, b], lambda ps: ad.tsum(ad.matmul(ps[0], ps[1]))))
    x, y = t((3, 3)), t((3, 3))
    cases.append(("add", [x, y], lambda ps: ad.tsum(ad.add(ps[0], ps[1]))))
    cases.append(("sub", [x, y], lambda ps: ad.tsum(ad.sub(ps[0], ps[1]))))
    cases.append(("mul", [x, y], lambda ps: ad.tsum(ad.mul(ps[0], ps[1]))))
    z = Tensor(rng.normal(size=(3, 3)) + 3.0, requires_grad=True)
    cases.append(("div", [x, z], lambda ps: ad.tsum(ad.div(ps[0], ps[1]))))
    cases.append(("scale", [x], lambda ps: ad.tsum(ad.scale(ps[0], 2.5))))
    w = t((4, 3))
    bias = t((3,))
    cases.append(("add_rowvec", [w, bias], lambda ps: ad.tsum(ad.mul(ad.add_rowvec(ps[0], ps[1]), ad.add_rowvec(ps[0], ps[1])))))
    cases.append(("transpose", [a], lambda ps: ad.tsum(ad.mul(ad.transpose(ps[0]), ad.transpose(ps[0])))))
    cases.append(("reshape", [a], lambda ps: ad.tsum(ad.mul(ad.reshape(ps[0], (2, 6)), ad.reshape(ps[0], (2, 6))))))
    c1, c2 = t((3, 2)), t((3, 4))
    cases.append(("concat_cols", [c1, c2], lambda ps: ad.tsum(ad.mul(ad.concat_cols(ps), ad.concat_cols(ps)))))
    r = Tensor(rng.normal(size=(4, 4)) + 0.3, requires_grad=True)
    cases.append(("relu", [r], lambda ps: ad.tsum(ad.mul(ad.relu(ps[0]), ad.relu(ps[0])))))
    cases.append(("absolute", [r], lambda ps: ad.tsum(ad.absolute(ps[0]))))
    pos = Tensor(np.abs(rng.normal(size=(3, 3))) + 0.5, requires_grad=True)
    cases.append(("sqrt", [pos], lambda ps: ad.tsum(ad.sqrt(ps[0]))))
    cases.append(("sum", [x], lambda ps: ad.tsum(ad.mul(ps[0], ps[0]))))
    cases.append(("sum_axis", [x], lambda ps: ad.tsum(ad.mul(ad.tsum(ps[0], axis=1, keepdims=True), ad.tsum(ps[0], axis=1, keepdims=True)))))
    mx = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    cases.append(("max_over_axis", [mx], lambda ps: ad.tsum(ad.mul(ad.max_over_axis(ps[0], 1), ad.max_over_axis(ps[0], 1)))))
    sm = t((3, 5))
    cases.append(("softmax", [sm], lambda ps: ad.tsum(ad.mul(ad.softmax(ps[0], 1), ad.softmax(ps[0], 1)))))
    logits = t((4, 3))
    lbl = np.array([0, 2, 1, 1])
    cases.append(("cross_entropy", [logits], lambda ps: ad.cross_entropy(ps[0], lbl)))
    g = t((5, 3))
    gidx = np.array([0, 2, 2, 4])
    cases.append(("gather_rows", [g], lambda ps: ad.tsum(ad.mul(ad.gather_rows(ps[0], gidx), ad.gather_rows(ps[0], gidx)))))
    return cases


def _attention_rows(f: np.ndarray, lay) -> np.ndarray:
    """F_sa = softmax(Q K^T / sqrt(d_k)) V, each query row normalized."""
    scores = (f @ lay.wq.data) @ (f @ lay.wk.data).T / np.sqrt(lay.wk.data.shape[1])
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True) @ (f @ lay.wv.data)


def end_to_end_assn_check() -> float:
    """Finite-difference check of the full soft-forward total loss on tiny setups.

    Two cases: one attention layer over 16 points whose 2 nearest neighbors
    all lie within the radius, and two layers over a radius small enough that
    some rows have -1 slots. Returns the worse of the two. Parameters are
    redrawn at unit-ish scale: the default initialization is so small that
    most gradients drown in finite-difference roundoff on an objective of
    this size.
    """
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.random((16, 3)))
    cases = (dict(k=2, oa_layers=1, radius=2.0), dict(k=4, oa_layers=2, radius=0.3))
    return max(_assn_case(cloud, CasNetConfig(**case, c=8, m=4, mode="assn", seed=3, embed_hidden=8, score_hidden=8)) for case in cases)


def _assn_case(cloud: PointCloud, config: CasNetConfig) -> float:
    weights = casnet.init_weights(config, 4, dtype=np.float64)
    head = training.init_head(3, hidden=8, dtype=np.float64, seed=11)
    params = weights.parameters() + head.parameters()
    point = np.random.default_rng(1000)
    for p in params:
        p.data[...] = point.normal(scale=0.8, size=p.data.shape)

    def objective(_params):
        return training.cloud_loss(cloud, 1, config, weights, head)[0].total

    # Recenter the offset-MLP and score-MLP biases on the median of their
    # pre-activations so each relu unit is active for some rows and inactive
    # for others. With a uniform mask those biases shift every logit column by
    # a constant, which the column softmax cancels: the true gradient is
    # exactly zero and finite differences see only roundoff there. Layer by
    # layer, since each bias moves the input of the next layer.
    neighbors = nnsearch.ball_query(cloud, config.radius, config.k)
    f = casnet.embed(casnet.combine(cloud, casnet.group_features(cloud, neighbors)), weights)
    outputs = []
    for lay in weights.layers:
        lay.bg.data[...] = -np.median((f.data - _attention_rows(f.data, lay)) @ lay.wg.data, axis=0)
        f = casnet.offset_attention(f, lay)
        outputs.append(f.data)
    pre_score = np.concatenate(outputs, axis=1) @ weights.rho_hidden[0].data
    weights.rho_hidden[1].data[...] = -np.median(pre_score, axis=0)

    return ad.finite_diff_check(objective, params)


def cmd_gradcheck(args) -> int:
    rows = [(name, ad.finite_diff_check(fn, params), 1e-4) for name, params, fn in _gradcheck_op_cases()]
    rows.append(("end-to-end", end_to_end_assn_check(), 1e-3))
    print(f"{'op':<15} {'max_rel_err':>12} {'threshold':>10}  status")
    for name, err, bound in rows:
        print(f"{name:<15} {err:>12.3e} {bound:>10.0e}  {'ok' if err < bound else 'FAIL'}")
    return EXIT_OK if all(err < bound for _, err, bound in rows) else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcsimp", description="Point cloud simplification benchmark suite")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_casnet_flags(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--k", type=int, help="neighbor count")
        p.add_argument("--oa", dest="oa_layers", type=int, help="attention layer count")
        p.add_argument("--radius", type=float, help="ball query radius")
        p.add_argument("--mode", choices=MODES)

    p = sub.add_parser("sample", help="downsample one cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--ratio", type=int)
    p.add_argument("--count", dest="m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--weights")
    p.add_argument("--chunks", type=int, default=8)
    p.add_argument("--output", required=True)
    add_casnet_flags(p)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("bench", help="benchmark methods over a directory of clouds")
    p.add_argument("--input", required=True)
    p.add_argument("--methods", default="rs,fps,casnet")
    p.add_argument("--ratios", type=_positive_ints, default="2")
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--report")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--weights")
    p.add_argument("--head")
    p.add_argument("--labels", help="csv of filename,label enabling quality columns")
    p.add_argument("--chunks", type=int, default=8)
    add_casnet_flags(p)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("nnbench", help="time the ball query and verify it against brute force")
    p.add_argument("--n", type=_positive_ints, default="1024")
    p.add_argument("--k", type=_positive_ints, default="1,8,32")
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_nnbench)

    p = sub.add_parser("train", help="train the sampler plus toy head on synthetic data")
    p.add_argument("--epochs", type=_positive_int, default=100)
    p.add_argument("--lr", type=_positive_float, default=5e-4)
    p.add_argument("--batch", type=_positive_int, default=12)
    p.add_argument("--out", required=True)
    p.add_argument("--history")
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--count", dest="m", type=int, help="output points m")
    p.add_argument("--train-per-class", type=_positive_int, default=100)
    p.add_argument("--test-per-class", type=_positive_int, default=30)
    p.add_argument("--points", type=_positive_int, default=256)
    add_casnet_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except (IoFailureError, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except PcsimpError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
