"""Command-line entry point: sample, bench, nnbench, train, gradcheck.

Exit codes: 0 success, 1 validation error (including unknown flags),
2 IO error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import casnet, classic_samplers, nnsearch, training
from .autodiff import Tensor
from .core import (
    BACKENDS,
    CasNetConfig,
    IoFailureError,
    MalformedLengthError,
    ParseFailureError,
    PcsimpError,
    PointCloud,
    RunRecord,
    SENTINEL,
    ShapeMismatchError,
    ratio_to_count,
    read_text,
)
from .io import format_report, read_cloud, write_cloud, write_report
from .losses import cosine_loss, subset_loss, total_loss

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

METHODS = ("rs", "fps", "fps-chunked", "casnet")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
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


def _positive_ints(text: str) -> list[int]:
    """argparse type: a comma list of integers >= 1."""
    return [_positive_int(v) for v in text.split(",")]


def _config_from_args(args) -> CasNetConfig:
    cfg = CasNetConfig.from_file(args.config) if getattr(args, "config", None) else CasNetConfig()
    for flag, attr in (
        ("k", "k"),
        ("oa", "oa_layers"),
        ("radius", "radius"),
        ("backend", "backend"),
        ("mode", "mode"),
        ("seed", "seed"),
        ("alpha", "alpha"),
        ("beta", "beta"),
        ("count", "m"),
        ("ratio", "ratio"),
        ("cosine_axis", "cosine_axis"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    return cfg


def _load_sampler_weights(path: str, requires_grad: bool = False) -> casnet.CasNetWeights:
    arrays = ad.load_arrays(path)
    prefix = "sampler." if any(k.startswith("sampler.") for k in arrays) else ""
    try:
        weights = casnet.CasNetWeights.from_arrays(arrays, prefix=prefix, requires_grad=requires_grad)
    except KeyError as e:
        raise PcsimpError(f"{path}: incomplete sampler weights ({e})") from e
    except ShapeMismatchError as e:
        raise ShapeMismatchError(f"{path}: {e}") from None
    return weights


def _resolve_m(args, n: int) -> int:
    if getattr(args, "count", None) is not None:
        return args.count
    if getattr(args, "ratio", None) is not None:
        return ratio_to_count(n, args.ratio)
    raise PcsimpError("one of --count or --ratio is required")


def _casnet_setup(config: CasNetConfig, weights, m: int, what: str):
    """Config and weights for m output points, built before any timing starts."""
    cfg = CasNetConfig(**{**config.__dict__, "m": m, "ratio": None})
    w = weights if weights is not None else casnet.init_weights(cfg, m, dtype=np.float32, seed=cfg.seed)
    if w.m != m:
        raise PcsimpError(f"{what}: weights emit m={w.m} points but m={m} is needed")
    if len(w.layers) != cfg.oa_layers:
        raise PcsimpError(f"{what}: weights hold {len(w.layers)} attention layers but --oa is {cfg.oa_layers}")
    return cfg, w


def _sampler_fn(method: str, args, casnet_setups: dict):
    """Returns f(cloud, m, seed) -> (PointCloud, indices or None).

    casnet_setups maps each m the learned sampler will be asked for to its
    (config, weights) pair from `_casnet_setup`.
    """
    if method == "rs":
        return lambda cloud, m, seed: (lambda r: (r.cloud, r.indices))(classic_samplers.random_sample(cloud, m, seed))
    if method == "fps":
        return lambda cloud, m, seed: (lambda r: (r.cloud, r.indices))(classic_samplers.fps(cloud, m, 0))
    if method == "fps-chunked":
        chunks = args.chunks
        return lambda cloud, m, seed: (lambda r: (r.cloud, r.indices))(classic_samplers.fps_chunked(cloud, m, chunks))
    if method == "casnet":
        return lambda cloud, m, seed: casnet.sample(cloud, *casnet_setups[m])
    raise PcsimpError(f"unknown method {method!r}")


def cmd_sample(args) -> int:
    cloud = read_cloud(args.input, args.format)
    m = _resolve_m(args, cloud.n)
    config = _config_from_args(args)
    setups = {}
    if args.method == "casnet":
        if not args.weights:
            raise PcsimpError("casnet requires --weights")
        setups[m] = _casnet_setup(config, _load_sampler_weights(args.weights), m, args.input)
    fn = _sampler_fn(args.method, args, setups)

    started = time.perf_counter()
    sampled, indices = fn(cloud, m, args.seed)
    elapsed = time.perf_counter() - started
    print(f"t_sample_s={elapsed:.6f}")

    write_cloud(args.output, sampled, None)
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
    clouds = _collect_clouds(args.input)
    methods = args.methods.split(",")
    for mth in methods:
        if mth not in METHODS:
            raise PcsimpError(f"unknown method {mth!r}")
    ratios = args.ratios
    config = _config_from_args(args)
    weights = _load_sampler_weights(args.weights) if args.weights else None
    head = None
    labels = None
    if args.head:
        try:
            head = training.ToyTaskHead.from_arrays(ad.load_arrays(args.head))
        except KeyError as e:
            raise PcsimpError(f"{args.head}: incomplete head weights ({e})") from e
        if args.labels:
            labels = _read_labels(args.labels)
    setups = {}
    if "casnet" in methods:
        # a checkpoint emits one m: a pair that needs another fails here, before any timing
        for ratio in ratios:
            for name, cloud in clouds:
                m = ratio_to_count(cloud.n, ratio)
                if m not in setups:
                    setups[m] = _casnet_setup(config, weights, m, f"{name} at ratio {ratio}")

    records = []
    for method in methods:
        for ratio in ratios:
            fn = _sampler_fn(method, args, setups)
            batch_times = []
            outputs = None
            for rep in range(args.repeats):
                total = 0.0
                outputs = []
                for i, (name, cloud) in enumerate(clouds):
                    m = ratio_to_count(cloud.n, ratio)
                    started = time.perf_counter()
                    sampled, _ = fn(cloud, m, args.seed + i)
                    total += time.perf_counter() - started
                    outputs.append((name, cloud, sampled))
                batch_times.append(total)
            t_batch = float(np.median(batch_times))
            record = RunRecord(
                method=method,
                n_in=int(np.median([c.n for _, c in clouds])),
                n_out=int(np.median([s.n for _, _, s in outputs])),
                oa=config.oa_layers if method == "casnet" else None,
                k=config.k if method == "casnet" else None,
                t_batch_s=t_batch,
                t_sample_s=t_batch / len(clouds),
            )
            if head is not None and labels is not None:
                y_true, y_pred = [], []
                for name, _, sampled in outputs:
                    if name not in labels:
                        continue
                    y_true.append(labels[name])
                    y_pred.append(head.predict(sampled.points))
                if y_true:
                    acc, prec, rec, f1 = training.classification_metrics(
                        np.array(y_true), np.array(y_pred), head.n_classes
                    )
                    record.acc, record.prec, record.rec, record.f1 = acc, prec, rec, f1
            records.append(record)

    text = format_report(records, args.format)
    print(text, end="")
    if args.report:
        write_report(records, args.format, args.report)
    return EXIT_OK


def cmd_nnbench(args) -> int:
    backends = args.backends.split(",")
    for b in backends:
        if b not in BACKENDS:
            raise PcsimpError(f"unknown backend {b!r}")
    rng = np.random.default_rng(args.seed)
    print(f"{'n':>6} {'k':>4} {'backend':<15} {'time_s':>10}  verified")
    failures = 0
    for n in args.n:
        cloud = PointCloud(rng.random((n, 3)) * 2.0)
        for k in args.k:
            if k > n:
                continue
            reference = nnsearch.knn_bruteforce(cloud, k).indices
            for backend in backends:
                started = time.perf_counter()
                table = nnsearch.find_neighbors(cloud, backend, k, args.radius)
                elapsed = time.perf_counter() - started
                expected = reference
                if backend == "ball_query":
                    # rows are nearest-first, so the in-radius entries of the k-NN rows form a prefix
                    diff = cloud.points[reference] - cloud.points[:, None, :]
                    inside = (diff * diff).sum(axis=-1) <= np.asarray(args.radius, dtype=cloud.points.dtype) ** 2
                    expected = np.where(inside, reference, SENTINEL)
                ok = np.array_equal(table.indices, expected)
                verdict = "match" if ok else "MISMATCH"
                if not ok:
                    failures += 1
                print(f"{n:>6} {k:>4} {backend:<15} {elapsed:>10.6f}  {verdict}")
    return EXIT_VALIDATION if failures else EXIT_OK


def cmd_train(args) -> int:
    config = _config_from_args(args)
    if config.m is None and config.ratio is None:
        config.m = 32
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
    arrays = weights.to_arrays(prefix="sampler.")
    arrays.update(head.to_arrays(prefix="head."))
    ad.save_arrays(args.out, arrays)
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


def end_to_end_assn_check(eps: float = 1e-6) -> float:
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
    return max(_assn_case(cloud, CasNetConfig(**case, c=8, m=4, mode="assn", seed=3, embed_hidden=8, score_hidden=8), eps) for case in cases)


def _assn_case(cloud: PointCloud, config: CasNetConfig, eps: float) -> float:
    weights = casnet.init_weights(config, 4, dtype=np.float64)
    head = training.init_head(3, hidden=8, dtype=np.float64, seed=11)
    params = weights.parameters() + head.parameters()
    point = np.random.default_rng(1000)
    for p in params:
        p.data[...] = point.normal(scale=0.8, size=p.data.shape)
    label = np.array([1])

    def objective(_params):
        _, cache = casnet.forward(cloud, config, weights)
        logits = head.forward(cache.p_sp)
        task = ad.cross_entropy(logits, label)
        return total_loss(task, subset_loss(cloud, cache.p_sp), cosine_loss(cache.soft), 1.0, 1.0).total

    # Recenter the offset-MLP and score-MLP biases on the median of their
    # pre-activations so each relu unit is active for some rows and inactive
    # for others. With a uniform mask those biases shift every logit column by
    # a constant, which the column softmax cancels: the true gradient is
    # exactly zero and finite differences see only roundoff there. Layer by
    # layer, since each bias moves the input of the next layer.
    for i, lay in enumerate(weights.layers[: config.oa_layers]):
        _, cache = casnet.forward(cloud, config, weights)
        f = (cache.f_oa[i - 1] if i else cache.f_pointwise).data
        lay.bg.data[...] = -np.median((f - _attention_rows(f, lay)) @ lay.wg.data, axis=0)
    _, cache = casnet.forward(cloud, config, weights)
    pre_score = cache.f_concat.data @ weights.rho_hidden[0].data
    weights.rho_hidden[1].data[...] = -np.median(pre_score, axis=0)

    return ad.finite_diff_check(objective, params, eps=eps)


def cmd_gradcheck(args) -> int:
    failures = 0
    if args.ops or not args.end_to_end:
        print(f"{'op':<15} {'max_rel_err':>12} {'threshold':>10}  status")
        for name, params, fn in _gradcheck_op_cases():
            err = ad.finite_diff_check(fn, params, eps=args.eps)
            ok = err < args.threshold
            failures += 0 if ok else 1
            print(f"{name:<15} {err:>12.3e} {args.threshold:>10.0e}  {'ok' if ok else 'FAIL'}")
    if args.end_to_end:
        err = end_to_end_assn_check(eps=args.eps)
        ok = err < 1e-3
        failures += 0 if ok else 1
        print(f"{'end-to-end':<15} {err:>12.3e} {1e-3:>10.0e}  {'ok' if ok else 'FAIL'}")
    return EXIT_VALIDATION if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcsimp", description="Point cloud simplification benchmark suite")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_casnet_flags(p, include_mode=True):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--k", type=int, help="neighbor count")
        p.add_argument("--oa", type=int, help="attention layer count")
        p.add_argument("--radius", type=float, help="ball query radius")
        p.add_argument("--backend", choices=BACKENDS)
        if include_mode:
            p.add_argument("--mode", choices=("assn", "ahsn"))

    p = sub.add_parser("sample", help="downsample one cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("bin", "xyz"))
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--ratio", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--weights")
    p.add_argument("--head")
    p.add_argument("--labels", help="csv of filename,label enabling quality columns")
    p.add_argument("--chunks", type=int, default=8)
    add_casnet_flags(p)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("nnbench", help="time and verify the search backends")
    p.add_argument("--n", type=_positive_ints, default="1024")
    p.add_argument("--k", type=_positive_ints, default="1,8,32")
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--backends", default=",".join(BACKENDS))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_nnbench)

    p = sub.add_parser("train", help="train the sampler plus toy head on synthetic data")
    p.add_argument("--epochs", type=_positive_int, default=100)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--batch", type=_positive_int, default=12)
    p.add_argument("--out", required=True)
    p.add_argument("--history")
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--count", type=int, help="output points m")
    p.add_argument("--cosine-axis", dest="cosine_axis", choices=("rows", "columns"))
    p.add_argument("--train-per-class", type=_positive_int, default=100)
    p.add_argument("--test-per-class", type=_positive_int, default=30)
    p.add_argument("--points", type=int, default=256)
    add_casnet_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--ops", action="store_true")
    p.add_argument("--end-to-end", action="store_true")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--threshold", type=float, default=1e-4)
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
    except (IoFailureError, MalformedLengthError, ParseFailureError, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except PcsimpError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
