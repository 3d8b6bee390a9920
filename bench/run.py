"""pcsimp benchmark: LiDAR-scale sampling and training throughput.

Run from the root of a checkout:

    python3 bench/run.py --workload lidar-full --seed 0 --seconds 35 --trace 0

Workloads (see bench/README.md for why each exists):
  lidar-full     n=8192 -> m=1024 scans, learned sampler k=32, oa=3, with FPS
                 and RS; one-epoch trainings of the same config alongside
  lidar-reduced  n=16384 -> m=2048 scans, learned sampler k=1, oa=1, with FPS
                 and RS; one-epoch trainings of the same config alongside

Both workloads report the same metrics. Every operation's output is checked
against computations made in bench/checks.py. With --trace 0 the end-to-end
metrics are timed; with --trace 1 the public functions of each module are
wrapped from outside and per-module self times are reported instead. The last
line of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads. FPS and RS are single-threaded
# numpy, so every sampler is timed on one core; and a second BLAS thread made
# the learned sampler's time follow whatever else ran on the other core
# (0.9-1.0 s per lidar-reduced cloud alone, 2.9 s beside one busy process).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import checks
import scans
import selftest
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pcsimp import autodiff, casnet, classic_samplers, io, losses, nnsearch, training  # noqa: E402
from pcsimp.core import CasNetConfig, PointCloud  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
# set-ups before the first round; two more go with every round, so that
# set-up is timed across the whole run like everything else
SETUP_FIRST = 5
FRAMES = 4
NEIGHBOR_ROWS_CHECKED = 256
RADIUS = 2.0
RATIO = 8
LR = 5e-4
BATCH = 12
TRAIN_M = 32
POINTS_PER_CLOUD = 256
TRAIN_PER_CLASS = (10, 5)  # training and test clouds per class of the one-epoch trainings
# The sampler's and head's initial weights and the batch order of a training
# stay fixed (seed 0); --seed draws the dataset.
TRAIN_INIT_SEED = 0

# Per workload: the scan size n, the sampler config (k, oa) of both the
# learned sampler and the trainings, and how many FPS and RS calls go with
# each learned call. FPS and RS are called several times where one call is
# short, so each run holds enough samples for a steady median.
WORKLOADS = {
    "lidar-full": dict(n=8192, k=32, oa=3, fps_calls=3, rs_calls=25),
    "lidar-reduced": dict(n=16384, k=1, oa=1, fps_calls=1, rs_calls=25),
}


class Tally:
    """Operations attempted and failed. An operation fails when it raises or
    when its output fails a check; the latter also makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, name: str, problems: list[str], raised: bool = False) -> bool:
        self.attempted += 1
        self.fail_again(name, problems, raised)
        return not problems

    def fail_again(self, name: str, problems: list[str], raised: bool = False) -> None:
        """Count a failure, also for a later check of an operation already attempted."""
        if problems:
            self.failed += 1
            self.wrong += not raised
            print(f"FAILED {name}: {'; '.join(problems[:3])}", file=sys.stderr)


def timed(fn, *args):
    """(result, seconds, error): an exception is recorded, not raised."""
    started = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as e:  # the benchmark counts the failed operation and goes on
        return None, time.perf_counter() - started, f"{type(e).__name__}: {e}"
    return result, time.perf_counter() - started, None


class NeighborStats:
    """The last neighbour table the sampler computed, and real slots over all tables."""

    def __init__(self):
        self.last: np.ndarray | None = None
        self.real_slots = 0


@contextmanager
def neighbor_capture(stats: NeighborStats):
    """Keep the tables casnet.sample/forward compute, so the checks see exactly
    what the sampler used. Costs one extra Python call per search."""
    original = casnet.find_neighbors

    def capturing(*args, **kwargs):
        table = original(*args, **kwargs)
        stats.last = table.indices
        stats.real_slots += int((table.indices != checks.SENTINEL).sum())
        return table

    casnet.find_neighbors = capturing
    try:
        yield
    finally:
        casnet.find_neighbors = original


def wrap_layers(tracer: Tracer) -> None:
    """Timing wrappers at every module boundary the per-layer metrics name."""
    tracer.wrap(io, "read_kitti_bin", "io.read_kitti_bin")
    for name in ("load_arrays", "backward", "ste_harden"):
        tracer.wrap(autodiff, name, f"autodiff.{name}")
    tracer.wrap(nnsearch, "find_neighbors", "nnsearch.find_neighbors")
    tracer.wrap(casnet, "find_neighbors", "nnsearch.find_neighbors")
    for name in ("group_features", "combine", "embed", "asm", "offset_attention", "soft_matrix", "forward", "sample", "backward_ste"):
        tracer.wrap(casnet, name, f"casnet.{name}")
    for name in ("fps", "random_sample"):
        tracer.wrap(classic_samplers, name, f"classic_samplers.{name}")
    for name in ("train", "adam_step"):
        tracer.wrap(training, name, f"training.{name}")
    for name in ("subset_loss", "cosine_loss"):
        tracer.wrap(losses, name, f"losses.{name}")
        tracer.wrap(training, name, f"losses.{name}")
    tracer.wrap(training.ToyTaskHead, "forward", "training.head_forward")


def computed_gflop(n: int, m: int, c: int, oa: int, score_hidden: int) -> tuple[float, float]:
    """Attention and score-head FLOPs per cloud, counting 2 per multiply-add."""
    attention = oa * (4 * n * n * c + 8 * n * c * c)
    head = 2 * n * (oa * c) * score_hidden + 2 * n * score_hidden * m
    return attention / 1e9, head / 1e9


def layer_metrics(tracer: Tracer, *, rounds: int, real_slots: int, gflop: tuple[float, float], fps_evals: float, overhead: float) -> dict:
    """Self times and counts per round of the workload (one frame through the
    learned sampler, FPS and RS, and two one-epoch trainings), except where
    the unit says per call of the function named or per frame."""
    st = tracer.self_times()

    def per_round(*names: str) -> float:
        return sum(st.get(nm, 0.0) for nm in names) / rounds

    def s_call(name: str) -> float:
        calls = tracer.count(name)
        return st.get(name, 0.0) / calls if calls else 0.0

    metrics = {
        "io.read_kitti_bin_s": (s_call("io.read_kitti_bin"), "s/call"),
        "autodiff.load_arrays_s": (s_call("autodiff.load_arrays"), "s/call"),
        "nnsearch.find_neighbors_s": (per_round("nnsearch.find_neighbors"), "s/round"),
        "nnsearch.real_slots": (real_slots / rounds, "count/round"),
        "casnet.group_s": (per_round("casnet.group_features", "casnet.combine"), "s/round"),
        "casnet.sample_self_s": (per_round("casnet.sample"), "s/round"),
        "casnet.attention_gflop": (gflop[0], "GFLOP/frame"),
        "casnet.head_gflop": (gflop[1], "GFLOP/frame"),
        "classic_samplers.fps_s": (s_call("classic_samplers.fps"), "s/call"),
        "classic_samplers.random_sample_s": (s_call("classic_samplers.random_sample"), "s/call"),
        "classic_samplers.fps_dist_evals": (fps_evals, "count/frame"),
        "training.eval_s": (tracer.inclusive_under("casnet.sample", "training.train") / rounds, "s/round"),
        "training.clouds": (tracer.count("casnet.forward") / rounds, "count/round"),
        "training.adam_steps": (tracer.count("training.adam_step") / rounds, "count/round"),
        "autodiff.backward_calls": (tracer.count("autodiff.backward") / rounds, "count/round"),
        "trace.overhead_s": (overhead, "s/cloud"),
    }
    for span, metric in (
        ("casnet.forward", "casnet.forward_s"),
        ("casnet.embed", "casnet.embed_s"),
        ("casnet.asm", "casnet.asm_s"),
        ("casnet.offset_attention", "casnet.offset_attention_s"),
        ("casnet.soft_matrix", "casnet.soft_matrix_s"),
        ("autodiff.ste_harden", "autodiff.ste_harden_s"),
        ("training.head_forward", "training.head_forward_s"),
        ("losses.subset_loss", "losses.subset_loss_s"),
        ("losses.cosine_loss", "losses.cosine_loss_s"),
        ("autodiff.backward", "autodiff.backward_s"),
        ("training.adam_step", "training.adam_step_s"),
    ):
        metrics[metric] = (per_round(span), "s/round")
    return metrics


def check_learned_reference(tally: Tally, cloud: np.ndarray, table, arrays: dict, oa: int, idx: np.ndarray, dtype) -> None:
    """Selected rows against a float64 reference network (bench/checks.py)."""
    logits = checks.reference_logits(cloud, table, arrays, oa)
    tally.fail_again("learned (reference network)", checks.learned_indices(logits, idx, checks.logit_tol(logits, dtype)))


def sample_and_check(tally: Tally, times: dict, cloud: PointCloud, config: CasNetConfig, weights, spec: dict, rs_seed: int, stats: NeighborStats, rng, tracer: Tracer | None) -> dict:
    """One round on one cloud: the learned sampler once, then FPS and RS as
    often as the workload says, each call timed, then checked. Returns the
    last output of each method that passed. With a tracer, an untraced
    learned call on the same cloud is timed too, for the tracing overhead."""
    pts, n, m = cloud.points, cloud.n, config.m
    rows = checks.row_set(pts)
    passed = {}

    def untraced_call():
        tracer.restore()
        times["untraced"].append(timed(casnet.sample, cloud, config, weights)[1])
        wrap_layers(tracer)

    # the untraced call goes first in every other round, so neither side
    # always pays for a cold start
    untraced_first = tracer is not None and len(times["untraced"]) % 2 == 0
    if untraced_first:
        untraced_call()
    stats.last = None
    with neighbor_capture(stats):
        out, took, error = timed(casnet.sample, cloud, config, weights)
    times["learned"].append(took)
    if tracer is not None and not untraced_first:
        untraced_call()
    if error:
        problems = [error]
    else:
        problems = checks.hard_sample(pts, out[0].points, out[1], m, rows)
        if stats.last is not None:
            checked = rng.choice(n, min(n, NEIGHBOR_ROWS_CHECKED), replace=False)
            problems += checks.neighbor_rows(pts, stats.last, checked, config.radius, config.k)
    if tally.record("learned", problems, bool(error)):
        passed["learned"] = (out[0].points, out[1], stats.last)

    tol = checks.distance_tol(pts.dtype, float(np.linalg.norm(np.ptp(pts, axis=0))))
    for _ in range(spec["fps_calls"]):
        out, took, error = timed(classic_samplers.fps, cloud, m, 0)
        times["fps"].append(took)
        if error:
            problems = [error]
        else:
            problems = checks.fps_indices(pts, out.indices, m, 0, tol) + checks.hard_sample(pts, out.cloud.points, out.indices, m, rows)
        if tally.record("fps", problems, bool(error)):
            passed["fps"] = (out.cloud.points, out.indices, None)

    for i in range(spec["rs_calls"]):
        out, took, error = timed(classic_samplers.random_sample, cloud, m, rs_seed + i)
        times["rs"].append(took)
        if error:
            problems = [error]
        else:
            problems = checks.random_indices(out.indices, n, m) + checks.hard_sample(pts, out.cloud.points, out.indices, m, rows)
        if tally.record("rs", problems, bool(error)):
            passed["rs"] = (out.cloud.points, out.indices, None)
    return passed


def train_and_check(tally: Tally, times: dict, config: CasNetConfig, dataset, stats: NeighborStats) -> None:
    """One one-epoch training.train call, timed; checked for finite weights and
    for a hard sample of a test cloud from the trained sampler."""
    with neighbor_capture(stats):
        out, took, error = timed(training.train, config, dataset, 1, LR, BATCH)
    if error:
        tally.record("train", [error], raised=True)
        return
    weights = out[0]
    times["train"].append(len(dataset.train) / took)
    problems = [f"non-finite weight {nm}" for nm, a in weights.to_arrays().items() if not np.isfinite(a).all()]
    cloud = dataset.test[0].cloud
    res, _, err = timed(casnet.sample, cloud, config, weights)
    problems += [err] if err else checks.hard_sample(cloud.points, res[0].points, res[1], config.m, checks.row_set(cloud.points))
    tally.record("train", problems, bool(err))


def read_back(paths: list[Path], ckpt: Path) -> tuple[list[PointCloud], casnet.CasNetWeights, dict]:
    """Frames through io.read_kitti_bin and sampler weights through autodiff.load_arrays."""
    clouds = [io.read_kitti_bin(p) for p in paths]
    arrays = autodiff.load_arrays(ckpt)
    return clouds, casnet.CasNetWeights.from_arrays(arrays), arrays


def same_dataset(a, b) -> list[str]:
    same = len(a.train) == len(b.train) and len(a.test) == len(b.test) and all(
        np.array_equal(x.cloud.points, y.cloud.points) and x.label == y.label for x, y in zip(a.train + a.test, b.train + b.test))
    return [] if same else ["the same spec gave another dataset"]


class SetUp:
    """Read the frames and the checkpoint back and make the training set; each
    time timed and checked against what was written and the first set-up."""

    def __init__(self, tally: Tally, frame_paths: list[Path], frames: list[np.ndarray], ckpt: Path, saved: dict, data_spec):
        self.tally, self.frame_paths, self.frames, self.ckpt, self.saved, self.data_spec = tally, frame_paths, frames, ckpt, saved, data_spec
        self.times: list[float] = []
        self.first = None

    def __call__(self):
        out, took, error = timed(lambda: (read_back(self.frame_paths, self.ckpt), training.generate_dataset(self.data_spec)))
        self.times.append(took)
        if error:
            problems = [error]
        else:
            (clouds, _, arrays), dataset = out
            problems = [f"frame {i} read back differs" for i, c in enumerate(clouds) if not np.array_equal(checks.bits(c.points), checks.bits(self.frames[i]))]
            problems += [f"checkpoint array {nm} read back differs" for nm in self.saved if not np.array_equal(arrays.get(nm), self.saved[nm])]
            problems += same_dataset(self.first[1], dataset) if self.first else []
        if not self.tally.record("setup", problems, bool(error)):
            raise SystemExit("set-up failed; nothing to measure")
        self.first = self.first or out
        return self.first


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, tally: Tally, tracer: Tracer) -> dict:
    """Rounds of: set-up and a one-epoch training of the same sampler config on
    a small synthetic set, one frame through the learned sampler, FPS and RS,
    then set-up and training again, so that every measurement is taken at
    several points of the run. Returns the metrics."""
    spec = WORKLOADS[name]
    n = spec["n"]
    m = n // RATIO
    config = CasNetConfig(k=spec["k"], oa_layers=spec["oa"], radius=RADIUS, backend="ball_query", m=m, mode="ahsn", seed=seed)
    train_config = CasNetConfig(k=spec["k"], oa_layers=spec["oa"], radius=RADIUS, backend="ball_query", m=TRAIN_M, mode="ahsn", seed=TRAIN_INIT_SEED, cosine_axis="columns")
    data_spec = training.DatasetSpec(*TRAIN_PER_CLASS, points_per_cloud=POINTS_PER_CLOUD, seed=seed)
    rng = np.random.default_rng(seed)

    # inputs: frames written as KITTI .bin with plain numpy, seeded weights as a checkpoint
    frames, frame_paths = [], []
    for f in range(FRAMES):
        frames.append(scans.scan(rng, n))
        frame_paths.append(work / f"frame{f}.bin")
        scans.write_kitti_bin(frame_paths[-1], frames[-1], rng)
    saved = casnet.init_weights(config, m, dtype=np.float32, seed=seed).to_arrays()
    ckpt = work / "sampler.pcw"
    autodiff.save_arrays(ckpt, saved)

    if trace:
        wrap_layers(tracer)
    setup = SetUp(tally, frame_paths, frames, ckpt, saved, data_spec)
    for _ in range(SETUP_FIRST):
        (clouds, weights, _), dataset = setup()
    times = {key: [] for key in ("learned", "fps", "rs", "untraced", "train")}
    stats = NeighborStats()
    first = None
    started = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < seconds:
        setup()
        train_and_check(tally, times, train_config, dataset, stats)
        cloud = clouds[rounds % FRAMES]
        passed = sample_and_check(tally, times, cloud, config, weights, spec, seed * 1000 + 100 * rounds, stats, rng, tracer if trace else None)
        if first is None and "learned" in passed:
            first = (cloud.points, passed["learned"])
        setup()
        train_and_check(tally, times, train_config, dataset, stats)
        rounds += 1
    tracer.restore()

    if first is not None:
        pts, (_, idx, table) = first
        check_learned_reference(tally, pts, table, saved, spec["oa"], idx, np.float32)
    if not (times["learned"] and times["fps"] and times["train"]):
        raise SystemExit("every call of a measured method failed; nothing to measure")
    med = statistics.median
    print(f"{name} seed={seed}: {rounds} rounds; set-up {med(setup.times) * 1e3:.2f} ms; per cloud: learned {med(times['learned']):.4f} s, "
          f"fps {med(times['fps']):.4f} s, rs {med(times['rs']):.6f} s; one-epoch training {med(times['train']):.2f} clouds/s", file=sys.stderr)
    if not trace:
        return {
            "setup_s": (med(setup.times), "s"),
            "learned_s": (med(times["learned"]), "s/cloud"),
            "fps_s": (med(times["fps"]), "s/cloud"),
            "train_clouds_per_s": (med(times["train"]), "clouds/s"),
        }
    tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.jsonl")
    return layer_metrics(
        tracer,
        rounds=rounds,
        real_slots=stats.real_slots,
        gflop=computed_gflop(n, m, config.c, config.oa_layers, config.score_hidden),
        fps_evals=float(n * (m - 1)),
        overhead=med(t - u for t, u in zip(times["learned"], times["untraced"])),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(casnet.__file__).resolve().parents:
        raise SystemExit(f"pcsimp was imported from {casnet.__file__}, not from {src}")
    broken = selftest.run()
    if broken:
        raise SystemExit(f"the benchmark's checks failed their self-test: {broken}")

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tally, tracer = Tally(), Tracer()
    try:
        metrics = run(args.workload, args.seed, args.seconds, bool(args.trace), work, tally, tracer)
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
