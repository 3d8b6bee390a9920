"""Time to 90% test accuracy, and the trained head's accuracy on learned, FPS
and RS samples of the test split (the paper's quality claim), for the
reference figures in bench/README.md. Not a timed workload: one training
takes 35-50 s, about as long as a whole benchmark run.

training.train runs on the synthetic sphere/cube/plane set (100/30 clouds per
class, 256 points, m=32, reduced config k=1 oa=1, AHSN, cosine over columns,
lr 5e-4, batch 12) until test accuracy >= 0.90, at most 40 epochs. Every
sample is checked as in the benchmark. Run from the root of a checkout:

    python3 bench/quality.py 0 11 12    # dataset seeds
"""

from __future__ import annotations

import sys
import time

import run  # sets the BLAS threads before numpy loads, and finds pcsimp
import checks
from run import CasNetConfig, casnet, classic_samplers, training

TARGET_ACC = 0.90
EPOCH_CAP = 40


def main(seeds: list[int]) -> int:
    config = CasNetConfig(k=1, oa_layers=1, radius=run.RADIUS, backend="ball_query", m=run.TRAIN_M, mode="ahsn", seed=run.TRAIN_INIT_SEED, cosine_axis="columns")
    m = config.m
    wrong = 0
    print("| dataset seed | epochs to 0.90 | s to 0.90 | head accuracy on learned / FPS / RS samples |")
    print("|---|---|---|---|")
    for seed in seeds:
        dataset = training.generate_dataset(training.DatasetSpec(100, 30, run.POINTS_PER_CLOUD, seed=seed))
        started = time.perf_counter()
        weights, head, history = training.train(config, dataset, EPOCH_CAP, run.LR, run.BATCH, TARGET_ACC)
        took = time.perf_counter() - started
        if history.epochs[-1].test_acc < TARGET_ACC:
            print(f"seed {seed}: test accuracy {history.epochs[-1].test_acc:.3f} < {TARGET_ACC} after {EPOCH_CAP} epochs", file=sys.stderr)
            wrong += 1
        hits = {"learned": 0, "fps": 0, "rs": 0}
        for j, item in enumerate(dataset.test):
            pts = item.cloud.points
            rows = checks.row_set(pts)
            learned = casnet.sample(item.cloud, config, weights)
            fps = classic_samplers.fps(item.cloud, m, 0)
            rs = classic_samplers.random_sample(item.cloud, m, 1000 * seed + j)
            for method, (points, idx) in (("learned", (learned[0].points, learned[1])), ("fps", (fps.cloud.points, fps.indices)), ("rs", (rs.cloud.points, rs.indices))):
                problems = checks.hard_sample(pts, points, idx, m, rows)
                if problems:
                    print(f"seed {seed}, test cloud {j}, {method}: {problems[0]}", file=sys.stderr)
                    wrong += 1
                hits[method] += head.predict(points) == item.label
        acc = " / ".join(f"{hits[k] / len(dataset.test):.3f}" for k in ("learned", "fps", "rs"))
        print(f"| {seed} | {len(history.epochs)} | {took:.1f} | {acc} |", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0]))
