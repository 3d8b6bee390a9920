"""The uniform-cube grid of ROADMAP item 1, for comparison with the LiDAR workloads.

float32 clouds uniform in a cube of side 40, ball-query radius 2, seeded
init weights; each cell is the median of 3 calls. "nbrs" is the neighbour
search inside the learned sampler's call (the k=1 path does none). Run from
the root of a checkout: python3 bench/grid.py
"""

from __future__ import annotations

import statistics
import time

import run  # sets the BLAS threads before numpy loads, and finds pcsimp
import numpy as np
from run import CasNetConfig, PointCloud, Tracer, casnet, classic_samplers

GRID = ((1024, 512, 32, 3), (8192, 1024, 32, 3), (8192, 4096, 1, 1), (16384, 2048, 1, 1))
REPEATS = 3


def seconds(fn, *args) -> float:
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"BLAS threads: {run.BLAS_THREADS}")
    print("| n→m | config | learned | nbrs | RS | FPS |")
    print("|---|---|---|---|---|---|")
    for n, m, k, oa in GRID:
        cloud = PointCloud((rng.random((n, 3)) * 40).astype(np.float32))
        config = CasNetConfig(k=k, oa_layers=oa, radius=2.0, m=m)
        weights = casnet.init_weights(config, m, dtype=np.float32, seed=0)
        learned, nbrs, rs, fps = [], [], [], []
        for rep in range(REPEATS):
            with Tracer() as tracer:
                tracer.wrap(casnet, "find_neighbors", "nbrs")
                learned.append(seconds(casnet.sample, cloud, config, weights))
            nbrs.append(tracer.self_times().get("nbrs", 0.0))
            rs.append(seconds(classic_samplers.random_sample, cloud, m, rep))
            fps.append(seconds(classic_samplers.fps, cloud, m, 0))
        med = statistics.median
        print(f"| {n}→{m} | k={k}, oa={oa} | {med(learned):.3f} s | {med(nbrs):.3f} s | {med(rs) * 1e3:.2f} ms | {med(fps):.3f} s |")


if __name__ == "__main__":
    main()
