"""Seeded LiDAR-like scans in the geometry of a 64-beam roof-mounted sensor.

The beams follow the KITTI HDL-64E setup (Geiger et al., CVPR 2012): 64
elevations evenly spread from -24.8 to +2.0 degrees, the sensor 1.73 m above
a flat ground plane. Rays hit the ground or axis-aligned box obstacles (cars,
poles, walls); returns beyond 80 m are dropped and every return gets small
Gaussian noise. A frame is a random subset of n returns, kept in scan order.
Frames are written as KITTI .bin records with plain numpy, so the program's
reader is checked against bytes it did not write.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BEAMS = 64
ELEVATION_DEG = (-24.8, 2.0)
SENSOR_HEIGHT_M = 1.73
MAX_RANGE_M = 80.0
AZIMUTH_STEPS = 2048
NOISE_M = 0.02

# (length, width, height) ranges in metres, and how many of each per frame
OBSTACLES = (
    ((3.8, 4.8), (1.6, 2.0), (1.4, 1.8), 16),  # cars
    ((0.4, 0.8), (0.4, 0.8), (1.5, 1.9), 10),  # pedestrians and poles
    ((8.0, 20.0), (0.6, 1.5), (2.5, 8.0), 6),  # walls and building fronts
)


def _obstacles(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned boxes standing on the ground, 5-60 m from the sensor."""
    lo, hi = [], []
    for (l_rng, w_rng, h_rng, count) in OBSTACLES:
        for _ in range(count):
            dist = rng.uniform(5.0, 60.0)
            ang = rng.uniform(0.0, 2 * np.pi)
            size = np.array([rng.uniform(*l_rng), rng.uniform(*w_rng), rng.uniform(*h_rng)])
            if rng.random() < 0.5:
                size[[0, 1]] = size[[1, 0]]
            centre = np.array([dist * np.cos(ang), dist * np.sin(ang), -SENSOR_HEIGHT_M + size[2] / 2])
            lo.append(centre - size / 2)
            hi.append(centre + size / 2)
    lo, hi = np.array(lo), np.array(hi)
    # the sensor must sit outside every box, or its rays would start inside one
    outside = ((lo > 0) | (hi < 0)).any(axis=1)
    return lo[outside], hi[outside]


def scan(rng: np.random.Generator, n: int) -> np.ndarray:
    """One frame: n float32 returns in the sensor frame (ground at z = -1.73)."""
    el = np.deg2rad(np.linspace(*ELEVATION_DEG, BEAMS))
    az = np.arange(AZIMUTH_STEPS) * (2 * np.pi / AZIMUTH_STEPS) + rng.uniform(0.0, 2 * np.pi / AZIMUTH_STEPS)
    el_g, az_g = np.meshgrid(el, az, indexing="ij")
    dirs = np.stack([np.cos(el_g) * np.cos(az_g), np.cos(el_g) * np.sin(az_g), np.sin(el_g)], axis=-1).reshape(-1, 3)

    t = np.full(len(dirs), np.inf)
    down = dirs[:, 2] < 0
    t[down] = SENSOR_HEIGHT_M / -dirs[down, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        for lo, hi in zip(*_obstacles(rng)):
            t1, t2 = lo * inv, hi * inv
            t_near = np.minimum(t1, t2).max(axis=1)
            t_far = np.maximum(t1, t2).min(axis=1)
            hit = (t_near > 0) & (t_near <= t_far)
            t = np.where(hit & (t_near < t), t_near, t)
    keep = t <= MAX_RANGE_M
    returns = dirs[keep] * t[keep, None] + rng.normal(0.0, NOISE_M, (int(keep.sum()), 3))
    if len(returns) < n:
        raise ValueError(f"scan has {len(returns)} returns, fewer than n={n}")
    chosen = np.sort(rng.choice(len(returns), size=n, replace=False))
    return returns[chosen].astype(np.float32)


def write_kitti_bin(path: Path, points: np.ndarray, rng: np.random.Generator) -> None:
    """Little-endian float32 x, y, z, intensity records, as KITTI stores them."""
    records = np.empty((len(points), 4), dtype="<f4")
    records[:, :3] = points
    records[:, 3] = rng.uniform(0.0, 1.0, len(points))
    records.tofile(path)
