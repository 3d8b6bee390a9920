"""Self-test of the output checks: each must pass a correct output and fail a
corrupted one. Built on small seeded inputs and float64 outputs made here, so
it does not depend on pcsimp being right. Every benchmark run calls it first;
run it alone with `python3 bench/selftest.py`.
"""

from __future__ import annotations

import sys

import numpy as np

import checks


def _fps(points: np.ndarray, m: int) -> np.ndarray:
    p = points.astype(np.float64)
    picks = [0]
    d = ((p - p[0]) ** 2).sum(axis=1)
    for _ in range(1, m):
        picks.append(int(d.argmax()))
        d = np.minimum(d, ((p - p[picks[-1]]) ** 2).sum(axis=1))
    return np.array(picks)


def _ball_query(points: np.ndarray, radius: float, k: int) -> np.ndarray:
    p = points.astype(np.float64)
    out = np.full((len(p), k), checks.SENTINEL)
    for i in range(len(p)):
        d2 = ((p - p[i]) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(p)), d2))
        inside = order[d2[order] <= radius * radius][:k]
        out[i, : len(inside)] = inside
    return out


def _weights(rng: np.random.Generator, c: int, eh: int, sh: int, oa: int, m: int) -> dict[str, np.ndarray]:
    shapes = {"sigma.0.w": (6, eh), "sigma.0.b": (eh,), "sigma.1.w": (eh, c), "sigma.1.b": (c,)}
    for i in range(oa):
        shapes.update({f"oa.{i}.{w}": (c, c) for w in ("wq", "wk", "wv", "wg")})
        shapes[f"oa.{i}.bg"] = (c,)
    shapes.update({"rho.hidden.w": (oa * c, sh), "rho.hidden.b": (sh,), "rho.out.w": (sh, m)})
    return {name: rng.uniform(-0.5, 0.5, shape) for name, shape in shapes.items()}


def run() -> list[str]:
    """The names of the cases that went wrong; empty when every check behaves."""
    rng = np.random.default_rng(2012)
    pts = rng.uniform(-5.0, 5.0, (256, 3)).astype(np.float32)
    cases: list[tuple[str, bool, list[str]]] = []

    idx = rng.choice(len(pts), 32, replace=False)
    cases.append(("hard sample, correct", True, checks.hard_sample(pts, pts[idx], idx, 32, checks.row_set(pts))))
    moved = pts[idx].copy()
    moved[7, 1] = np.nextafter(moved[7, 1], np.float32(np.inf))
    cases.append(("hard sample, a point not in the input", False, checks.hard_sample(pts, moved, idx, 32, checks.row_set(pts))))

    picks = _fps(pts, 32)
    tol = checks.distance_tol(pts.dtype, float(np.linalg.norm(np.ptp(pts, axis=0))))
    cases.append(("fps, correct", True, checks.fps_indices(pts, picks, 32, 0, tol)))
    swapped = picks.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    cases.append(("fps, two picks swapped", False, checks.fps_indices(pts, swapped, 32, 0, tol)))

    table = _ball_query(pts, 2.0, 8)
    rows = np.arange(len(pts))
    cases.append(("neighbours, correct", True, checks.neighbor_rows(pts, table, rows, 2.0, 8)))
    full = int(np.flatnonzero((table != checks.SENTINEL).sum(axis=1) >= 3)[0])
    reordered = table.copy()
    reordered[full, [1, 2]] = reordered[full, [2, 1]]
    cases.append(("neighbours, a row out of order", False, checks.neighbor_rows(pts, reordered, rows, 2.0, 8)))

    small = pts[:96]
    logits = checks.reference_logits(small, _ball_query(small, 2.0, 8), _weights(rng, 16, 16, 32, 2, 16), 2)
    best = logits.argmax(axis=0)
    tol = checks.logit_tol(logits, np.float32)
    cases.append(("learned, correct", True, checks.learned_indices(logits, best, tol)))
    wrong = best.copy()
    wrong[3] = logits[:, 3].argmin()
    cases.append(("learned, an index not its column's argmax", False, checks.learned_indices(logits, wrong, tol)))

    return [name for name, should_pass, problems in cases if should_pass != (not problems)]


if __name__ == "__main__":
    failed = run()
    for name in failed:
        print(f"FAIL {name}")
    print("self-test", "failed" if failed else "passed")
    sys.exit(1 if failed else 0)
