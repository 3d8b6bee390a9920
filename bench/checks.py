"""Output checks, each made apart from the program.

Every check compares an output with a float64 computation written here, or
with a property the method must have; none compares with a stored copy of
earlier output. A check returns a list of problems; an empty list passes.
Tolerances on squared distances and logits are set from the dtype of the
program's arithmetic, not fitted to today's output.
"""

from __future__ import annotations

import numpy as np

SENTINEL = -1
BLOCK = 256  # rows per block of the float64 references, to bound their memory


def bits(a: np.ndarray) -> np.ndarray:
    """Rows as unsigned integers of the same width, so -0.0 and 0.0 differ."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint32 if a.dtype.itemsize == 4 else np.uint64)


def distance_tol(dtype, max_distance: float) -> float:
    """Bound on the error of a squared distance, up to max_distance, that the
    program computes from points of this dtype: the coordinate differences,
    their squares and their sum are each rounded once, so the relative error
    stays below 3 eps; 8 eps leaves a margin."""
    return 8 * float(np.finfo(dtype).eps) * max_distance * max_distance


def row_set(cloud: np.ndarray) -> set[bytes]:
    """The input's rows as bytes, built once per cloud for hard_sample."""
    return {r.tobytes() for r in bits(cloud)}


def hard_sample(cloud: np.ndarray, sampled: np.ndarray, idx: np.ndarray, m: int, rows: set[bytes]) -> list[str]:
    """A hard sample is m rows of the input, bit for bit, and equals cloud[idx]."""
    problems = []
    if sampled.shape != (m, 3) or idx.shape != (m,):
        return [f"expected {m} rows, got sampled {sampled.shape} and idx {idx.shape}"]
    if idx.min() < 0 or idx.max() >= len(cloud):
        return ["index outside the input"]
    missing = sum(r.tobytes() not in rows for r in bits(sampled))
    if missing:
        problems.append(f"{missing} sampled rows are not rows of the input")
    if not np.array_equal(bits(sampled), bits(cloud[idx])):
        problems.append("sampled != cloud[idx]")
    return problems


def random_indices(idx: np.ndarray, n: int, m: int) -> list[str]:
    """m distinct indices into an n-point input."""
    if idx.shape != (m,):
        return [f"expected {m} indices, got {idx.shape}"]
    if idx.min() < 0 or idx.max() >= n:
        return ["index outside the input"]
    if len(np.unique(idx)) != m:
        return ["repeated index"]
    return []


def _min_sq_dist(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each point, the float64 squared distance to its nearest target."""
    out = np.empty(len(points))
    for lo in range(0, len(points), BLOCK):
        d = points[lo : lo + BLOCK, None, :] - targets[None, :, :]
        out[lo : lo + BLOCK] = (d * d).sum(axis=-1).min(axis=1)
    return out


def fps_indices(cloud: np.ndarray, idx: np.ndarray, m: int, start: int, tol: float, greedy_picks: int = 16) -> list[str]:
    """Distinct picks from `start`; each pick's distance to the earlier picks
    never increases; each of the first `greedy_picks` picks is a farthest
    point from the picks before it; and no input point lies farther from the
    first m-1 picks than the last pick did."""
    problems = random_indices(idx, len(cloud), m)
    if problems:
        return problems
    if idx[0] != start:
        problems.append(f"first pick {idx[0]} is not the start point {start}")
    c = cloud.astype(np.float64)
    p = c[idx]
    seq = np.empty(m - 1)  # seq[i - 1]: squared distance of pick i to picks 0..i-1
    for lo in range(1, m, BLOCK):
        hi = min(lo + BLOCK, m)
        d = p[lo:hi, None, :] - p[None, :hi, :]
        d2 = (d * d).sum(axis=-1)
        d2[np.arange(lo, hi)[:, None] <= np.arange(hi)[None, :]] = np.inf
        seq[lo - 1 : hi - 1] = d2.min(axis=1)
    rises = np.flatnonzero(seq[1:] > seq[:-1] + tol)
    if rises.size:
        problems.append(f"pick distance rises at pick {rises[0] + 2}: {seq[rises[0]]:.6g} -> {seq[rises[0] + 1]:.6g}")
    nearest = ((c - p[0]) ** 2).sum(axis=1)
    for i in range(1, min(greedy_picks, m)):
        if nearest.max() > nearest[idx[i]] + tol:
            problems.append(f"pick {i} is not a farthest point from the picks before it")
            break
        nearest = np.minimum(nearest, ((c - p[i]) ** 2).sum(axis=1))
    if m >= 2:
        cover = _min_sq_dist(c, p[:-1]).max()
        if cover > seq[-1] + tol:
            problems.append(f"a point lies {cover:.6g} from the first m-1 picks, farther than the last pick ({seq[-1]:.6g})")
    return problems


def neighbor_rows(cloud: np.ndarray, table: np.ndarray, rows: np.ndarray, radius: float, k: int) -> list[str]:
    """Ball-query rows against a float64 brute force.

    Each listed neighbour is within the radius; rows are nearest first, exact
    ties to the lower index; a row lists min(k, points within the radius)
    entries, those nearest to the query, then -1 padding to the end.
    """
    tol = distance_tol(cloud.dtype, radius)
    r2 = radius * radius
    p = cloud.astype(np.float64)
    problems = []
    for i in rows:
        row = table[i]
        real = row != SENTINEL
        count = int(real.sum())
        if not real[:count].all():
            problems.append(f"row {i}: -1 padding is not a suffix")
            continue
        listed = row[:count]
        if count and (listed.min() < 0 or listed.max() >= len(p) or len(np.unique(listed)) != count):
            problems.append(f"row {i}: index out of range or repeated")
            continue
        diff = p - p[i]
        d2 = (diff * diff).sum(axis=1)
        got = d2[listed]
        if (got > r2 + tol).any():
            problems.append(f"row {i}: neighbour beyond the radius")
        if (got[1:] < got[:-1] - tol).any():
            problems.append(f"row {i}: not nearest first")
        tie = got[1:] == got[:-1]
        if (tie & (listed[1:] < listed[:-1])).any():
            problems.append(f"row {i}: exact tie not broken to the lower index")
        surely_in = int((d2 <= r2 - tol).sum())
        maybe_in = int((d2 <= r2 + tol).sum())
        if not min(k, surely_in) <= count <= min(k, maybe_in):
            problems.append(f"row {i}: {count} entries, expected min(k, {surely_in}..{maybe_in})")
        nearest = np.sort(d2)[:count]
        if (np.abs(np.sort(got) - nearest) > tol).any():
            problems.append(f"row {i}: listed points are not the nearest ones")
    return problems


def reference_logits(cloud: np.ndarray, table: np.ndarray | None, arrays: dict[str, np.ndarray], oa_layers: int) -> np.ndarray:
    """The sampler's n x m score logits in float64, from the architecture alone.

    Grouping: each point concatenated with its offsets to its neighbours,
    padding slots giving zero offsets (with no table, the only neighbour is
    the point itself). Embedding: a two-layer MLP per slot, ReLU after the
    first, then the maximum over slots. Each offset-attention layer:
    F_sa = softmax_rows(F Wq (F Wk)^T / sqrt(c)) F Wv, then
    F <- relu((F - F_sa) Wg + bg) + F. Score head: the layer outputs side by
    side, relu(. R1 + r1) R2.
    """
    w = {k: v.astype(np.float64) for k, v in arrays.items()}
    p = cloud.astype(np.float64)
    n = len(p)
    if table is None:
        table = np.arange(n)[:, None]
    f = np.empty((n, w["sigma.1.w"].shape[1]))
    for lo in range(0, n, BLOCK):
        nb = table[lo : lo + BLOCK]
        real = nb != SENTINEL
        here = p[lo : lo + BLOCK, None, :]
        offsets = np.where(real[..., None], p[np.where(real, nb, 0)] - here, 0.0)
        grouped = np.concatenate([np.broadcast_to(here, offsets.shape), offsets], axis=2)
        h = np.maximum(grouped @ w["sigma.0.w"] + w["sigma.0.b"], 0.0) @ w["sigma.1.w"] + w["sigma.1.b"]
        f[lo : lo + BLOCK] = h.max(axis=1)
    outputs = []
    for li in range(oa_layers):
        q, k_, v = (f @ w[f"oa.{li}.{name}"] for name in ("wq", "wk", "wv"))
        q /= np.sqrt(f.shape[1])
        f_sa = np.empty_like(f)
        for lo in range(0, n, BLOCK):
            s = q[lo : lo + BLOCK] @ k_.T
            s -= s.max(axis=1, keepdims=True)
            np.exp(s, out=s)
            f_sa[lo : lo + BLOCK] = (s @ v) / s.sum(axis=1, keepdims=True)
        f = np.maximum((f - f_sa) @ w[f"oa.{li}.wg"] + w[f"oa.{li}.bg"], 0.0) + f
        outputs.append(f)
    hidden = np.maximum(np.concatenate(outputs, axis=1) @ w["rho.hidden.w"] + w["rho.hidden.b"], 0.0)
    return hidden @ w["rho.out.w"]


def logit_tol(logits: np.ndarray, dtype) -> float:
    """Bound on the logit error of the program's arithmetic in `dtype`."""
    return 2.0**12 * float(np.finfo(dtype).eps) * (1.0 + float(np.abs(logits).max()))


def learned_indices(logits: np.ndarray, idx: np.ndarray, tol: float) -> list[str]:
    """Each selected row reaches its column's maximum logit, within tol."""
    m = logits.shape[1]
    if idx.shape != (m,):
        return [f"expected {m} indices, got {idx.shape}"]
    gap = logits.max(axis=0) - logits[idx, np.arange(m)]
    bad = np.flatnonzero(gap > tol)
    if bad.size:
        return [f"{bad.size} columns select a row {gap[bad].max():.3g} below the column maximum (tol {tol:.3g})"]
    return []
