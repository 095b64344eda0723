"""Anchor estimation: k-means over box sizes, then per-scale assignment.

Cluster distance is 1 - IOU of co-centered boxes, not Euclidean, so a
20x20 box is as far from 10x10 as 200x200 is from 100x100. Seeding is
k-means++ from a caller-supplied seed. The mean-update step is not
guaranteed to lower an IOU-based objective the way it does a Euclidean
one, so each round is adopted only if the objective does not increase;
the first non-improving update ends the loop. That guard is what makes
the objective trace monotone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .postprocess import _iou

MAX_ROUNDS = 300


def iou_wh(a, b) -> float:
    """IOU of two (w, h) boxes sharing a center."""
    aw, ah = float(a[0]), float(a[1])
    bw, bh = float(b[0]), float(b[1])
    inter = min(aw, bw) * min(ah, bh)
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _distances(boxes: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """1 - `iou_wh` for every (box, centroid) pair; shape (n, k)."""
    bw, bh = boxes[:, None, 0], boxes[:, None, 1]
    cw, ch = centroids[None, :, 0], centroids[None, :, 1]
    return 1.0 - _iou(np.minimum(bw, cw), np.minimum(bh, ch), bw * bh,
                      cw * ch)


def _seed_centroids(boxes: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++: weight each next pick by squared distance to the chosen."""
    n = len(boxes)
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        d = _distances(boxes, boxes[chosen]).min(axis=1)
        weights = d * d
        total = weights.sum()
        if total <= 0:
            remaining = [i for i in range(n) if i not in set(chosen)]
            chosen.append(remaining[0])
            continue
        chosen.append(int(rng.choice(n, p=weights / total)))
    return boxes[chosen].copy()


def _sort_anchors(anchors: np.ndarray) -> np.ndarray:
    order = np.lexsort((anchors[:, 1], anchors[:, 0],
                        anchors[:, 0] * anchors[:, 1]))
    return anchors[order]


def fit_anchors(boxes, k: int, seed: int = 0, trace: list | None = None
                ) -> np.ndarray:
    """Cluster (w, h) pairs into k anchors, returned area-ascending.

    ``trace``, when given, collects the objective (total within-cluster
    distance) after every adopted round; callers use it to check
    monotonicity.
    """
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise ConfigError("boxes must be a non-empty list of (w, h) pairs")
    bad = int(np.count_nonzero((arr[:, 0] <= 0) | (arr[:, 1] <= 0)))
    if bad:
        raise ConfigError(
            f"{bad} box(es) have non-positive width or height")
    distinct = np.unique(arr, axis=0)
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if k > len(distinct):
        raise ConfigError(
            f"k={k} exceeds the {len(distinct)} distinct box sizes")
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(distinct, k, rng)
    d = _distances(arr, centroids)
    assign = d.argmin(axis=1)
    objective = float(d[np.arange(len(arr)), assign].sum())
    if trace is not None:
        trace.append(objective)
    for _ in range(MAX_ROUNDS):
        new_centroids = centroids.copy()
        for c in range(k):
            members = arr[assign == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
            else:
                farthest = int(
                    _distances(arr, centroids).min(axis=1).argmax())
                new_centroids[c] = arr[farthest]
        nd = _distances(arr, new_centroids)
        new_assign = nd.argmin(axis=1)
        new_objective = float(nd[np.arange(len(arr)), new_assign].sum())
        if new_objective > objective:
            break
        converged = np.array_equal(new_assign, assign)
        centroids, assign, objective = new_centroids, new_assign, new_objective
        if trace is not None:
            trace.append(objective)
        if converged:
            break
    return _sort_anchors(centroids)


@dataclass(frozen=True)
class AnchorSet:
    """Per-scale anchors: (feature map side, three (w, h) pairs) rows,
    largest map (finest stride) first."""
    scales: tuple[tuple[int, tuple[tuple[float, float], ...]], ...]


def assign_to_scales(anchors, scale_sizes) -> AnchorSet:
    """Split area-sorted anchors into triples, smallest → largest map."""
    arr = np.asarray(anchors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError("anchors must be (w, h) pairs")
    sizes = [int(s) for s in scale_sizes]
    if min(sizes, default=1) < 1:
        raise ConfigError(f"scale sizes must be at least 1, got {sizes}")
    if len(arr) != 3 * len(sizes):
        raise ConfigError(
            f"{len(arr)} anchors cannot fill {len(sizes)} scales of 3")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"scale sizes repeat: {sizes}")
    ordered = _sort_anchors(arr)
    rows = []
    for i, size in enumerate(sorted(sizes, reverse=True)):
        triple = ordered[3 * i:3 * i + 3]
        rows.append((size, tuple((float(w), float(h)) for w, h in triple)))
    return AnchorSet(scales=tuple(rows))
