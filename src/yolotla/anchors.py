"""Anchor estimation: k-means over box sizes, then per-scale assignment.

Cluster distance is 1 - IOU of co-centered boxes, not Euclidean, so a
20x20 box is as far from 10x10 as 200x200 is from 100x100. Seeding is
k-means++ from a caller-supplied seed. The mean-update step is not
guaranteed to lower an IOU-based objective the way it does a Euclidean
one, so each round is adopted only if the objective does not increase and
its centroids are finite; the first update that fails either ends the
loop. That guard is what makes the objective trace monotone, and fitted
anchors finite even where a mean of huge boxes overflows. The fit also
ends on a round whose assignment is the last adopted one (adopted: it has
converged) or an earlier adopted one (not adopted: the rounds would
repeat in a cycle, as tied centroids can make them), so `MAX_ROUNDS` is
only a safety cap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .postprocess import _iou

MAX_ROUNDS = 300


def _distances(boxes: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """1 - IOU of co-centered (w, h) boxes for every (box, centroid) pair,
    shape (n, k), equal to the tests' `iou_wh` oracle. An area
    that overflows to inf warns nothing, as in `nms` and `evaluate`."""
    bw, bh = boxes[:, None, 0], boxes[:, None, 1]
    cw, ch = centroids[None, :, 0], centroids[None, :, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 - _iou(np.minimum(bw, cw), np.minimum(bh, ch), bw * bh,
                          cw * ch)


def _check_sides(arr: np.ndarray, what: str) -> None:
    """Refuse (w, h) rows with a side that is not finite and positive."""
    bad = int(np.count_nonzero(~(np.isfinite(arr) & (arr > 0)).all(axis=1)))
    if bad:
        raise ConfigError(f"{bad} {what} have a width or height that is "
                          f"not finite and positive")


def _check_k(k: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")


def _seed_centroids(boxes: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++: weight each next pick by squared distance to the nearest
    chosen box; only the newest pick can lower that distance."""
    n = len(boxes)
    chosen = [int(rng.integers(n))]
    d = np.inf
    while len(chosen) < k:
        d = np.minimum(d, _distances(boxes, boxes[chosen[-1:]])[:, 0])
        weights = d * d
        total = weights.sum()
        if total <= 0:
            chosen.append(next(i for i in range(n) if i not in chosen))
        else:
            chosen.append(int(rng.choice(n, p=weights / total)))
    return boxes[chosen].copy()


def _sort_anchors(anchors: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):   # an inf area still sorts last
        area = anchors[:, 0] * anchors[:, 1]
    order = np.lexsort((anchors[:, 1], anchors[:, 0], area))
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
    _check_sides(arr, "box(es)")
    distinct = np.unique(arr, axis=0)
    _check_k(k)
    if k > len(distinct):
        raise ConfigError(
            f"k={k} exceeds the {len(distinct)} distinct box sizes")
    centroids = _seed_centroids(distinct, k, np.random.default_rng(seed))
    new_centroids, assign, objective = centroids, None, np.inf
    import hashlib   # here, not at the top: it costs `import yolotla` ~3 ms
    adopted = set()   # digests of the adopted assignments: 32 bytes a round
    for _ in range(MAX_ROUNDS + 1):   # the seeds, then each round's update
        new_d = _distances(arr, new_centroids)
        new_assign = new_d.argmin(axis=1)
        new_objective = float(new_d[np.arange(len(arr)), new_assign].sum())
        if new_objective > objective or not np.isfinite(new_centroids).all():
            break
        converged = np.array_equal(new_assign, assign)
        digest = hashlib.sha256(new_assign).digest()
        if digest in adopted and not converged:
            break
        adopted.add(digest)
        centroids, d, assign, objective = (new_centroids, new_d, new_assign,
                                           new_objective)
        if trace is not None:
            trace.append(objective)
        if converged:
            break
        new_centroids = centroids.copy()
        for c in range(k):
            members = arr[assign == c]
            if len(members):   # an overflowing mean fails the check above
                with np.errstate(over="ignore"):
                    new_centroids[c] = members.mean(axis=0)
            else:
                new_centroids[c] = arr[int(d.min(axis=1).argmax())]
    return _sort_anchors(centroids)


@dataclass(frozen=True)
class AnchorSet:
    """Per-scale anchors: (feature map side, three (w, h) pairs) rows,
    largest map (finest stride) first."""
    scales: tuple[tuple[int, tuple[tuple[float, float], ...]], ...]


def _check_split(k: int, sizes: list[int]) -> None:
    """Refuse map sizes below 1 or repeated, or k not three per map."""
    if min(sizes, default=1) < 1:
        raise ConfigError(f"scale sizes must be at least 1, got {sizes}")
    if k != 3 * len(sizes):
        raise ConfigError(f"{k} anchors cannot fill {len(sizes)} scales of 3")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"scale sizes repeat: {sizes}")


def assign_to_scales(anchors, scale_sizes) -> AnchorSet:
    """Split area-sorted anchors into triples, smallest → largest map."""
    arr = np.asarray(anchors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError("anchors must be (w, h) pairs")
    _check_sides(arr, "anchor(s)")
    sizes = [int(s) for s in scale_sizes]
    _check_split(len(arr), sizes)
    ordered = _sort_anchors(arr)
    rows = []
    for i, size in enumerate(sorted(sizes, reverse=True)):
        triple = ordered[3 * i:3 * i + 3]
        rows.append((size, tuple((float(w), float(h)) for w, h in triple)))
    return AnchorSet(scales=tuple(rows))
