"""Output checks the benchmark applies to every op.

Each check raises ``CheckFailed`` with a one-line reason; the op loop counts
that op as failed and carries on. The checks are independent of the code
they check: the NMS check tests the greedy property with numpy instead of
re-running the greedy loop, and the analyzer check compares against the
README's published table.
"""
from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    pass


# The README's "Bundled configurations" table: params exactly, GFLOPs as
# printed there (three decimals), at 640x640.
README_TABLE = {
    "yolov5s": (7_235_389, "16.516"),
    "yolov5m": (21_190_557, "49.029"),
    "yolov5s-tiny": (7_394_684, "20.057"),
    "yolov5s-g1": (6_072_501, "13.110"),
    "yolov5s-g2": (5_109_925, "11.150"),
    "yolov5s-cc1": (6_865_277, "15.422"),
    "yolov5s-cc2": (6_559_229, "14.796"),
    "yolov5s-gam": (9_544_349, "22.098"),
    "yolo-tla-s": (9_333_532, "24.545"),
    "yolo-tla-m": (25_153_356, "65.133"),
}

# Rows of the candidate x kept IOU matrix built at once; bounds the check's
# own memory so that it does not show up in the workload's peak RSS.
_CHUNK_ROWS = 256


def check_candidate_count(candidates, expected: int) -> None:
    if len(candidates) != expected:
        raise CheckFailed(
            f"{len(candidates)} candidates passed the threshold, "
            f"expected {expected}")


def _sort_key(d):
    return (-d.confidence, d.class_id, d.box[0], d.box[1])


def _iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IOU of every box in ``a`` against every box in ``b``, with the same
    float64 operations in the same order as ``postprocess.iou(a, b)``, so
    values on the threshold compare exactly as the program compares them."""
    ax1, ay1, ax2, ay2 = (a[:, i, None] for i in range(4))
    bx1, by1, bx2, by2 = (b[None, :, i] for i in range(4))
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(union > 0, inter / union, 0.0)
    return np.where((iw <= 0) | (ih <= 0), 0.0, out)


def check_greedy_nms(candidates, kept, iou_threshold: float) -> None:
    """``kept`` must be exactly greedy class-wise NMS over ``candidates``.

    Candidates are ranked by (-conf, class, x1, y1). The greedy output is
    the unique subsequence K of that ranking in which a candidate belongs
    to K iff its IOU with every earlier member of K of its class is at most
    the threshold; this checks that property for every candidate at once.
    """
    ranked = sorted(candidates, key=_sort_key)
    positions: dict = {}
    for pos, d in enumerate(ranked):
        positions.setdefault((d.box, d.class_id, d.confidence), []).append(pos)
    is_kept = np.zeros(len(ranked), dtype=bool)
    prev = -1
    for d in kept:
        later = [p for p in positions.get((d.box, d.class_id, d.confidence), ())
                 if p > prev]
        if not later:
            raise CheckFailed(
                f"kept box {d} is not a candidate, or is out of rank order")
        prev = later[0]
        is_kept[prev] = True
    boxes = np.array([d.box for d in ranked], dtype=np.float64).reshape(-1, 4)
    classes = np.array([d.class_id for d in ranked], dtype=np.int64)
    for cls in np.unique(classes):
        rows = np.flatnonzero(classes == cls)
        cols = rows[is_kept[rows]]
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            overlap = _iou_rows(boxes[chunk], boxes[cols])
            earlier = cols[None, :] < chunk[:, None]
            clear = np.all((overlap <= iou_threshold) | ~earlier, axis=1)
            wrong = np.flatnonzero(clear != is_kept[chunk])
            if len(wrong):
                d = ranked[chunk[wrong[0]]]
                state = "kept" if is_kept[chunk[wrong[0]]] else "dropped"
                raise CheckFailed(
                    f"NMS {state} {d} against the greedy rule "
                    f"(iou threshold {iou_threshold})")


def check_analyzer_totals(name: str, total_params: int, gflops: float) -> None:
    if name not in README_TABLE:
        raise CheckFailed(f"config {name} has no row in the README table")
    params, gf = README_TABLE[name]
    got = (total_params, f"{gflops:.3f}")
    if got != (params, gf):
        raise CheckFailed(
            f"analyze {name}: {got[0]:,} params, {got[1]} GFLOPs; README "
            f"table says {params:,} params, {gf} GFLOPs")


class RepeatLog:
    """Remembers the first output per key; later outputs must match it."""

    def __init__(self):
        self.first: dict = {}

    def check(self, key, blob) -> None:
        first = self.first.setdefault(key, blob)
        if blob != first:
            raise CheckFailed(f"output for {key} differs from its first "
                              f"repetition in this run")
