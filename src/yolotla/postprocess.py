"""Raw head maps to final detections: decode, filter, class-wise NMS.

Decode follows the sigmoid offset scheme: a cell's center prediction is
(2*sigmoid(t) - 0.5 + grid) * stride, its size (2*sigmoid(t))^2 * anchor,
and its confidence sigmoid(objectness) * sigmoid(best class score). With
all-zero logits every gate sits at 0.5, so a cell decodes to a box of
exactly the anchor size centered on the cell with confidence 0.25. A head
map holding a NaN or an infinity is refused, never decoded.

NMS is greedy and class-wise with a fully specified order: detections
sorted by (-confidence, class_id, x1, y1), a box kept iff its IOU with
every kept box of the same class stays at or below the threshold. The
tie-break makes outputs reproducible bit for bit.

`nms` runs that rule once per kept box instead of once per candidate.
Within a class, in rank order, each box still alive is kept, and one
float64 numpy row holds its IOU with the class's boxes in an x-window;
every later box whose IOU is not at or below the threshold dies. The
window is exact: with the class sorted by x1 it spans the positions whose
x1 lies below the kept box's x2 and whose running maximum of x2 lies
above its x1, and no box outside it can have a positive intersection
width. (A negative or NaN threshold suppresses even disjoint boxes, so
there each class keeps its first box.) The row repeats `iou`'s operations
in `iou`'s order, and `iou` is bit-symmetric for finite boxes because min,
max and the sum of the two areas commute in IEEE arithmetic, so the kept
list equals the one the pairwise loop, `nms_reference`, builds. That
holds for boxes of finite coordinates that float64 holds exactly, such as
Python floats and small ints; `decode` produces no other kind.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, YoloTlaError
from .tensor import sigmoid64

DEFAULT_CONF_THRESHOLD = 0.25
DEFAULT_IOU_THRESHOLD = 0.45


@dataclass(frozen=True)
class Detection:
    box: tuple[float, float, float, float]   # x1, y1, x2, y2 in pixels
    class_id: int
    confidence: float

    def to_coco(self, image_id: int, category_id: int) -> dict:
        x1, y1, x2, y2 = self.box
        return {"image_id": image_id, "category_id": category_id,
                "bbox": [x1, y1, x2 - x1, y2 - y1],
                "score": self.confidence}


def iou(a, b) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)
    return inter / union if union > 0 else 0.0


def _sort_key(d: Detection):
    return (-d.confidence, d.class_id, d.box[0], d.box[1])


def nms_reference(dets, iou_threshold=DEFAULT_IOU_THRESHOLD
                  ) -> list[Detection]:
    """The pairwise greedy loop, one `iou` call per (candidate, kept rival)
    pair: the oracle that `nms` must equal."""
    kept: list[Detection] = []
    kept_by_class: dict[int, list[Detection]] = {}
    for det in sorted(dets, key=_sort_key):
        rivals = kept_by_class.setdefault(det.class_id, [])
        if all(iou(det.box, r.box) <= iou_threshold for r in rivals):
            kept.append(det)
            rivals.append(det)
    return kept


def decode(maps, anchors, strides,
           conf_threshold=DEFAULT_CONF_THRESHOLD) -> list[Detection]:
    """Decode raw per-scale maps into pixel-space detections.

    ``anchors``: one (3, 2) array of pixel (w, h) pairs per scale;
    ``strides``: matching per-scale strides. Boxes are clipped to the image
    size, which is map size times stride.
    """
    if not (len(maps) == len(anchors) == len(strides)):
        raise ShapeError(
            f"{len(maps)} maps, {len(anchors)} anchor rows and "
            f"{len(strides)} strides do not line up")
    sizes = {(m.h * s, m.w * s) for m, s in zip(maps, strides)}
    if len(sizes) != 1:
        raise ShapeError(
            f"maps disagree on image size under their strides: {sorted(sizes)}")
    img_h, img_w = next(iter(sizes))
    out: list[Detection] = []
    for si, (fmap, stride) in enumerate(zip(maps, strides)):
        n, c, h, w = fmap.shape
        if n != 1:
            raise ShapeError(f"decode expects batch 1, got {n}")
        if c % 3:
            raise ShapeError(
                f"map {si} has {c} channels, not divisible into 3 anchors")
        per = c // 3
        nc = per - 5
        if nc < 1:
            raise ShapeError(
                f"map {si} has {c} channels, too few for 3*(5+classes)")
        if not np.isfinite(fmap.data).all():
            raise YoloTlaError(
                f"head map {si} holds non-finite values (NaN or infinity)")
        row = np.asarray(anchors[si], dtype=np.float64).reshape(3, 2)
        arr = fmap.data.reshape(3, per, h, w)
        xy = sigmoid64(arr[:, 0:2])
        wh = sigmoid64(arr[:, 2:4])
        obj = sigmoid64(arr[:, 4])
        cls = sigmoid64(arr[:, 5:])
        best_cls = cls.argmax(axis=1)
        best_score = cls.max(axis=1)
        conf = obj * best_score
        gy, gx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        cx = (2.0 * xy[:, 0] - 0.5 + gx) * stride
        cy = (2.0 * xy[:, 1] - 0.5 + gy) * stride
        bw = np.square(2.0 * wh[:, 0]) * row[:, 0, None, None]
        bh = np.square(2.0 * wh[:, 1]) * row[:, 1, None, None]
        x1 = np.clip(cx - bw / 2, 0.0, img_w)
        y1 = np.clip(cy - bh / 2, 0.0, img_h)
        x2 = np.clip(cx + bw / 2, 0.0, img_w)
        y2 = np.clip(cy + bh / 2, 0.0, img_h)
        keep = conf >= conf_threshold
        columns = (v[keep].tolist() for v in (x1, y1, x2, y2, best_cls, conf))
        out.extend(Detection(box=(bx1, by1, bx2, by2), class_id=c,
                             confidence=p)
                   for bx1, by1, bx2, by2, c, p in zip(*columns))
    return out


def _keep_class(boxes: np.ndarray, iou_threshold) -> list[int]:
    """Greedy suppression within one class; ``boxes`` is (n, 4) float64 in
    rank order. Returns the kept rows in rank order."""
    if not 0.0 <= iou_threshold:   # even an IOU of 0 exceeds it
        return [0]
    n = len(boxes)
    rank = np.argsort(boxes[:, 0], kind="stable")   # rank at each x position
    pos = np.empty(n, dtype=np.intp)                # x position of each rank
    pos[rank] = np.arange(n)
    by_x = boxes[rank]
    x1, y1, x2, y2 = by_x.T.copy()
    area = (x2 - x1) * (y2 - y1)
    rows = by_x.tolist()
    x1_list = x1.tolist()
    reach = np.maximum.accumulate(x2).tolist()
    alive = np.ones(n, dtype=bool)
    kept = []
    for k, p in enumerate(pos.tolist()):
        if not alive[p]:
            continue
        kept.append(k)
        bx1, by1, bx2, by2 = rows[p]
        w = slice(bisect_right(reach, bx1), bisect_left(x1_list, bx2))
        iw = np.minimum(x2[w], bx2) - np.maximum(x1[w], bx1)
        ih = np.minimum(y2[w], by2) - np.maximum(y1[w], by1)
        inter = iw * ih
        union = area[w] + area[p] - inter
        row = np.where((iw <= 0) | (ih <= 0) | ~(union > 0), 0.0,
                       inter / union)
        alive[w] &= (rank[w] <= k) | (row <= iou_threshold)
    return kept


def nms(dets, iou_threshold=DEFAULT_IOU_THRESHOLD) -> list[Detection]:
    """Greedy class-wise suppression with a deterministic tie-break; equal
    to `nms_reference`, with one IOU row per kept box."""
    ranked = sorted(dets, key=_sort_key)
    by_class: dict[int, list[int]] = {}
    for i, d in enumerate(ranked):
        by_class.setdefault(d.class_id, []).append(i)
    kept = []
    with np.errstate(all="ignore"):   # for quotients the mask discards
        for members in by_class.values():
            boxes = np.array([ranked[i].box for i in members],
                             dtype=np.float64)
            kept.extend(members[k]
                        for k in _keep_class(boxes, iou_threshold))
    return [ranked[i] for i in sorted(kept)]


def to_coco_results(dets, image_id: int, category_ids=None) -> list[dict]:
    """Serialize detections; class index maps through category_ids if given."""
    out = []
    for d in dets:
        cat = (int(category_ids[d.class_id]) if category_ids is not None
               else d.class_id)
        out.append(d.to_coco(image_id, cat))
    return out
