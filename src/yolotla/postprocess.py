"""Raw head maps to final detections: decode, filter, class-wise NMS.

Decode follows the sigmoid offset scheme: a cell's center prediction is
(2*sigmoid(t) - 0.5 + grid) * stride, its size (2*sigmoid(t))^2 * anchor,
and its confidence sigmoid(objectness) * sigmoid(best class score). With
all-zero logits every gate sits at 0.5, so a cell decodes to a box of
exactly the anchor size centered on the cell with confidence 0.25.

NMS is greedy and class-wise with a fully specified order: detections
sorted by (-confidence, class_id, x1, y1), a box kept iff its IOU with
every kept box of the same class stays at or below the threshold. The
tie-break makes outputs reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
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
        for a, yy, xx in zip(*np.nonzero(keep)):
            out.append(Detection(
                box=(float(x1[a, yy, xx]), float(y1[a, yy, xx]),
                     float(x2[a, yy, xx]), float(y2[a, yy, xx])),
                class_id=int(best_cls[a, yy, xx]),
                confidence=float(conf[a, yy, xx])))
    return out


def _sort_key(d: Detection):
    return (-d.confidence, d.class_id, d.box[0], d.box[1])


def nms(dets, iou_threshold=DEFAULT_IOU_THRESHOLD) -> list[Detection]:
    """Greedy class-wise suppression with a deterministic tie-break."""
    kept: list[Detection] = []
    kept_by_class: dict[int, list[Detection]] = {}
    for det in sorted(dets, key=_sort_key):
        rivals = kept_by_class.setdefault(det.class_id, [])
        if all(iou(det.box, r.box) <= iou_threshold for r in rivals):
            kept.append(det)
            rivals.append(det)
    return kept


def to_coco_results(dets, image_id: int, category_ids=None) -> list[dict]:
    """Serialize detections; class index maps through category_ids if given."""
    out = []
    for d in dets:
        cat = (int(category_ids[d.class_id]) if category_ids is not None
               else d.class_id)
        out.append(d.to_coco(image_id, cat))
    return out
