"""Raw head maps to final detections: decode, filter, class-wise NMS.

Decode follows the sigmoid offset scheme: a cell's center prediction is
(2*sigmoid(t) - 0.5 + grid) * stride, its size (2*sigmoid(t))^2 * anchor,
and its confidence sigmoid(objectness) * sigmoid(best class score). With
all-zero logits every gate sits at 0.5, so a cell decodes to a box of
exactly the anchor size centered on the cell with confidence 0.25. A head
map holding a NaN or an infinity is refused, never decoded.

`decode` finds the passing cells before it decodes any. For every cell it
computes only the objectness and the bound sigmoid(objectness) *
sigmoid(largest class logit), which is at least the confidence up to the
last bits of `exp`, the one step of `sigmoid64` that need not be monotone
(adding one and dividing are, and so is rounding a product). Cells whose
bound falls below threshold * (1 - 1e-9) - 1e-300 cannot pass: the
relative margin is far wider than any error of `exp`, and the absolute one
covers products rounded among subnormals. The selected cells then go
through exactly the full-map computation: every class score in float64,
the first best class, the confidence and the `>=` test, then the box. The
cells come out in (scale, anchor, y, x) order, as a mask over the whole
map would give them. Their class scores are computed in chunks of
max(1, `tensor.BAND_BYTES` // (8 * classes)) cells, 1,638 at 80 classes,
each chunk writing its best classes and confidences into preallocated
columns. So every float64 temporary stays near 1 MiB however many cells
pass (76,800 on the stride-4 scale of `yolo-tla-s` at 640), and since each
cell's arithmetic is unchanged, the chunk size changes no bit.

NMS is greedy and class-wise with a fully specified order: detections
sorted by (-confidence, class_id, x1, y1), a box kept iff its IOU with
every kept box of the same class stays at or below the threshold. The
tie-break makes outputs reproducible bit for bit. `nms` ranks once with a
stable lexsort on those keys, which orders finite keys as `sorted` does.

Within a class, `nms` settles the alive boxes in rank order, up to 64 at a
time, taking the unvisited ones off its alive mask. A block's boxes decide
among themselves through one 64x64 matrix of "earlier suppresses later"
bits, one uint64 per row, swept in rank order: a box is kept iff no kept
box of the block has its bit set. Each kept box then kills the later boxes
whose IOU with it is not at or below the threshold in one vectorized pass
over x-windows. With boxes sorted by x1, the window of a kept box spans
the positions whose x1 lies below its x2 and whose running maximum of x2
lies above its x1; no box outside it has a positive intersection width.
That holds for any x1-sorted subset, so the window arrays are the class's
x1 order, sorted once and filtered in place to the alive unvisited boxes
(running maximum recomputed) once fewer than 3/4 of their entries are; a
visited box, kept or dead, never needs another kill. Pairs whose
intersection height is not positive have IOU 0 and are dropped before any
division. (A negative or NaN threshold suppresses even disjoint boxes, so
there each class keeps its first box.) Every IOU is `_iou`'s, which
equals `iou` bit for bit (its docstring says why), so the kept list
equals the one the pairwise loop (the tests' `nms_reference`) builds, and
holds the same objects. That holds for finite coordinates that float64 holds
exactly, such as Python floats and small ints; `decode` produces no other
kind.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ShapeError, YoloTlaError
from .tensor import BAND_BYTES, sigmoid64

DEFAULT_CONF_THRESHOLD = 0.25
DEFAULT_IOU_THRESHOLD = 0.45
# NMS settles up to this many alive boxes of a class at a time. 64 packs
# each box's row of suppression bits into one uint64; blocks of 16 or 32
# measured slower on the dense seed-0 heads of yolo-tla-s and yolov5s.
_BLOCK = 64
_LATER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)   # row < column
_BITS = np.uint64(1) << np.arange(_BLOCK, dtype=np.uint64)   # 2**0 .. 2**63
# The window arrays (the class's x1 order) are filtered to the alive
# unvisited boxes once fewer than this share of their entries is; 0.5, 0.9
# and "every block" each measured slower on the same heads.
_COMPACT = 0.75


@dataclass(frozen=True)
class Detection:
    box: tuple[float, float, float, float]   # x1, y1, x2, y2 in pixels
    class_id: int
    confidence: float


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
    # Every cell that passes the exact test below has its upper bound at or
    # above this floor; the module docstring gives both margins.
    floor = conf_threshold * (1.0 - 1e-9) - 1e-300
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
        data = fmap.data   # NaN propagates through both min and max
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise YoloTlaError(
                f"head map {si} holds non-finite values (NaN or infinity)")
        row = np.asarray(anchors[si], dtype=np.float64).reshape(3, 2)
        arr = data.reshape(3, per, h * w)
        obj = sigmoid64(arr[:, 4])
        upper = obj * sigmoid64(arr[:, 5:].max(axis=1))
        anchor, cell = np.nonzero(upper >= floor)
        best_cls = np.empty(len(cell), dtype=np.intp)
        conf = np.empty(len(cell))
        chunk = max(1, BAND_BYTES // (8 * nc))
        for lo in range(0, len(cell), chunk):
            part = slice(lo, lo + chunk)
            cls = sigmoid64(arr[anchor[part], 5:, cell[part]])   # (cells, nc)
            best = best_cls[part] = cls.argmax(axis=1)
            # the row maximum, read at its first argmax
            conf[part] = (obj[anchor[part], cell[part]]
                          * cls[np.arange(len(cls)), best])
        keep = conf >= conf_threshold
        anchor, cell = anchor[keep], cell[keep]
        gy, gx = np.divmod(cell, w)
        xywh = sigmoid64(arr[anchor, :4, cell])
        cx = (2.0 * xywh[:, 0] - 0.5 + gx) * stride
        cy = (2.0 * xywh[:, 1] - 0.5 + gy) * stride
        bw = np.square(2.0 * xywh[:, 2]) * row[anchor, 0]
        bh = np.square(2.0 * xywh[:, 3]) * row[anchor, 1]
        x1 = np.clip(cx - bw / 2, 0.0, img_w)
        y1 = np.clip(cy - bh / 2, 0.0, img_h)
        x2 = np.clip(cx + bw / 2, 0.0, img_w)
        y2 = np.clip(cy + bh / 2, 0.0, img_h)
        boxes = zip(*(v.tolist() for v in (x1, y1, x2, y2)))
        out.extend(map(Detection, boxes, best_cls[keep].tolist(),
                       conf[keep].tolist()))
    return out


def _columns(dets: list[Detection]):
    """The detections' (boxes (n, 4) float64, class_id (n,) int64,
    confidence (n,) float64) columns, in list order."""
    n = len(dets)
    return (np.fromiter(chain.from_iterable([d.box for d in dets]),
                        np.float64, 4 * n).reshape(n, 4),
            np.fromiter((d.class_id for d in dets), np.int64, n),
            np.fromiter((d.confidence for d in dets), np.float64, n))


def _overlap(lo_a, hi_a, lo_b, hi_b):
    """Intersection length along one axis, as `iou` computes it."""
    return np.minimum(hi_b, hi_a) - np.maximum(lo_b, lo_a)


def _iou(iw, ih, area_a, area_b) -> np.ndarray:
    """`iou` of box pairs from their `_overlap`s and areas, bit for bit:
    `iou`'s operations in `iou`'s order, and 0 where an overlap or the
    union is not positive. Either box may be a, as min, max and the sum of
    the two areas commute in IEEE arithmetic. A product that overflows
    warns unless the caller silences it."""
    inter = iw * ih
    union = area_a + area_b - inter
    with np.errstate(all="ignore"):   # quotients the mask below discards
        out = inter / union
    out[~((iw > 0) & (ih > 0) & (union > 0))] = 0.0
    return out


def _keep_class(boxes: np.ndarray, iou_threshold) -> list[int]:
    """Greedy suppression within one class; ``boxes`` is (n, 4) float64 in
    rank order. Returns the kept rows in rank order."""
    if not 0.0 <= iou_threshold:   # even an IOU of 0 exceeds it
        return [0]
    n = len(boxes)
    x1, y1, x2, y2 = boxes.T.copy()
    area = (x2 - x1) * (y2 - y1)
    alive = np.ones(n, dtype=bool)
    kept: list[int] = []
    start = 0                   # every rank below it has been visited
    rest = np.arange(n)         # alive ranks not yet visited, less start
    live = np.argsort(x1, kind="stable")   # ranks by x1: all unvisited, and more
    while len(rest):
        if not start or len(rest) < _COMPACT * len(live):   # first, or stale
            live = live[alive[live] & (live >= start)]
            reach = np.maximum.accumulate(x2[live])
            lx1, ly1, lx2, ly2 = x1[live], y1[live], x2[live], y2[live]
        # (a) the next alive ranks, at most _BLOCK of them
        block = start + rest[:_BLOCK]
        start = int(block[-1]) + 1
        # (b) greedy sweep inside the block over rows of suppression bits
        bx1, by1, bx2, by2 = x1[block], y1[block], x2[block], y2[block]
        hits = _LATER[:len(block), :len(block)] & ~(_iou(
            _overlap(bx1[:, None], bx2[:, None], bx1, bx2),
            _overlap(by1[:, None], by2[:, None], by1, by2),
            area[block, None], area[block]) <= iou_threshold)
        rows = hits.astype(np.uint64) @ _BITS[:len(block)]
        dead = 0
        won = []
        for i, bits in enumerate(rows.tolist()):
            if not dead >> i & 1:
                won.append(i)
                dead |= bits
        winners = block[won]
        kept.extend(winners.tolist())
        if len(rest) == len(block):
            break
        # (c, d) each winner's x-window in the window arrays, end to end
        lo = np.searchsorted(reach, x1[winners], side="right")
        hi = np.maximum(np.searchsorted(lx1, x2[winners], side="left"), lo)
        length = hi - lo
        ends = np.cumsum(length)
        spans = [slice(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        # (e) a pair with no positive intersection height has IOU 0
        ih = _overlap(np.repeat(y1[winners], length),
                      np.repeat(y2[winners], length),
                      np.concatenate([ly1[w] for w in spans]),
                      np.concatenate([ly2[w] for w in spans]))
        near = np.flatnonzero(ih > 0)
        which = np.searchsorted(ends, near, side="right")
        at = near + (hi - ends)[which]   # positions in the window arrays
        owner, rival = winners[which], live[at]
        # (f, g) the remaining pairs' IOUs; later ranks above it die
        hit = (rival >= start) & ~(_iou(
            _overlap(x1[owner], x2[owner], lx1[at], lx2[at]), ih[near],
            area[owner], area[rival]) <= iou_threshold)
        alive[rival[hit]] = False
        rest = np.flatnonzero(alive[start:])
    return kept


def nms(dets, iou_threshold=DEFAULT_IOU_THRESHOLD) -> list[Detection]:
    """Greedy class-wise suppression with a deterministic tie-break; equal
    to the tests' pairwise `nms_reference`, returning the same objects."""
    dets = list(dets)
    if not dets:
        return []
    boxes, class_id, conf = _columns(dets)
    ranked = np.lexsort((boxes[:, 1], boxes[:, 0], class_id, -conf))
    ranked_class = class_id[ranked]
    grouped = np.argsort(ranked_class, kind="stable")   # ranks, by class
    cuts = np.flatnonzero(np.diff(ranked_class[grouped])) + 1
    kept = []
    with np.errstate(all="ignore"):   # huge finite boxes overflow, as in `iou`
        for members in np.split(grouped, cuts):
            kept.extend(members[_keep_class(boxes[ranked[members]],
                                            iou_threshold)].tolist())
    kept.sort()
    return [dets[i] for i in ranked[kept].tolist()]


def to_coco_results(dets, image_id: int) -> list[dict]:
    """COCO results rows: [x, y, w, h] boxes, the class index as category."""
    out = []
    for d in dets:
        x1, y1, x2, y2 = d.box
        out.append({"image_id": image_id, "category_id": d.class_id,
                    "bbox": [x1, y1, x2 - x1, y2 - y1], "score": d.confidence})
    return out


# One `json.dumps(rows, sort_keys=True, indent=2)` row of `results_json`,
# with its keys in sorted order.
_ROW = ('  {\n    "bbox": [\n      %r,\n      %r,\n      %r,\n      %r\n'
        '    ],\n    "category_id": %r,\n    "image_id": %r,\n'
        '    "score": %r\n  }')


def results_json(dets, image_id: int) -> str:
    """The COCO results JSON of ``dets``: bbox values rounded to 3 digits
    and scores to 6 with Python's `round`, byte for byte
    `json.dumps(rows, sort_keys=True, indent=2)` of those rounded
    `to_coco_results` rows. json writes an int with `int.__repr__` and a
    finite float with `float.__repr__`, which is what `%r` writes, so a
    coordinate clipped to an int image edge stays an int here as there."""
    if not dets:
        return "[]"
    rows = []
    for d in dets:
        x1, y1, x2, y2 = d.box
        rows.append(_ROW % (round(x1, 3), round(y1, 3), round(x2 - x1, 3),
                            round(y2 - y1, 3), d.class_id, image_id,
                            round(d.confidence, 6)))
    return "[\n" + ",\n".join(rows) + "\n]"
