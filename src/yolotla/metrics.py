"""Detection metrics: IOU matching, macro P/R, F1, interpolated AP, mAP.

Matching is per image and per class: detections in confidence order each
claim the highest-IOU unmatched ground truth at or above the threshold
(true positive) or count as a false positive; leftover ground truths are
false negatives. True negatives have no meaning in detection and are
reported as "n/a".

AP integrates the precision-recall curve after making the precision
envelope monotone non-increasing, sampling it at the 101 recall points
0.00, 0.01, ..., 1.00. The range metric averages that AP over the ten
IOU thresholds 0.50 to 0.95 in steps of 0.05.

Conventions (documented decisions): 0/0 precision or recall is 0;
classes absent from the ground truth are excluded from macro averages;
per-class precision/recall in the report are counted at IOU 0.50.

`evaluate` and `match_image` read the whole set into flat columns, image
by image and in list order within an image, and match it in arrays. They
give the flags of the greedy loop written out above (`reference_match` in
the tests), for these reasons:
- Pairs. Every same-(image, class) (detection, ground truth) pair is
  listed once, and its IOU is computed in one pass that repeats `iou`'s
  operations in `iou`'s order (min and max commute, and so does the sum of
  the two areas), so each equals `iou(det.box, gt_box)` bit for bit.
- Threshold. The greedy loop lets a detection take its best unmatched
  ground truth, the lowest index winning a tie, if that IOU is positive
  and reaches the threshold. The best reaches the threshold iff some
  unmatched pair with a positive IOU does, and it then lies among those
  pairs. So at each threshold only these qualifying pairs take part.
- Uncontested pairs. A qualifying pair whose detection and ground truth
  are in no other qualifying pair matches outright: nothing else can
  claim its ground truth, and its detection has no other choice. No
  other qualifying pair touches either of them.
- Visiting order. The remaining qualifying pairs are swept once in the
  loop's order: by image, then by detection in stable descending
  confidence, then by descending IOU and ascending ground-truth index. A
  detection takes the first pair whose ground truth is still free.
Each class is ranked once, by a stable sort on descending confidence, and
all ten thresholds' AP rows come from one (10, n) array.

This holds for finite box coordinates and confidences that float64 holds
exactly, and for int coordinates below 2**25 in magnitude, whose products
in `iou` are then exact in float64 too. Python floats and the boxes that
`decode`, `load_coco` and `load_results` produce are of this kind. A NaN or
an infinite coordinate or confidence is refused: there Python's `min` and
`sorted` and numpy's `minimum` and `lexsort` disagree.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import YoloTlaError
from .postprocess import _overlap

RANGE_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    TN = "n/a"   # detection defines no true-negative population


def precision_recall(counts: ClassCounts) -> tuple[float, float]:
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return p, r


def macro_average(values) -> float:
    vals = list(values)
    return float(np.mean(vals)) if vals else 0.0


def f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


class _Columns(NamedTuple):
    """A set's detections and ground truths as flat columns, image by image
    in the caller's order and in list order within an image; ``*_image``
    holds the image's position in that order."""
    det_image: np.ndarray   # (n,) int64
    det_box: np.ndarray     # (n, 4) float64
    det_class: np.ndarray   # (n,) int64
    det_conf: np.ndarray    # (n,) float64
    gt_image: np.ndarray    # (m,) int64
    gt_box: np.ndarray      # (m, 4) float64
    gt_class: np.ndarray    # (m,) int64


def _flatten(image_ids, gt_by_image: dict, dets_by_image: dict) -> _Columns:
    """Read every image's detections and ground truths into columns,
    refusing a non-finite box coordinate or confidence."""
    det_lists = [dets_by_image.get(img, []) for img in image_ids]
    gt_lists = [gt_by_image.get(img, []) for img in image_ids]
    dets = list(chain.from_iterable(det_lists))
    gts = list(chain.from_iterable(gt_lists))
    n, m = len(dets), len(gts)
    cols = _Columns(
        np.repeat(np.arange(len(image_ids)), [len(v) for v in det_lists]),
        np.fromiter(chain.from_iterable([d.box for d in dets]), np.float64,
                    4 * n).reshape(n, 4),
        np.fromiter((d.class_id for d in dets), np.int64, n),
        np.fromiter((d.confidence for d in dets), np.float64, n),
        np.repeat(np.arange(len(image_ids)), [len(v) for v in gt_lists]),
        np.fromiter(chain.from_iterable([box for box, _ in gts]), np.float64,
                    4 * m).reshape(m, 4),
        np.fromiter((cls for _, cls in gts), np.int64, m))
    for what, image, finite, rows in (
            ("detection", cols.det_image, np.isfinite(cols.det_box).all(1)
             & np.isfinite(cols.det_conf), dets),
            ("ground truth", cols.gt_image, np.isfinite(cols.gt_box).all(1),
             gts)):
        if not finite.all():
            i = int(np.argmin(finite))
            first = int(np.searchsorted(image, image[i]))
            raise YoloTlaError(
                f"image {image_ids[image[i]]!r}: {what} {i - first} holds a "
                f"non-finite value (NaN or infinity): {rows[i]!r}")
    return cols


def _same_class_pairs(cols: _Columns):
    """Every same-(image, class) pair once, as (detection row, ground-truth
    row, IOU) columns: by detection row, then by ground-truth row."""
    _, code = np.unique(np.concatenate([cols.det_class, cols.gt_class]),
                        return_inverse=True)
    n_codes = int(code.max(initial=-1)) + 1
    n = len(cols.det_class)
    det_key = cols.det_image * n_codes + code[:n]
    gt_key = cols.gt_image * n_codes + code[n:]
    by_key = np.argsort(gt_key, kind="stable")
    sorted_key = gt_key[by_key]
    lo = np.searchsorted(sorted_key, det_key, side="left")
    count = np.searchsorted(sorted_key, det_key, side="right") - lo
    d = np.repeat(np.arange(n), count)
    g = by_key[np.arange(len(d)) + np.repeat(lo - (np.cumsum(count) - count),
                                             count)]
    (dx1, dy1, dx2, dy2), (gx1, gy1, gx2, gy2) = cols.det_box.T, cols.gt_box.T
    # huge finite boxes overflow to inf or nan here as in `iou`, silently
    with np.errstate(over="ignore", invalid="ignore"):
        iw = _overlap(dx1[d], dx2[d], gx1[g], gx2[g])
        ih = _overlap(dy1[d], dy2[d], gy1[g], gy2[g])
        positive = (iw > 0) & (ih > 0)
        inter = iw * ih
        union = (((dx2 - dx1) * (dy2 - dy1))[d]
                 + ((gx2 - gx1) * (gy2 - gy1))[g] - inter)
        positive &= union > 0
        v = np.zeros(len(d))
        v[positive] = inter[positive] / union[positive]
    return d, g, v


def _match(cols: _Columns, thresholds) -> np.ndarray:
    """Greedy per-class matching at every threshold: a (thresholds,
    detections) bool array whose [t, i] says whether detection i is a true
    positive at thresholds[t]. The module docstring gives the argument."""
    n, m = len(cols.det_class), len(cols.gt_class)
    d, g, v = _same_class_pairs(cols)
    overlapping = v > 0
    d, g, v = d[overlapping], g[overlapping], v[overlapping]
    visit = np.empty(n, dtype=np.int64)
    visit[np.lexsort((-cols.det_conf, cols.det_image))] = np.arange(n)
    order = np.lexsort((g, -v, visit[d]))
    d, g, v = d[order], g[order], v[order]
    flags = np.zeros((len(thresholds), n), dtype=bool)
    for row, thr in zip(flags, thresholds):
        q = v >= thr
        qd, qg = d[q], g[q]
        alone = ((np.bincount(qd, minlength=n)[qd] == 1)
                 & (np.bincount(qg, minlength=m)[qg] == 1))
        row[qd[alone]] = True
        won, taken = set(), set()
        for di, gi in zip(qd[~alone].tolist(), qg[~alone].tolist()):
            if di not in won and gi not in taken:
                won.add(di)
                taken.add(gi)
        row[list(won)] = True
    return flags


def match_image(dets, gts, iou_threshold: float):
    """Greedy per-class matching for one image at one threshold.

    ``gts`` is a list of (box, class_id). Returns (counts by class,
    flags) where flags[i] says whether dets[i] is a true positive. A
    non-finite value is refused as on image 0.
    """
    (flags,) = _match(_flatten((0,), {0: gts}, {0: dets}),
                      (iou_threshold,)).tolist()
    classes = {cls for _, cls in gts} | {det.class_id for det in dets}
    counts = {cls: ClassCounts() for cls in sorted(classes)}
    for _, cls in gts:
        counts[cls].fn += 1
    for det, flag in zip(dets, flags):
        cc = counts[det.class_id]
        if flag:
            cc.tp += 1
            cc.fn -= 1
        else:
            cc.fp += 1
    return counts, flags


def _ap_rows(flags: np.ndarray, n_gt: int):
    """101-point AP of each row of a (rows, ranked detections) bool array,
    and the (recall, precision) samples of its first row."""
    if n_gt <= 0 or flags.shape[1] == 0:
        return [0.0] * len(flags), []
    tp = np.cumsum(flags, axis=1)
    fp = np.cumsum(~flags, axis=1)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    last = flags.shape[1] - 1
    aps = []
    for rec, env in zip(recall, envelope):
        idx = np.searchsorted(rec, RECALL_GRID, side="left")
        sampled = np.where(idx <= last, env[np.minimum(idx, last)], 0.0)
        aps.append(float(sampled.mean()))
    return aps, list(zip(recall[0].tolist(), precision[0].tolist()))


def ap_from_ranking(flags, n_gt: int):
    """101-point AP of a confidence-ranked TP/FP sequence.

    Returns (ap, pr_points) where pr_points are the raw (recall,
    precision) samples after each ranked detection.
    """
    (ap,), points = _ap_rows(np.asarray(flags, dtype=bool).reshape(1, -1),
                             n_gt)
    return ap, points


def exact_envelope_ap(flags, n_gt: int) -> float:
    """Exact area under the monotone envelope, no recall-grid sampling.

    Reference implementation for self-checks: integrates the step
    envelope between consecutive distinct recall values.
    """
    if n_gt <= 0:
        return 0.0
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    area, prev = 0.0, 0.0
    for r in sorted(set(recall.tolist())):
        idx = int(np.searchsorted(recall, r, side="left"))
        area += (r - prev) * float(envelope[idx])
        prev = r
    return area


@dataclass(frozen=True)
class ClassReport:
    precision: float
    recall: float
    ap50: float
    ap_range: float


@dataclass(frozen=True)
class EvalReport:
    classes: tuple[int, ...]
    per_class: dict[int, ClassReport]
    precision: float
    recall: float
    f1: float
    map50: float
    map_range: float
    pr_curves: dict[int, list[tuple[float, float]]] = field(repr=False,
                                                            default=None)
    tn: str = ClassCounts.TN

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "per_class": {
                str(c): {"precision": r.precision, "recall": r.recall,
                         "ap50": r.ap50, "ap50_95": r.ap_range}
                for c, r in self.per_class.items()},
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "map50": self.map50,
            "map50_95": self.map_range,
            "true_negatives": self.tn,
        }


def evaluate(gt_by_image: dict, dets_by_image: dict) -> EvalReport:
    """Full report over a ground-truth and a prediction set.

    ``gt_by_image`` maps image id to a list of ((x1, y1, x2, y2),
    class_id); ``dets_by_image`` maps image id to Detection lists.
    """
    image_ids = sorted(set(gt_by_image) | set(dets_by_image))
    cols = _flatten(image_ids, gt_by_image, dets_by_image)
    flags = _match(cols, RANGE_THRESHOLDS)   # row 0 is IOU 0.50
    gt_classes, n_gts = np.unique(cols.gt_class, return_counts=True)
    # each class's detections by stable descending confidence, in image
    # order and then list order on a tie
    ranked = np.lexsort((-cols.det_conf, cols.det_class))
    ranked_class = cols.det_class[ranked]
    lo = np.searchsorted(ranked_class, gt_classes, side="left").tolist()
    hi = np.searchsorted(ranked_class, gt_classes, side="right").tolist()
    per_class, curves = {}, {}
    for cls, n_gt, a, b in zip(gt_classes.tolist(), n_gts.tolist(), lo, hi):
        column = flags[:, ranked[a:b]]
        aps, curves[cls] = _ap_rows(column, n_gt)
        tp = int(np.count_nonzero(column[0]))
        p, r = precision_recall(ClassCounts(tp, b - a - tp, n_gt - tp))
        per_class[cls] = ClassReport(p, r, aps[0], macro_average(aps))
    precision = macro_average(r.precision for r in per_class.values())
    recall = macro_average(r.recall for r in per_class.values())
    return EvalReport(
        classes=tuple(gt_classes.tolist()), per_class=per_class,
        precision=precision, recall=recall, f1=f1(precision, recall),
        map50=macro_average(r.ap50 for r in per_class.values()),
        map_range=macro_average(r.ap_range for r in per_class.values()),
        pr_curves=curves)
