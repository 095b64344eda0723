"""Detection metrics: IOU matching, macro P/R, F1, interpolated AP, mAP.

Matching is per image and per class: detections in confidence order each
claim the highest-IOU unmatched ground truth at or above the threshold
(true positive) or count as a false positive; leftover ground truths are
false negatives. True negatives have no meaning in detection and are
reported as "n/a". Each same-class (detection, ground truth) IOU of an
image is computed once, and the matches at all ten thresholds are
resolved from that one table.

AP integrates the precision-recall curve after making the precision
envelope monotone non-increasing, sampling it at the 101 recall points
0.00, 0.01, ..., 1.00. The range metric averages that AP over the ten
IOU thresholds 0.50 to 0.95 in steps of 0.05.

Conventions (documented decisions): 0/0 precision or recall is 0;
classes absent from the ground truth are excluded from macro averages;
per-class precision/recall in the report are counted at IOU 0.50.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .postprocess import Detection, iou

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


def _match(dets, gts, thresholds) -> list[list[bool]]:
    """Greedy per-class matching of one image at every threshold.

    ``gts`` is a list of (box, class_id). Detections are visited in
    confidence order (stable, so ties keep list order); each claims the
    unmatched same-class ground truth of highest IOU, the lowest index
    winning a tie, if that IOU reaches the threshold. Returns one flag
    row per threshold: rows[t][i] says whether dets[i] is a true
    positive at thresholds[t].
    """
    gt_by_class: dict[int, list[int]] = {}
    for gi, (_, cls) in enumerate(gts):
        gt_by_class.setdefault(cls, []).append(gi)
    order = sorted(range(len(dets)), key=lambda di: -dets[di].confidence)
    table = []   # in visiting order: (det index, [(gt index, IOU) if > 0])
    for di in order:
        det = dets[di]
        overlaps = [(gi, v) for gi in gt_by_class.get(det.class_id, [])
                    if (v := iou(det.box, gts[gi][0])) > 0.0]
        table.append((di, overlaps))
    rows = []
    for thr in thresholds:
        flags = [False] * len(dets)
        matched: set[int] = set()
        for di, overlaps in table:
            best_gi, best_iou = -1, 0.0
            for gi, v in overlaps:
                if v > best_iou and gi not in matched:
                    best_gi, best_iou = gi, v
            if best_gi >= 0 and best_iou >= thr:
                matched.add(best_gi)
                flags[di] = True
        rows.append(flags)
    return rows


def match_image(dets, gts, iou_threshold: float):
    """Greedy per-class matching for one image at one threshold.

    ``gts`` is a list of (box, class_id). Returns (counts by class,
    flags) where flags[i] says whether dets[i] is a true positive.
    """
    (flags,) = _match(dets, gts, (iou_threshold,))
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


def ap_from_ranking(flags, n_gt: int):
    """101-point AP of a confidence-ranked TP/FP sequence.

    Returns (ap, pr_points) where pr_points are the raw (recall,
    precision) samples after each ranked detection.
    """
    if n_gt <= 0:
        return 0.0, []
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0.0, []
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    sampled = np.where(idx < len(recall), envelope[np.minimum(idx, len(recall) - 1)], 0.0)
    ap = float(sampled.mean())
    return ap, list(zip(recall.tolist(), precision.tolist()))


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
    gt_classes = sorted({cls for gts in gt_by_image.values()
                         for _, cls in gts})
    n_gt = {cls: sum(1 for gts in gt_by_image.values()
                     for _, c in gts if c == cls) for cls in gt_classes}

    # per GT class: confidences and one flag column per threshold, image
    # by image and in list order within an image
    confs = {cls: [] for cls in gt_classes}
    columns = {cls: [[] for _ in RANGE_THRESHOLDS] for cls in gt_classes}
    for img in image_ids:
        dets = dets_by_image.get(img, [])
        flag_rows = _match(dets, gt_by_image.get(img, []), RANGE_THRESHOLDS)
        for di, det in enumerate(dets):
            if det.class_id in confs:
                confs[det.class_id].append(det.confidence)
                for column, flags in zip(columns[det.class_id], flag_rows):
                    column.append(flags[di])

    per_class, curves = {}, {}
    for cls in gt_classes:
        order = sorted(range(len(confs[cls])), key=lambda i: -confs[cls][i])
        aps = []
        for t, column in enumerate(columns[cls]):
            ap, points = ap_from_ranking([column[i] for i in order], n_gt[cls])
            aps.append(ap)
            if t == 0:   # RANGE_THRESHOLDS[0] is IOU 0.50
                curves[cls] = points
        tp = sum(columns[cls][0])
        p, r = precision_recall(
            ClassCounts(tp, len(order) - tp, n_gt[cls] - tp))
        per_class[cls] = ClassReport(p, r, aps[0], macro_average(aps))
    precision = macro_average(r.precision for r in per_class.values())
    recall = macro_average(r.recall for r in per_class.values())
    return EvalReport(
        classes=tuple(gt_classes), per_class=per_class,
        precision=precision, recall=recall, f1=f1(precision, recall),
        map50=macro_average(r.ap50 for r in per_class.values()),
        map_range=macro_average(r.ap_range for r in per_class.values()),
        pr_curves=curves)
