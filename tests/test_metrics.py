"""Metric correctness, pinned against brute-force oracles.

The AP oracle integrates the exact area under the monotone precision
envelope by summing rectangle strips between consecutive distinct recall
values; it was written first and the 101-point implementation is held to
it within 0.01 on randomized instances. The evaluation oracle matches
every image once per IOU threshold, calling ``iou`` for each pair, and
ranks each class separately; ``evaluate`` must reproduce it exactly.
"""
import numpy as np
import pytest

from yolotla import metrics
from yolotla.metrics import (ClassCounts, ClassReport, EvalReport,
                             ap_from_ranking, evaluate, f1, macro_average,
                             match_image, precision_recall, RANGE_THRESHOLDS)
from yolotla.postprocess import Detection, iou


def brute_force_ap(flags, n_gt):
    """Exact area under the monotone envelope of the P-R step curve."""
    if n_gt <= 0 or not flags:
        return 0.0
    points = []
    tp = fp = 0
    for f in flags:
        tp, fp = tp + bool(f), fp + (not f)
        points.append((tp / n_gt, tp / (tp + fp)))

    def envelope(r):
        vals = [p for rr, p in points if rr >= r]
        return max(vals) if vals else 0.0

    recalls = sorted({r for r, _ in points})
    area, prev = 0.0, 0.0
    for r in recalls:
        area += (r - prev) * envelope(r)
        prev = r
    return area


def reference_match(dets, gts, thr):
    """One threshold's greedy matching, class by class, one IOU per pair."""
    flags = [False] * len(dets)
    classes = {c for _, c in gts} | {d.class_id for d in dets}
    for cls in sorted(classes):
        gt_idx = [gi for gi, (_, c) in enumerate(gts) if c == cls]
        order = sorted((di for di, d in enumerate(dets) if d.class_id == cls),
                       key=lambda di: -dets[di].confidence)
        matched = set()
        for di in order:
            best_gi, best_iou = -1, 0.0
            for gi in gt_idx:
                if gi in matched:
                    continue
                v = iou(dets[di].box, gts[gi][0])
                if v > best_iou:
                    best_gi, best_iou = gi, v
            if best_gi >= 0 and best_iou >= thr:
                matched.add(best_gi)
                flags[di] = True
    return flags


def reference_evaluate(gt_by_image, dets_by_image):
    """evaluate() as one full matching pass per threshold."""
    image_ids = sorted(set(gt_by_image) | set(dets_by_image))
    classes = sorted({c for gts in gt_by_image.values() for _, c in gts})
    n_gt = {cls: sum(c == cls for gts in gt_by_image.values()
                     for _, c in gts) for cls in classes}
    aps = {cls: [] for cls in classes}
    counts, curves = {}, {}
    for thr in RANGE_THRESHOLDS:
        flags = {img: reference_match(dets_by_image.get(img, []),
                                      gt_by_image.get(img, []), thr)
                 for img in image_ids}
        for cls in classes:
            pairs = [(d.confidence, f) for img in image_ids
                     for d, f in zip(dets_by_image.get(img, []), flags[img])
                     if d.class_id == cls]
            pairs.sort(key=lambda t: -t[0])
            ranked = [f for _, f in pairs]
            ap, points = ap_from_ranking(ranked, n_gt[cls])
            aps[cls].append(ap)
            if thr == 0.5:
                tp = sum(ranked)
                counts[cls] = ClassCounts(tp, len(ranked) - tp, n_gt[cls] - tp)
                curves[cls] = points
    per_class = {}
    for cls in classes:
        p, r = precision_recall(counts[cls])
        per_class[cls] = ClassReport(p, r, aps[cls][0],
                                     macro_average(aps[cls]))
    precision = macro_average(r.precision for r in per_class.values())
    recall = macro_average(r.recall for r in per_class.values())
    return EvalReport(
        classes=tuple(classes), per_class=per_class,
        precision=precision, recall=recall, f1=f1(precision, recall),
        map50=macro_average(r.ap50 for r in per_class.values()),
        map_range=macro_average(r.ap_range for r in per_class.values()),
        pr_curves=curves)


def det(box, cls=0, conf=0.9):
    return Detection(box=tuple(box), class_id=cls, confidence=conf)


def gt(box, cls=0):
    return (tuple(box), cls)


class TestMatching:

    def test_perfect_predictions(self):
        gts = [gt((0, 0, 10, 10)), gt((20, 20, 30, 30), cls=1)]
        dets = [det((0, 0, 10, 10)), det((20, 20, 30, 30), cls=1)]
        counts, flags = match_image(dets, gts, 0.5)
        assert flags == [True, True]
        assert counts[0].tp == 1 and counts[0].fp == 0 and counts[0].fn == 0
        assert counts[1].tp == 1 and counts[1].fp == 0 and counts[1].fn == 0

    def test_no_predictions(self):
        counts, flags = match_image([], [gt((0, 0, 10, 10))], 0.5)
        assert flags == []
        assert counts[0].fn == 1 and counts[0].tp == 0
        assert precision_recall(counts[0]) == (0.0, 0.0)

    def test_duplicate_on_one_gt_becomes_fp(self):
        gts = [gt((0, 0, 10, 10)), gt((40, 40, 50, 50))]
        dets = [det((0, 0, 10, 10), conf=0.9),
                det((0, 1, 10, 11), conf=0.8),
                det((40, 40, 50, 50), conf=0.7)]
        counts, flags = match_image(dets, gts, 0.5)
        assert flags == [True, False, True]
        assert (counts[0].tp, counts[0].fp, counts[0].fn) == (2, 1, 0)

    def test_higher_confidence_claims_the_best_gt(self):
        gts = [gt((0, 0, 10, 10))]
        dets = [det((0, 2, 10, 12), conf=0.5),
                det((0, 0, 10, 10), conf=0.9)]
        counts, flags = match_image(dets, gts, 0.5)
        assert flags == [False, True]

    def test_wrong_class_never_matches(self):
        counts, flags = match_image([det((0, 0, 10, 10), cls=1)],
                                    [gt((0, 0, 10, 10), cls=0)], 0.5)
        assert flags == [False]
        assert counts[0].fn == 1 and counts[1].fp == 1

    def test_equal_iou_tie_goes_to_the_lower_gt_index(self):
        # the first detection has IOU 2/3 with both ground truths; the
        # second reaches 2/3 only with the second one (1/4 with the first)
        gts = [gt((0, 0, 10, 10)), gt((4, 0, 14, 10))]
        dets = [det((2, 0, 12, 10), conf=0.9), det((6, 0, 16, 10), conf=0.8)]
        assert iou(dets[0].box, gts[0][0]) == iou(dets[0].box, gts[1][0])
        counts, flags = match_image(dets, gts, 0.5)
        assert flags == [True, True]
        assert (counts[0].tp, counts[0].fp, counts[0].fn) == (2, 0, 0)
        rep = evaluate({1: gts}, {1: dets})
        assert rep.per_class[0].precision == rep.per_class[0].recall == 1.0
        assert rep.map50 == pytest.approx(1.0)


class TestScalarMetrics:

    def test_precision_recall_balanced(self):
        assert precision_recall(ClassCounts(5, 5, 5)) == (0.5, 0.5)

    def test_zero_over_zero_is_zero(self):
        assert precision_recall(ClassCounts(0, 0, 0)) == (0.0, 0.0)

    def test_macro_average(self):
        assert macro_average([0.6, 0.8]) == pytest.approx(0.7)
        assert macro_average([]) == 0.0

    def test_f1_reference_pairs(self):
        assert f1(0.677, 0.503) == pytest.approx(0.577, abs=1e-3)
        assert f1(0.712, 0.573) == pytest.approx(0.635, abs=1e-3)

    def test_f1_degenerate_and_symmetric_cases(self):
        assert f1(0.0, 0.0) == 0.0
        for p in (0.1, 0.5, 0.9):
            assert f1(p, p) == pytest.approx(p)

    def test_tn_not_applicable(self):
        assert ClassCounts.TN == "n/a"


class TestAveragePrecision:

    def test_perfect_ranking(self):
        ap, _ = ap_from_ranking([True, True, True], n_gt=3)
        assert ap == pytest.approx(1.0)

    def test_worked_example(self):
        # 2 GT, ranked TP, FP, TP: envelope 1.0 up to R=0.5, then 2/3
        ap, points = ap_from_ranking([True, False, True], n_gt=2)
        assert ap == pytest.approx((51 * 1.0 + 50 * (2 / 3)) / 101, abs=1e-9)
        assert points[0] == pytest.approx((0.5, 1.0))
        assert points[2] == pytest.approx((1.0, 2 / 3))

    def test_all_misses(self):
        ap, _ = ap_from_ranking([False, False], n_gt=2)
        assert ap == 0.0

    def test_no_ground_truth(self):
        assert ap_from_ranking([True], n_gt=0) == (0.0, [])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            n_gt = int(rng.integers(1, 8))
            n_det = int(rng.integers(1, 20))
            flags = rng.uniform(size=n_det) < 0.5
            if flags.sum() > n_gt:   # cannot have more TP than GT
                continue
            ap, _ = ap_from_ranking(flags.tolist(), n_gt)
            assert abs(ap - brute_force_ap(flags.tolist(), n_gt)) < 0.01
            checked += 1

    def test_duplicate_injection_never_raises_ap(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n_gt = int(rng.integers(2, 6))
            flags = (rng.uniform(size=10) < 0.4).tolist()
            while sum(flags) > n_gt:
                flags[flags.index(True)] = False
            base, _ = ap_from_ranking(flags, n_gt)
            # a duplicate of an existing detection can never be a second TP;
            # it lands as an FP somewhere in the ranking
            for pos in range(len(flags) + 1):
                injected = flags[:pos] + [False] + flags[pos:]
                ap, _ = ap_from_ranking(injected, n_gt)
                assert ap <= base + 1e-12


def two_class_instance():
    gts = {
        1: [gt((0, 0, 10, 10), 0), gt((30, 30, 50, 50), 0),
            gt((5, 60, 25, 80), 1)],
        2: [gt((10, 10, 20, 20), 1)],
    }
    dets = {
        1: [det((0, 0, 10, 10), 0, 0.95),        # TP
            det((31, 30, 50, 51), 0, 0.80),      # TP
            det((1, 1, 11, 11), 0, 0.60),        # duplicate -> FP
            det((5, 61, 25, 81), 1, 0.70)],      # TP
        2: [det((40, 40, 60, 60), 1, 0.55)],     # FP
    }
    return gts, dets


class TestEvaluate:

    def test_report_fields_consistent(self):
        gts, dets = two_class_instance()
        rep = evaluate(gts, dets)
        assert rep.classes == (0, 1)
        assert rep.f1 == pytest.approx(f1(rep.precision, rep.recall))
        assert rep.map_range <= rep.map50 + 1e-12
        for r in rep.per_class.values():
            for v in (r.precision, r.recall, r.ap50, r.ap_range):
                assert 0.0 <= v <= 1.0
        d = rep.to_dict()
        assert d["true_negatives"] == "n/a"
        assert set(d["per_class"]) == {"0", "1"}

    def test_hand_counted_class_zero(self):
        gts, dets = two_class_instance()
        rep = evaluate(gts, dets)
        # class 0 at IOU 0.5: 2 TP, 1 FP, 0 FN
        assert rep.per_class[0].precision == pytest.approx(2 / 3)
        assert rep.per_class[0].recall == pytest.approx(1.0)
        # class 1: 1 TP, 1 FP, 1 FN
        assert rep.per_class[1].precision == pytest.approx(0.5)
        assert rep.per_class[1].recall == pytest.approx(0.5)
        assert rep.precision == pytest.approx((2 / 3 + 0.5) / 2)

    def test_perfect_predictions_score_one(self):
        gts, _ = two_class_instance()
        dets = {img: [det(box, cls, 0.9) for box, cls in rows]
                for img, rows in gts.items()}
        rep = evaluate(gts, dets)
        assert rep.map50 == pytest.approx(1.0)
        assert rep.map_range == pytest.approx(1.0)
        assert rep.f1 == pytest.approx(1.0)

    def test_classes_missing_from_gt_excluded(self):
        gts = {1: [gt((0, 0, 10, 10), 0)]}
        dets = {1: [det((0, 0, 10, 10), 0, 0.9),
                    det((20, 20, 30, 30), 7, 0.8)]}
        rep = evaluate(gts, dets)
        assert rep.classes == (0,)
        assert 7 not in rep.per_class

    def test_pr_curve_samples_present(self):
        gts, dets = two_class_instance()
        rep = evaluate(gts, dets)
        assert set(rep.pr_curves) == {0, 1}
        for points in rep.pr_curves.values():
            assert all(0 <= r <= 1 and 0 <= p <= 1 for r, p in points)


class TestThresholdMonotonicity:

    def test_tp_and_ap_never_rise_with_threshold(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            gts, dets = {}, {}
            for img in range(3):
                rows, drows = [], []
                for _ in range(int(rng.integers(1, 6))):
                    x, y = rng.uniform(0, 60, 2)
                    w, h = rng.uniform(5, 25, 2)
                    rows.append(gt((x, y, x + w, y + h),
                                   int(rng.integers(2))))
                for box, cls in rows:
                    if rng.uniform() < 0.8:
                        jx, jy = rng.uniform(-4, 4, 2)
                        drows.append(det((box[0] + jx, box[1] + jy,
                                          box[2] + jx, box[3] + jy), cls,
                                         float(rng.uniform(0.3, 1))))
                for _ in range(int(rng.integers(0, 3))):
                    x, y = rng.uniform(0, 60, 2)
                    drows.append(det((x, y, x + 10, y + 10),
                                     int(rng.integers(2)),
                                     float(rng.uniform(0.3, 1))))
                gts[img], dets[img] = rows, drows
            prev_tp, prev_map = None, None
            for thr in RANGE_THRESHOLDS:
                tp = sum(c.tp for img in gts
                         for c in match_image(dets[img], gts[img],
                                              thr)[0].values())
                if prev_tp is not None:
                    assert tp <= prev_tp
                prev_tp = tp
            rep = evaluate(gts, dets)
            assert rep.map_range <= rep.map50 + 1e-12


def random_eval_set(rng, n_images=12):
    """Integer boxes in three GT classes plus a detection-only class 3.

    Confidences come from a short list, so ties are common; some ground
    truths get a twin shifted by 4 px and a detection centred between the
    two, at equal IOU to both. Images alternate between holding both
    sides, ground truth only and detections only.
    """
    gts, dets = {}, {}
    for img in range(n_images):
        rows, drows = [], []
        for _ in range(int(rng.integers(1, 7))):
            x, y = (int(v) for v in rng.integers(0, 40, 2))
            w, h = (int(v) for v in rng.integers(5, 16, 2))
            cls = int(rng.integers(3))
            rows.append(gt((x, y, x + w, y + h), cls))
            conf = float(rng.choice([0.3, 0.5, 0.9]))
            if rng.uniform() < 0.3:
                rows.append(gt((x + 4, y, x + w + 4, y + h), cls))
                drows.append(det((x + 2, y, x + w + 2, y + h), cls, conf))
            elif rng.uniform() < 0.8:
                jx, jy = (int(v) for v in rng.integers(-3, 4, 2))
                drows.append(det((x + jx, y + jy, x + w + jx, y + h + jy),
                                 cls, conf))
        for _ in range(int(rng.integers(0, 4))):
            x, y = (int(v) for v in rng.integers(0, 40, 2))
            drows.append(det((x, y, x + 10, y + 10), int(rng.integers(4)),
                             float(rng.choice([0.3, 0.5, 0.9]))))
        if img % 3 != 2:
            gts[img] = rows
        if img % 3 != 1:
            dets[img] = drows
    return gts, dets


class TestAgainstReferenceEvaluate:

    def test_report_and_curves_match_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            gts, dets = random_eval_set(rng)
            rep, ref = evaluate(gts, dets), reference_evaluate(gts, dets)
            assert rep.to_dict() == ref.to_dict()
            assert rep.pr_curves == ref.pr_curves

    def test_match_image_flags_match_exactly(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            gts, dets = random_eval_set(rng)
            for img in set(gts) & set(dets):
                for thr in RANGE_THRESHOLDS:
                    _, flags = match_image(dets[img], gts[img], thr)
                    assert flags == reference_match(dets[img], gts[img], thr)

    def test_iou_computed_once_per_same_class_pair(self, monkeypatch):
        calls = []

        def counting_iou(a, b):
            calls.append((a, b))
            return iou(a, b)

        monkeypatch.setattr(metrics, "iou", counting_iou)
        gts, dets = random_eval_set(np.random.default_rng(31), n_images=30)
        pairs = sum(1 for img in set(gts) & set(dets)
                    for d in dets[img] for _, c in gts[img]
                    if c == d.class_id)
        evaluate(gts, dets)
        assert 0 < len(calls) <= pairs
