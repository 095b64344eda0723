"""Decode, IOU, and NMS behavior, including the analytic zero-logit case."""
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yolotla import postprocess
from yolotla.data import letterbox
from yolotla.errors import ShapeError, YoloTlaError
from yolotla.graph import build_model, find_config
from yolotla.postprocess import (DEFAULT_IOU_THRESHOLD, Detection, _iou,
                                 _overlap, decode, iou, nms, results_json,
                                 to_coco_results)
from yolotla.tensor import Tensor, sigmoid64


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


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def raw_map(nc, h, w, fill=0.0):
    return np.full((1, 3 * (5 + nc), h, w), fill, dtype=np.float32)


ANCHORS = [np.array([(10.0, 12.0), (20.0, 19.0), (17.0, 42.0)])]


def decode_reference(maps, anchors, strides, conf_threshold=0.25):
    """Full-map decode, every gate of every cell in float64: the oracle
    that `decode` must equal. Takes well-formed maps only."""
    (img_h, img_w), = {(m.h * s, m.w * s) for m, s in zip(maps, strides)}
    out = []
    for si, (fmap, stride) in enumerate(zip(maps, strides)):
        _, c, h, w = fmap.shape
        per = c // 3
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


class TestIou:

    def test_identical(self):
        assert iou((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_hand_case(self):
        # overlap area 1, union 4 + 4 - 1 = 7
        assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_symmetric_and_translation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a = np.sort(rng.uniform(0, 50, 4)).tolist()
            b = np.sort(rng.uniform(0, 50, 4)).tolist()
            ba = (a[0], a[2], a[1], a[3])
            bb = (b[0], b[2], b[1], b[3])
            assert iou(ba, bb) == pytest.approx(iou(bb, ba))
            shift = lambda t: (t[0] + 7, t[1] - 3, t[2] + 7, t[3] - 3)
            assert iou(shift(ba), shift(bb)) == pytest.approx(iou(ba, bb))

    def test_degenerate_is_zero(self):
        assert iou((2, 2, 2, 5), (0, 0, 4, 4)) == 0.0
        assert iou((1, 1, 1, 1), (1, 1, 1, 1)) == 0.0


# Integers, the quarter grid and huge values whose products overflow.
COORDS = st.one_of(st.integers(-6, 6).map(float),
                   st.integers(-24, 24).map(lambda v: v / 4),
                   st.sampled_from([-3e200, -1e200, 1e200, 2e200]))


@st.composite
def box_pairs(draw):
    """A box and a second box that is free, identical, inside it, shares an
    edge with it or is disjoint from it in y only."""
    def span():
        return sorted(draw(COORDS) for _ in range(2))
    (x1, x2), (y1, y2) = span(), span()
    kind = draw(st.sampled_from(["free", "same", "inside", "edge", "y-gap"]))
    if kind == "free":
        (bx1, bx2), (by1, by2) = span(), span()
    elif kind == "same":
        bx1, by1, bx2, by2 = x1, y1, x2, y2
    elif kind == "inside":
        bx1, bx2 = sorted(draw(st.floats(x1, x2)) for _ in range(2))
        by1, by2 = y1, y2
    elif kind == "edge":   # starting where a ends in x, or where it starts
        bx1 = draw(st.sampled_from([x1, x2]))
        bx2, by1, by2 = max(bx1, draw(COORDS)), y1, y2
    else:                  # a's x-range, apart from a in y
        bx1, bx2 = x1, x2
        by1 = y2 + draw(st.sampled_from([0.0, 0.25, 1.0, 3.0]))
        by2 = by1 + abs(draw(COORDS))
    return (x1, y1, x2, y2), (bx1, by1, bx2, by2)


def kernel_iou(a, b):
    """`_iou` of row-aligned (n, 4) box arrays through `_overlap`."""
    def area(box):
        return (box[:, 2] - box[:, 0]) * (box[:, 3] - box[:, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        return _iou(_overlap(a[:, 0], a[:, 2], b[:, 0], b[:, 2]),
                    _overlap(a[:, 1], a[:, 3], b[:, 1], b[:, 3]),
                    area(a), area(b))


class TestIouKernel:
    """`_iou`, the one vectorized IOU behind `nms`, `evaluate` and anchor
    fitting, must equal `iou` bit for bit under either argument order."""

    @settings(max_examples=300)
    @given(pairs=st.lists(box_pairs(), min_size=1, max_size=20))
    @example(pairs=[((-1e200, -1e200, 1e200, 1e200),) * 2])   # union NaN
    @example(pairs=[((0.0, 0.0, 2.0, 2.0), (0.0, 3.0, 2.0, 5.0))])   # ih < 0
    def test_equals_iou(self, pairs):
        a = np.array([p for p, _ in pairs], dtype=np.float64)
        b = np.array([q for _, q in pairs], dtype=np.float64)
        want = np.array([iou(p, q) for p, q in pairs])
        for got in (kernel_iou(a, b), kernel_iou(b, a)):
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestDecode:

    def test_zero_logits_analytic(self):
        # every gate sits at 0.5: center (g+0.5)*stride, size = anchor,
        # confidence 0.5 * 0.5 = 0.25 exactly
        maps = [Tensor(raw_map(nc=3, h=2, w=2))]
        dets = decode(maps, ANCHORS, [32], conf_threshold=0.2)
        assert len(dets) == 12   # 3 anchors x 4 cells
        for d in dets:
            assert d.confidence == pytest.approx(0.25, abs=1e-9)
        first = [d for d in dets if d.box[0] > 0 and d.box[1] > 0]
        d = dets[0]   # anchor 0, cell (0, 0): center (16, 16), size 10x12
        assert d.box == pytest.approx((11.0, 10.0, 21.0, 22.0))

    def test_threshold_one_empties(self):
        maps = [Tensor(raw_map(nc=3, h=2, w=2))]
        assert decode(maps, ANCHORS, [32], conf_threshold=1.0) == []

    def test_crafted_cell_recovers_box(self):
        # invert the decode equations for a known target box
        target_cx, target_cy, target_w, target_h = 40.0, 37.0, 30.0, 14.0
        stride, gx, gy, anchor_idx = 8, 5, 4, 1   # anchor (20, 19)
        arr = raw_map(nc=3, h=8, w=8, fill=-12.0)
        per = 8
        base = anchor_idx * per
        arr[0, base + 0, gy, gx] = logit((target_cx / stride - gx + 0.5) / 2)
        arr[0, base + 1, gy, gx] = logit((target_cy / stride - gy + 0.5) / 2)
        arr[0, base + 2, gy, gx] = logit(math.sqrt(target_w / 20.0) / 2)
        arr[0, base + 3, gy, gx] = logit(math.sqrt(target_h / 19.0) / 2)
        arr[0, base + 4, gy, gx] = 5.0
        arr[0, base + 5 + 2, gy, gx] = 4.0
        dets = decode([Tensor(arr)], ANCHORS, [stride])
        assert len(dets) == 1
        d = dets[0]
        assert d.class_id == 2
        want = (target_cx - target_w / 2, target_cy - target_h / 2,
                target_cx + target_w / 2, target_cy + target_h / 2)
        for got, expect in zip(d.box, want):
            assert abs(got - expect) < 0.5
        assert d.confidence == pytest.approx(
            (1 / (1 + math.exp(-5.0))) * (1 / (1 + math.exp(-4.0))), rel=1e-6)

    def test_boxes_clipped_to_image(self):
        maps = [Tensor(raw_map(nc=3, h=2, w=2))]
        dets = decode(maps, ANCHORS, [8], conf_threshold=0.2)
        for d in dets:
            assert 0 <= d.box[0] <= d.box[2] <= 16
            assert 0 <= d.box[1] <= d.box[3] <= 16

    def test_channel_mismatch_rejected(self):
        bad = Tensor(np.zeros((1, 25, 2, 2), np.float32))
        with pytest.raises(ShapeError, match="25 channels"):
            decode([bad], ANCHORS, [32])

    @pytest.mark.parametrize("shape, message", [
        ((2, 24, 2, 2), "decode expects batch 1, got 2"),
        ((1, 15, 2, 2), r"15 channels, too few for 3\*\(5\+classes\)"),
    ], ids=["batch-2", "no-classes"])
    def test_map_shape_rejected(self, shape, message):
        with pytest.raises(ShapeError, match=message):
            decode([Tensor(np.zeros(shape, np.float32))], ANCHORS, [32])

    def test_count_mismatch_rejected(self):
        maps = [Tensor(raw_map(3, 2, 2))]
        with pytest.raises(ShapeError, match="1 maps, 2 anchor rows and 1 "
                           "strides do not line up"):
            decode(maps, ANCHORS * 2, [32])

    def test_inconsistent_scales_rejected(self):
        maps = [Tensor(raw_map(3, 4, 4)), Tensor(raw_map(3, 2, 2))]
        anchors = [ANCHORS[0], ANCHORS[0]]
        with pytest.raises(ShapeError, match="image size"):
            decode(maps, anchors, [8, 32])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_map_rejected(self, value):
        arr = raw_map(3, 2, 2)
        arr[0, 9, 1, 0] = value
        maps = [Tensor(raw_map(3, 4, 4)), Tensor(arr)]
        with pytest.raises(YoloTlaError, match="head map 1 holds non-finite"):
            decode(maps, [ANCHORS[0], ANCHORS[0]], [8, 16])

    def test_fields_are_python_scalars(self):
        maps = [Tensor(raw_map(3, 2, 2))]
        for d in decode(maps, ANCHORS, [32], conf_threshold=0.2):
            assert all(type(v) is float for v in d.box)
            assert type(d.class_id) is int
            assert type(d.confidence) is float

    def test_multi_scale_decode(self):
        maps = [Tensor(raw_map(3, 4, 4)), Tensor(raw_map(3, 2, 2))]
        anchors = [ANCHORS[0], 2 * ANCHORS[0]]
        dets = decode(maps, anchors, [8, 16], conf_threshold=0.2)
        assert len(dets) == 3 * 16 + 3 * 4


F32_MAX = float(np.finfo(np.float32).max)


@st.composite
def head_maps(draw):
    """One to three scales of float32 logits, from gentle to far past the
    point where `sigmoid64` rounds to 1 and its exp overflows float64, up
    to +-float32 max, sometimes with the best class logit repeated near
    40, where the class scores tie after rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nc = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([0.01, 0.5, 3.0, 12.0, 60.0, 1e3, 1e38]))
    side = 16 * draw(st.integers(1, 3))
    strides = draw(st.sampled_from([[8], [16], [4, 8], [4, 8, 16]]))
    maps = []
    for stride in strides:
        arr = np.clip(rng.standard_normal((1, 3 * (5 + nc), side // stride,
                                            side // stride)) * scale,
                      -F32_MAX, F32_MAX).astype(np.float32)
        if nc > 1 and draw(st.booleans()):
            cls = arr.reshape(3, 5 + nc, -1)[:, 5:]
            cls[:, :2] = np.float32(40) + rng.integers(
                0, 3, cls[:, :2].shape).astype(np.float32) / 8
        maps.append(Tensor(arr))
    anchors = [np.array([(10.0, 12.0), (20.0, 19.0), (17.0, 42.0)]) * s
               for s in strides]
    return maps, anchors, strides


class TestDecodeAgainstReference:
    """`decode` must return exactly what the full-map decode returns: the
    same boxes, classes and confidences in the same order."""

    @settings(max_examples=100)
    @given(case=head_maps(), thr=st.floats(0.0, 1.0), pick=st.integers(0))
    def test_equals_reference(self, case, thr, pick):
        maps, anchors, strides = case
        every = decode_reference(maps, anchors, strides, -1.0)
        occurring = every[pick % len(every)].confidence
        for t in (0.0, 1.0, -1.0, math.nan, thr, occurring, 0.25, 0.5):
            got = decode(maps, anchors, strides, t)
            want = decode_reference(maps, anchors, strides, t)
            assert got == want
            assert [type(d.class_id) for d in got] == [int] * len(got)


class TestDecodeChunks:
    """`decode` scores its selected cells in chunks sized by `BAND_BYTES`."""

    @settings(max_examples=50)
    @given(case=head_maps(), band=st.integers(0, 400))
    def test_any_chunk_size_equals_reference(self, case, band):
        # at most 400 bytes: chunks of 1 to 50 cells, against up to 432
        # cells on a scale, so most scales are cut into several chunks
        maps, anchors, strides = case
        want = decode_reference(maps, anchors, strides, 0.25)
        with mock.patch.object(postprocess, "BAND_BYTES", band):
            assert decode(maps, anchors, strides, 0.25) == want

    def test_peak_is_bounded(self):
        # seed-0 yolo-tla-s at 256 passes all 16,320 cells; decode peaked at
        # 20.1 MB scoring every class of them at once, 8.5 MB in chunks,
        # of which the returned list holds 4.8 MB
        rng = np.random.default_rng(3)
        img = Tensor(rng.uniform(0, 1, (1, 3, 48, 64)).astype(np.float32))
        model = build_model(find_config("yolo-tla-s"), seed=0)
        boxed, _, _ = letterbox(img, target=256)
        maps = model.forward(boxed)
        tracemalloc.start()
        try:
            cands = decode(maps, model.anchors, model.strides)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cands) == 16320
        assert peak < 12e6


def det(x1, y1, x2, y2, cls=0, conf=0.9):
    return Detection(box=(x1, y1, x2, y2), class_id=cls, confidence=conf)


class TestNms:

    def test_single_kept(self):
        d = det(0, 0, 10, 10)
        assert nms([d]) == [d]

    def test_same_class_overlap_suppressed(self):
        # inter 75, union 125: IOU 0.6 > 0.45
        a = det(0, 0, 10, 10, conf=0.9)
        b = det(0, 2.5, 10, 12.5, conf=0.8)
        assert iou(a.box, b.box) == pytest.approx(0.6)
        assert nms([b, a], iou_threshold=0.45) == [a]

    def test_boundary_iou_kept(self):
        a = det(0, 0, 10, 10, conf=0.9)
        b = det(0, 2.5, 10, 12.5, conf=0.8)
        assert nms([a, b], iou_threshold=0.6) == [a, b]

    def test_different_classes_both_kept(self):
        a = det(0, 0, 10, 10, cls=0, conf=0.9)
        b = det(0, 2.5, 10, 12.5, cls=1, conf=0.8)
        assert nms([b, a]) == [a, b]

    def test_output_subset_and_sorted(self):
        rng = np.random.default_rng(3)
        dets = []
        for _ in range(60):
            x, y = rng.uniform(0, 80, 2)
            w, h = rng.uniform(4, 30, 2)
            dets.append(det(x, y, x + w, y + h, cls=int(rng.integers(3)),
                            conf=float(rng.uniform(0.1, 1.0))))
        out = nms(dets, iou_threshold=0.5)
        assert set(out) <= set(dets)
        confs = [d.confidence for d in out]
        assert confs == sorted(confs, reverse=True)

    def test_no_retained_same_class_pair_overlaps(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            dets = []
            for _ in range(40):
                x, y = rng.uniform(0, 60, 2)
                w, h = rng.uniform(5, 25, 2)
                dets.append(det(x, y, x + w, y + h,
                                cls=int(rng.integers(2)),
                                conf=float(rng.uniform(0.1, 1.0))))
            out = nms(dets, iou_threshold=0.45)
            for i, a in enumerate(out):
                for b in out[i + 1:]:
                    if a.class_id == b.class_id:
                        assert iou(a.box, b.box) <= 0.45

    def test_tie_break_is_deterministic(self):
        a = det(5, 5, 10, 10, cls=1, conf=0.7)
        b = det(0, 0, 4, 4, cls=0, conf=0.7)
        assert nms([a, b]) == [b, a]
        assert nms([b, a]) == [b, a]


# Coordinates on a quarter-pixel grid of a 16x16 image: sums, products and
# differences stay exact, so IOUs land exactly on thresholds like 1/2 or
# 1/3 (fl(a/b) on both sides), and x1 == x2 gives zero-area boxes.
GRID = st.integers(-2, 66).map(lambda v: min(max(v, 0), 64) / 4)
THRESHOLDS = st.sampled_from([0.0, 0.25, 1 / 3, 0.45, 0.5, 0.6, 1.0, -0.5])


@st.composite
def detection_sets(draw):
    n_classes = draw(st.sampled_from([1, 1, 2, 3, 12]))
    confs = draw(st.sampled_from([[0.5], [0.3, 0.6, 0.9], None]))
    conf = (st.sampled_from(confs) if confs
            else st.floats(0.01, 1.0, allow_nan=False))
    out = []
    for _ in range(draw(st.integers(0, 60))):
        if out and draw(st.integers(0, 5)) == 0:   # an exact duplicate
            out.append(draw(st.sampled_from(out)))
            continue
        xa, xb, ya, yb = (draw(GRID) for _ in range(4))
        out.append(det(min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb),
                       cls=draw(st.integers(0, n_classes - 1)),
                       conf=draw(conf)))
    return out


class TestNmsAgainstReference:
    """`nms` must return exactly the list the pairwise loop returns."""

    @settings(max_examples=150)
    @given(dets=detection_sets(), thr=THRESHOLDS, data=st.data())
    @example(dets=[], thr=0.45, data=None)
    def test_equals_reference(self, dets, thr, data):
        if data is not None and len(dets) >= 2 and data.draw(st.booleans()):
            # a threshold equal to an IOU that occurs in the set
            i, j = (data.draw(st.integers(0, len(dets) - 1))
                    for _ in range(2))
            thr = iou(dets[i].box, dets[j].box)
        got = nms(dets, thr)
        want = nms_reference(dets, thr)
        assert got == want
        assert all(a is b for a, b in zip(got, want))

    def test_threshold_ties_at_an_exact_iou(self):
        # inter 16, union 32: IOU exactly 1/2 under either argument order
        a = det(0, 0, 6, 4, conf=0.9)
        b = det(2, 0, 8, 4, conf=0.8)
        c = det(0, 0, 6, 4, conf=0.7)   # a's twin
        dets = [c, b, a]
        assert nms(dets, 0.5) == nms_reference(dets, 0.5) == [a, b]
        assert nms(dets, 0.49) == nms_reference(dets, 0.49) == [a]

    def test_many_classes_interleaved(self):
        rng = np.random.default_rng(8)
        dets = []
        for _ in range(600):
            x, y = rng.uniform(0, 60, 2).tolist()
            w, h = rng.uniform(2, 30, 2).tolist()
            dets.append(det(x, y, x + w, y + h, cls=int(rng.integers(40)),
                            conf=float(rng.uniform())))
        for thr in (0.3, 0.45, 0.7):
            assert nms(dets, thr) == nms_reference(dets, thr)

    def test_yolo_tla_s_decoder_output(self):
        """Every one of the 4,080 anchor cells of a seeded yolo-tla-s at 128
        passes the threshold, so the real box layout reaches the window."""
        rng = np.random.default_rng(3)
        img = Tensor(rng.uniform(0, 1, (1, 3, 48, 64)).astype(np.float32))
        model = build_model(find_config("yolo-tla-s"), seed=0)
        boxed, _, _ = letterbox(img, target=128)
        cands = decode(model.forward(boxed), model.anchors, model.strides)
        assert len(cands) == 4080
        shuffled = [cands[i] for i in rng.permutation(len(cands))]
        for dets in (cands, shuffled):
            got = nms(dets)
            assert got == nms_reference(dets)
        assert 0 < len(got) < len(cands)


@st.composite
def crowded_sets(draw):
    """65 to 400 boxes in 1 to 3 classes on the quarter-pixel grid: enough
    kept boxes per class to fill several NMS blocks and to shrink the
    window arrays, with duplicates and zero-area boxes mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(65, 400))
    n_classes = draw(st.integers(1, 3))
    side = draw(st.sampled_from([2, 8, 24, 64]))   # largest size, in quarters
    lo = rng.integers(0, 65, (n, 2))
    hi = np.minimum(lo + rng.integers(0, side + 1, (n, 2)), 64)
    ties = draw(st.booleans())
    out = []
    for i in range(n):
        if out and rng.integers(8) == 0:   # an exact duplicate
            out.append(out[rng.integers(len(out))])
            continue
        conf = (float(rng.integers(1, 4)) / 4 if ties
                else float(rng.uniform(0.01, 1.0)))
        out.append(det(lo[i, 0] / 4, lo[i, 1] / 4, hi[i, 0] / 4,
                       hi[i, 1] / 4, cls=int(rng.integers(n_classes)),
                       conf=conf))
    return out


class TestNmsAcrossBlocks:
    """Sets large enough for several blocks, where `nms` must still return
    exactly the pairwise loop's objects."""

    @settings(max_examples=150)
    @given(dets=crowded_sets(),
           thr=st.sampled_from([0.0, 1 / 3, 0.45, 0.5, 1.0, -0.5, None]),
           pair=st.tuples(st.integers(0, 399), st.integers(0, 399)))
    def test_equals_reference(self, dets, thr, pair):
        if thr is None:   # a threshold equal to an IOU that occurs
            i, j = (k % len(dets) for k in pair)
            thr = iou(dets[i].box, dets[j].box)
        got = nms(dets, thr)
        want = nms_reference(dets, thr)
        assert got == want
        assert all(a is b for a, b in zip(got, want))


class TestCocoSerialization:

    def test_xywh_conversion(self):
        rows = to_coco_results([det(10, 20, 30, 60, cls=2, conf=0.5)],
                               image_id=7)
        assert rows == [{"image_id": 7, "category_id": 2,
                         "bbox": [10, 20, 20, 40], "score": 0.5}]

    def test_identity_category_mapping(self):
        rows = to_coco_results([det(0, 0, 1, 1, cls=3)], image_id=1)
        assert rows[0]["category_id"] == 3


# finite coordinates whose differences stay finite, ints as a clip to an int
# image edge leaves them, and both zeros
COORDS = (st.floats(-1e300, 1e300) | st.integers(-10**6, 10**6)
          | st.sampled_from([0, 0.0, -0.0, 480, 640, 5e-324, 1e-7]))


class TestResultsJson:
    """`results_json` must write exactly the `json.dumps` bytes of the
    rounded `to_coco_results` rows."""

    @settings(max_examples=200)
    @given(boxes=st.lists(st.tuples(COORDS, COORDS, COORDS, COORDS),
                          max_size=8),
           classes=st.lists(st.integers(0, 79), min_size=8, max_size=8),
           scores=st.lists(st.floats(0.0, 1.0) | COORDS, min_size=8,
                           max_size=8),
           image_id=st.integers(-2**63, 2**63))
    @example(boxes=[], classes=[0] * 8, scores=[0.5] * 8, image_id=0)
    def test_equals_json_dumps(self, boxes, classes, scores, image_id):
        dets = [Detection(box=b, class_id=c, confidence=p)
                for b, c, p in zip(boxes, classes, scores)]
        rows = [{"image_id": r["image_id"], "category_id": r["category_id"],
                 "bbox": [round(v, 3) for v in r["bbox"]],
                 "score": round(r["score"], 6)}
                for r in to_coco_results(dets, image_id)]
        assert results_json(dets, image_id) == json.dumps(
            rows, sort_keys=True, indent=2)
