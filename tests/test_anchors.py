"""Anchor fitting and scale assignment."""
import numpy as np
import pytest

from yolotla.anchors import (AnchorSet, _distances, assign_to_scales,
                             fit_anchors)
from yolotla.errors import ConfigError


def iou_wh(a, b) -> float:
    """IOU of two (w, h) boxes sharing a center."""
    aw, ah = float(a[0]), float(a[1])
    bw, bh = float(b[0]), float(b[1])
    inter = min(aw, bw) * min(ah, bh)
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


# the 12-anchor reference layout used by the four-scale configs
TABLE_ANCHORS = [
    (9, 12), (20, 19), (17, 42),
    (43, 26), (36, 56), (76, 52),
    (49, 121), (108, 102), (111, 121),
    (231, 138), (230, 325), (479, 372),
]
TABLE_ROWS = {
    160: ((9.0, 12.0), (20.0, 19.0), (17.0, 42.0)),
    80: ((43.0, 26.0), (36.0, 56.0), (76.0, 52.0)),
    40: ((49.0, 121.0), (108.0, 102.0), (111.0, 121.0)),
    20: ((231.0, 138.0), (230.0, 325.0), (479.0, 372.0)),
}


class TestIouWh:

    def test_identical(self):
        assert iou_wh((10, 20), (10, 20)) == 1.0

    def test_nested(self):
        # 10x10 inside 20x20 sharing a center: 100 / 400
        assert iou_wh((10, 10), (20, 20)) == pytest.approx(0.25)

    def test_scale_invariance(self):
        a = iou_wh((10, 10), (20, 20))
        b = iou_wh((100, 100), (200, 200))
        assert a == pytest.approx(b)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.uniform(1, 100, 2), rng.uniform(1, 100, 2)
            assert iou_wh(a, b) == pytest.approx(iou_wh(b, a))

    @pytest.mark.parametrize("seed", range(6))
    def test_is_the_oracle_of_distances(self, seed):
        """`_distances` equals 1 - `iou_wh` bit for bit, repeated sizes
        and centroids equal to boxes included."""
        rng = np.random.default_rng(seed)
        sizes = np.concatenate([rng.uniform(0.5, 400, (40, 2)),
                                rng.integers(1, 30, (40, 2))])
        boxes = sizes[rng.integers(len(sizes), size=120)]
        centroids = np.concatenate([boxes[:5], rng.uniform(1, 300, (7, 2))])
        want = [[1.0 - iou_wh(b, c) for c in centroids] for b in boxes]
        assert np.array_equal(_distances(boxes, centroids), want)


class TestFitAnchors:

    def test_distinct_sizes_equal_k_is_a_fixpoint(self):
        boxes = np.array(TABLE_ANCHORS, dtype=np.float64)
        out = fit_anchors(boxes, k=12, seed=0)
        assert sorted(map(tuple, out)) == sorted(map(tuple, boxes))

    def test_three_synthetic_clusters_recovered(self):
        rng = np.random.default_rng(7)
        means = np.array([(10, 12), (60, 50), (230, 140)], dtype=np.float64)
        samples = np.concatenate([
            rng.normal(m, m * 0.05, size=(300, 2)) for m in means])
        samples = np.clip(samples, 1.0, None)
        out = fit_anchors(samples, k=3, seed=0)
        for m, c in zip(means, out):   # both area-ascending
            assert np.all(np.abs(c - m) / m < 0.10), (m, c)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        boxes = rng.uniform(2, 300, size=(200, 2))
        a = fit_anchors(boxes, k=9, seed=3)
        b = fit_anchors(boxes, k=9, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_can_change_result(self):
        rng = np.random.default_rng(2)
        boxes = rng.uniform(2, 300, size=(50, 2))
        outs = {fit_anchors(boxes, k=5, seed=s).tobytes() for s in range(6)}
        assert len(outs) >= 1   # often >1; determinism per seed is the claim

    def test_objective_never_increases(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            boxes = rng.uniform(2, 400, size=(120, 2))
            trace: list[float] = []
            fit_anchors(boxes, k=6, seed=trial, trace=trace)
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])), trace

    def test_output_sorted_by_area(self):
        rng = np.random.default_rng(9)
        boxes = rng.uniform(2, 300, size=(80, 2))
        out = fit_anchors(boxes, k=6, seed=0)
        areas = out[:, 0] * out[:, 1]
        assert np.all(np.diff(areas) >= 0)

    def test_zero_weight_seeding_and_empty_cluster(self):
        # 1 - IOU of the two near-equal sizes rounds to 0: once both the
        # small box and one of them are chosen, every k-means++ weight is 0,
        # so the first unchosen index is taken; both then tie for the first
        # centroid, the other cluster is empty and is reseeded
        boxes = [(100.0, 100.0), (100.0, np.nextafter(100.0, 200.0)),
                 (30.0, 40.0)]
        trace: list[float] = []
        out = fit_anchors(boxes, k=3, seed=0, trace=trace)
        assert out.tolist() == [[30.0, 40.0], [100.0, 100.0], [100.0, 100.0]]
        assert trace == [0.0, 0.0]

    def test_k_exceeding_distinct_rejected(self):
        boxes = [(10, 10)] * 50 + [(20, 20)] * 50
        with pytest.raises(ConfigError, match="2 distinct"):
            fit_anchors(boxes, k=3)

    def test_degenerate_boxes_counted(self):
        boxes = [(10, 10), (0, 5), (5, -1), (8, 8)]
        with pytest.raises(ConfigError, match="2 box"):
            fit_anchors(boxes, k=2)

    def test_one_anchor_accepted(self):
        rng = np.random.default_rng(6)
        trace: list[float] = []
        out = fit_anchors(rng.uniform(2, 300, size=(40, 2)), k=1, seed=0,
                          trace=trace)
        assert out.shape == (1, 2)
        assert all(b <= a for a, b in zip(trace, trace[1:])), trace

    def test_k_below_one_rejected(self):
        with pytest.raises(ConfigError, match="k must be at least 1, got 0"):
            fit_anchors([(10, 10), (20, 20)], k=0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            fit_anchors(np.zeros((0, 2)), k=1)


class TestAssignToScales:

    def test_reference_layout_reproduced_exactly(self):
        out = assign_to_scales(TABLE_ANCHORS, [160, 80, 40, 20])
        assert isinstance(out, AnchorSet)
        assert [s for s, _ in out.scales] == [160, 80, 40, 20]
        for size, triple in out.scales:
            assert triple == TABLE_ROWS[size]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        base = assign_to_scales(TABLE_ANCHORS, [160, 80, 40, 20])
        for _ in range(5):
            shuffled = list(TABLE_ANCHORS)
            rng.shuffle(shuffled)
            assert assign_to_scales(shuffled, [20, 160, 40, 80]) == base

    def test_three_scale_layout(self):
        anchors = [(10, 13), (16, 30), (33, 23),
                   (30, 61), (62, 45), (59, 119),
                   (116, 90), (156, 198), (373, 326)]
        out = assign_to_scales(anchors, [80, 40, 20])
        assert [s for s, _ in out.scales] == [80, 40, 20]
        assert out.scales[0][1] == ((10.0, 13.0), (16.0, 30.0), (33.0, 23.0))

    def test_smallest_triple_on_largest_map(self):
        out = assign_to_scales(TABLE_ANCHORS, [160, 80, 40, 20])
        mean_area = [np.mean([w * h for w, h in triple])
                     for _, triple in out.scales]
        assert mean_area == sorted(mean_area)

    @pytest.mark.parametrize("anchors", [[10, 13, 16],
                                         [(10, 13, 1)] * 12],
                             ids=["flat", "triples"])
    def test_anchors_that_are_not_pairs_rejected(self, anchors):
        with pytest.raises(ConfigError, match=r"anchors must be \(w, h\) pairs"):
            assign_to_scales(anchors, [160, 80, 40, 20])

    def test_count_mismatch(self):
        with pytest.raises(ConfigError, match="cannot fill"):
            assign_to_scales(TABLE_ANCHORS[:9], [160, 80, 40, 20])

    def test_duplicate_scale_sizes_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            assign_to_scales(TABLE_ANCHORS, [80, 80, 40, 20])

    def test_scale_of_side_one_accepted(self):
        out = assign_to_scales(TABLE_ANCHORS[:3], [1])
        assert out.scales == ((1, TABLE_ROWS[160]),)

    @pytest.mark.parametrize("sizes", [[0, 80, 40, 20], [160, -5, 40, 20]])
    def test_scale_size_below_one_rejected(self, sizes):
        with pytest.raises(ConfigError, match="at least 1"):
            assign_to_scales(TABLE_ANCHORS, sizes)
