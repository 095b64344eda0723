"""Anchor fitting and scale assignment."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import yolotla.anchors as anchors_module
from yolotla.anchors import (MAX_ROUNDS, AnchorSet, _distances,
                             _seed_centroids, _sort_anchors,
                             assign_to_scales, fit_anchors)
from yolotla.errors import ConfigError


def iou_wh(a, b) -> float:
    """IOU of two (w, h) boxes sharing a center."""
    aw, ah = float(a[0]), float(a[1])
    bw, bh = float(b[0]), float(b[1])
    inter = min(aw, bw) * min(ah, bh)
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _seed_centroids_reference(boxes: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++: weight each next pick by squared distance to the chosen."""
    n = len(boxes)
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        d = _distances(boxes, boxes[chosen]).min(axis=1)
        weights = d * d
        total = weights.sum()
        if total <= 0:
            chosen.append(next(i for i in range(n) if i not in chosen))
            continue
        chosen.append(int(rng.choice(n, p=weights / total)))
    return boxes[chosen].copy()


def fit_anchors_reference(boxes, k: int, seed: int = 0,
                          trace: list | None = None) -> np.ndarray:
    """`fit_anchors` on valid input as first written: k-means++ recomputes
    the distances to every chosen centroid at each pick, and each round
    restates the evaluation of its centroids."""
    arr = np.asarray(boxes, dtype=np.float64)
    distinct = np.unique(arr, axis=0)
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids_reference(distinct, k, rng)
    d = _distances(arr, centroids)
    assign = d.argmin(axis=1)
    objective = float(d[np.arange(len(arr)), assign].sum())
    if trace is not None:
        trace.append(objective)
    for _ in range(MAX_ROUNDS):
        new_centroids = centroids.copy()
        for c in range(k):
            members = arr[assign == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
            else:
                farthest = int(
                    _distances(arr, centroids).min(axis=1).argmax())
                new_centroids[c] = arr[farthest]
        nd = _distances(arr, new_centroids)
        new_assign = nd.argmin(axis=1)
        new_objective = float(nd[np.arange(len(arr)), new_assign].sum())
        if new_objective > objective:
            break
        converged = np.array_equal(new_assign, assign)
        centroids, assign, objective = new_centroids, new_assign, new_objective
        if trace is not None:
            trace.append(objective)
        if converged:
            break
    return _sort_anchors(centroids)


@st.composite
def box_sets(draw):
    """Boxes with repeated sizes, some one ulp from another size, whose
    1 - IOU to it rounds to 0: seeding then meets zero weights, and rounds
    meet ties that empty a cluster. Returns (boxes, k)."""
    side = st.integers(1, 9) | st.floats(0.5, 500)
    base = draw(st.lists(st.tuples(side, side), min_size=1, max_size=8,
                         unique=True))
    near = [(w, float(np.nextafter(h, np.inf))) for w, h in draw(
        st.lists(st.sampled_from(base), max_size=3, unique=True))]
    sizes = list(dict.fromkeys(base + near))
    boxes = sizes + draw(st.lists(st.sampled_from(sizes), max_size=40))
    return boxes, draw(st.integers(1, len(sizes)))


def _ulp_taller(size):
    return size[0], float(np.nextafter(size[1], np.inf))


# two sizes, each with its one-ulp neighbour: with k = 3 and seed 0 the
# assignment cycles between tied centroids, which ran the reference for
# all MAX_ROUNDS rounds, and a cluster is emptied and reseeded on the way
_A, _B = (37.05514745049709, 1.511163575610894), (45.3639490253289,
                                                   3.355080293599766)
CYCLING = [_A, _ulp_taller(_A), _B, _ulp_taller(_B), _ulp_taller(_A)]


SIDES_NOT_FINITE_AND_POSITIVE = pytest.mark.parametrize(
    "side", [np.nan, np.inf, 0.0, -3.0], ids=["nan", "inf", "zero", "negative"])


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

    def test_rounds_stop_at_max_rounds(self, monkeypatch):
        # unbounded, this fit adopts 4 rounds after its seeds
        boxes = np.random.default_rng(5).uniform(2, 400, size=(120, 2))
        for cap in range(4):
            monkeypatch.setattr(anchors_module, "MAX_ROUNDS", cap)
            trace: list[float] = []
            fit_anchors(boxes, k=6, seed=0, trace=trace)
            assert len(trace) == cap + 1

    def test_seed_defaults_to_zero(self):
        boxes = np.random.default_rng(2).uniform(2, 300, size=(50, 2))
        default = fit_anchors(boxes, k=5).tobytes()
        assert default == fit_anchors(boxes, k=5, seed=0).tobytes()
        assert default != fit_anchors(boxes, k=5, seed=1).tobytes()

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

    @settings(max_examples=150)
    @given(box_sets())
    @example((CYCLING, 3))
    def test_equals_the_reference_bit_for_bit(self, case):
        """Where the reference ran to the cap, it was on a cycle, which now
        ends the fit early: its trace then starts the reference's."""
        boxes, k = case
        for seed in range(3):
            trace: list[float] = []
            want: list[float] = []
            got = fit_anchors(boxes, k=k, seed=seed, trace=trace)
            ref = fit_anchors_reference(boxes, k, seed, want)
            if len(want) <= MAX_ROUNDS:
                assert got.tobytes() == ref.tobytes()
                assert trace == want
            else:
                assert len(trace) < len(want)
                assert trace == want[:len(trace)]

    def test_a_cycle_ends_the_fit(self):
        # the seeds and round 1 adopt two assignments, and round 2 repeats
        # the first, so it is not adopted: round 1's centroids are the
        # anchors, one of them a mean of _A and its neighbour
        trace: list[float] = []
        out = fit_anchors(CYCLING, k=3, seed=0, trace=trace)
        assert trace == [0.0, 0.0]
        assert out.tolist() == [list(_A), [_A[0], 1.5111635756108945],
                                list(_B)]

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_seeding_computes_one_distance_column_per_pick(self, k,
                                                          monkeypatch):
        columns = []

        def counting(boxes, centroids):
            columns.append(len(centroids))
            return _distances(boxes, centroids)
        monkeypatch.setattr(anchors_module, "_distances", counting)
        boxes = np.array(TABLE_ANCHORS, dtype=np.float64)
        _seed_centroids(boxes, k, np.random.default_rng(0))
        assert sum(columns) == k - 1

    @pytest.mark.parametrize("seed", range(3))
    def test_seeds_are_distinct_when_every_weight_is_zero(self, seed):
        # after one pick from each pair, every box is at distance 0 from a
        # chosen one, so the remaining seeds come from the fallback
        boxes = np.unique([(8.0, 7.0), _ulp_taller((8.0, 7.0)), (30.0, 10.0),
                           _ulp_taller((30.0, 10.0))], axis=0)
        seeds = _seed_centroids(boxes, 4, np.random.default_rng(seed))
        assert len(np.unique(seeds, axis=0)) == 4

    def test_k_exceeding_distinct_rejected(self):
        boxes = [(10, 10)] * 50 + [(20, 20)] * 50
        with pytest.raises(ConfigError, match="2 distinct"):
            fit_anchors(boxes, k=3)

    def test_degenerate_boxes_counted(self):
        boxes = [(10, 10), (0, 5), (5, -1), (8, 8)]
        with pytest.raises(ConfigError, match="2 box"):
            fit_anchors(boxes, k=2)

    @SIDES_NOT_FINITE_AND_POSITIVE
    def test_side_not_finite_and_positive_rejected(self, side):
        boxes = [(10, 10), (side, 5), (8, side), (side, side), (8, 8)]
        with pytest.raises(ConfigError, match=r"^3 box\(es\) have a width "
                           r"or height that is not finite and positive$"):
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

    def test_result_is_immutable(self):
        out = assign_to_scales(TABLE_ANCHORS, [160, 80, 40, 20])
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.scales = ()

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

    @SIDES_NOT_FINITE_AND_POSITIVE
    def test_side_not_finite_and_positive_rejected(self, side):
        anchors = list(TABLE_ANCHORS)
        anchors[4] = (side, 56)
        with pytest.raises(ConfigError, match=r"^1 anchor\(s\) have a width "
                           r"or height that is not finite and positive$"):
            assign_to_scales(anchors, [160, 80, 40, 20])

    def test_equal_areas_ordered_by_width_then_height(self):
        # three areas of 16, and two past float64's range with one width
        anchors = [(1e300, 1e20), (8, 2), (1e300, 1e10), (2, 8), (4, 4),
                   (1, 1)]
        assert assign_to_scales(anchors, [8, 4]).scales == (
            (8, ((1.0, 1.0), (2.0, 8.0), (4.0, 4.0))),
            (4, ((8.0, 2.0), (1e300, 1e10), (1e300, 1e20))))

    def test_no_scales_rejected(self):
        with pytest.raises(ConfigError,
                           match="^12 anchors cannot fill 0 scales of 3$"):
            assign_to_scales(TABLE_ANCHORS, [])

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
