"""Analyzer totals, the dual counting routes, and the closed-form estimates.

The per-variant totals below were derived by hand from the layer tables
(unit-by-unit parameter sums, then MACs from output maps) before the
analyzer existed; they are pinned exactly so any structural drift in the
bundled configs or the block cost rules shows up as a diff here.
"""
import hashlib
import json

import numpy as np
import pytest

from yolotla import meter
from yolotla.costs import (CONVENTION, analyze, closed_form_cross,
                           closed_form_standard, count_empirical)
from yolotla.errors import ConfigError, ShapeError
from yolotla.graph import build_model, find_config

FROZEN_TOTALS = {
    # name: (params, MACs @640, FLOPs @640)
    "yolov5s": (7235389, 8216780800, 16516394800),
    "yolov5m": (21190557, 24436224000, 49028650800),
    "yolov5s-tiny": (7394684, 9971507200, 20056951600),
    "yolov5s-g1": (6072501, 6517683200, 13109956400),
    "yolov5s-g2": (5109925, 5538816000, 11149918000),
    "yolov5s-cc1": (6865277, 7666278400, 15422455600),
    "yolov5s-cc2": (6559229, 7351705600, 14796074800),
    "yolov5s-gam": (9544349, 10995507200, 22098423600),
    "yolo-tla-s": (9333532, 12199731200, 24545041200),
    "yolo-tla-m": (25153356, 32435712000, 65132766000),
}


@pytest.fixture(scope="module")
def models():
    return {name: build_model(find_config(name)) for name in FROZEN_TOTALS}


class TestFrozenTotals:

    @pytest.mark.parametrize("name", sorted(FROZEN_TOTALS))
    def test_totals_pinned(self, models, name):
        rep = analyze(models[name])
        assert (rep.total_params, rep.total_macs, rep.total_flops) == \
            FROZEN_TOTALS[name]

    def test_report_params_equal_model_params(self, models):
        for name, model in models.items():
            assert analyze(model).total_params == model.param_count()

    def test_hand_summed_backbone_parts(self, models):
        # spot values worked out on paper for the small baseline
        rows = {r.index: r for r in analyze(models["yolov5s"]).layers}
        assert rows[2].params == 18816     # first residual stage
        assert rows[4].params == 115712
        assert rows[6].params == 625152
        assert rows[8].params == 1182720
        assert rows[9].params == 656896    # pooling pyramid
        head = analyze(models["yolov5s"]).head
        assert head.params == 229245
        assert head.out_shape == (1, 255, 80, 80)

    def test_rows_sum_to_totals(self, models):
        rep = analyze(models["yolov5s-gam"])
        rows = list(rep.layers) + [rep.head]
        assert sum(r.params for r in rows) == rep.total_params
        assert sum(r.macs for r in rows) == rep.total_macs
        assert sum(r.flops for r in rows) == rep.total_flops

    def test_attention_additions_scale_with_width_squared(self, models):
        # the four attention gates dominate the s->m growth of that family
        base_s = analyze(models["yolov5s"]).total_params
        gam_s = analyze(models["yolov5s-gam"]).total_params
        added = gam_s - base_s
        assert added == 2308960

    def test_convention_is_stated(self, models):
        rep = analyze(models["yolov5s"])
        assert "2 FLOPs" in rep.convention
        assert rep.to_dict()["convention"] == CONVENTION


class TestDualRouteConsistency:
    """Symbolic totals must equal what the executed forward pass records."""

    @pytest.mark.parametrize("name", sorted(FROZEN_TOTALS))
    def test_full_model_at_reduced_input(self, models, name):
        rep = analyze(models[name], input_hw=(64, 64))
        macs, flops = count_empirical(models[name], input_hw=(64, 64))
        assert (macs, flops) == (rep.total_macs, rep.total_flops)

    def test_truncated_baseline(self, models):
        m = models["yolov5s"]
        rep = analyze(m, input_hw=(64, 64), truncate=4)
        assert rep.head is None
        macs, flops = count_empirical(m, input_hw=(64, 64), truncate=4)
        assert (macs, flops) == (rep.total_macs, rep.total_flops)

    def test_truncated_attention_backbone(self, models):
        m = models["yolo-tla-s"]
        rep = analyze(m, input_hw=(64, 64), truncate=14)
        macs, flops = count_empirical(m, input_hw=(64, 64), truncate=14)
        assert (macs, flops) == (rep.total_macs, rep.total_flops)

    def test_truncate_bounds_checked(self, models):
        with pytest.raises(ConfigError, match="truncate"):
            analyze(models["yolov5s"], truncate=0)
        with pytest.raises(ConfigError, match="truncate"):
            count_empirical(models["yolov5s"], truncate=99)


# sha256 of json.dumps(analyze(m, (s, s)).to_dict(), sort_keys=True) at
# s = 640 and 320, and of the json.dumps'd [[path, shape], ...] manifest,
# recorded before the analyzer was rebuilt on shape-only forward passes,
# then re-recorded when the convention string dropped "permute" (that
# string is the reports' only change: the report dicts of the earlier
# code, with it swapped in, hash to these digests).
# Every field is an integer or a fixed division of one, so the digests
# are machine-independent.
REPORT_DIGESTS = {
    "yolo-tla-m": (
        "0716f02095e61cc070114c514c922d9d84cc5a5276c9c253f36d33015eb1a89b",
        "2ce188853ff38fd86da110225131a756dc3f3bd529f32c8aa842cbfd91badbab",
        "7cb3efb213796d10c7c002e954cd49e0682b8fd13f30ce04b650a9c39cc66728"),
    "yolo-tla-s": (
        "d6610cdde33be680107663104f197a10adc145bbfa0296352e30725d5ae109cd",
        "20a032d25cf90d4bbd5691d3d4cf5034a0ca777a496f42534583534aa06f1322",
        "c7e80452e9187248c26082394c25cc37b1a1c338bd417b2cd279933ebf2c1ef9"),
    "yolov5m": (
        "af1623650f2989308bb9c535e1d0193be5be72dd645b02d588e0dfa1a4729866",
        "90683631ff7ecf67041e74c6ae196c96c854b36bff53996c9d8ffcb36209ec56",
        "bef8052ce008b49bb1880bd242e21f77d0858b4cd6c05ce22e0aa92f87c29f81"),
    "yolov5s": (
        "bb9da6301b55ed671e5bff878beec26669d55ad9a7849c4d8f002f893499d49f",
        "0ebc976db4487b21c0c655fde73d9fd519fd80dec952a6637b0449be1ac72a15",
        "3c30368ca02ee7a049ed651558a98f4412463e582449df80139f5a2a0161b4ec"),
    "yolov5s-cc1": (
        "99e9aa675fa1f70ecb9e69bb76c2600ee0d15abab12215c655a38a18d1631047",
        "f4027bdb208d876067a7bfcbdd2056f7b9947b4ac3a861c06e5f472df84e8835",
        "5280adbe7dfb8d9db7d9a41cdc2b770dd32aef7b9f779d689f93840b62cca099"),
    "yolov5s-cc2": (
        "fe6c9c6ce9ecf19280f412b21e67ce8ef220f212681751e597ff8f306b9a3f48",
        "e8911cd5da8dccf6cbbcdcaf0a7d26cfb7c277859b25b7b417d7ab0b5cc1a828",
        "c7d4ae0e27e6d667ae5120ee3819591ec98325a7c6f16f294038f52851254c15"),
    "yolov5s-g1": (
        "062a6b2d4a2598d4d8017acfbd354a6c21b552ff6ec254a0a17538e52c9f3e6a",
        "eaf03759362686f51fdfb543d826fbbea77b4d06772a60e7c2b43d3ea28b42bc",
        "d9ce5bfec411f871c90d756f63bdb02f733be1aa0ef415fb945749d845b20c20"),
    "yolov5s-g2": (
        "b08bf731ce0a7dd94d1f5760af5921e6a8277e02d55d2248fbcca6fa09da0107",
        "bb4e6dceb821ce32318a8acf884b90b3c9708f0f456ac1db0d33e8ae19a13d0f",
        "51b153cac1c7340194cbd7361d1eae530cfbd3fbcb51530ae4ef2876abeabe45"),
    "yolov5s-gam": (
        "51cdb2dc14733871cef0e8b89502615a336c2db4129739057b7dcd973580e15f",
        "27bbff0ca65473d0ca2e0890cd0c0afb75495a1aca031707932ebc5b7dfd27d2",
        "89a3c17a85ce915d8cc374a07cb6028cf24aec0428c1dc85fa4330ab4dce1be5"),
    "yolov5s-tiny": (
        "4e666f0ab36543341b8f552c19dd95cb5ca90fa4b70bafce3f4ab3b794ccaa8e",
        "c3e1a50b84b9cdd7f548d3d67bdbeb4852f8f8596a153ecdf7bed0f2887a98ec",
        "119b0159dc0deeb850e00f0c35cb01573999d00694325d9ef991fbfdd3f4c743"),
}


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestRefactorGuard:

    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_reports_and_manifest_unchanged(self, models, name):
        model = models[name]
        got = (_sha(analyze(model, (640, 640)).to_dict()),
               _sha(analyze(model, (320, 320)).to_dict()),
               _sha([[p, list(s)] for p, s in model.param_specs()]))
        assert got == REPORT_DIGESTS[name]


class TestShapeOnlyWork:
    """Shape and cost inference must never reach a caller's meter."""

    def test_build_and_analyze_record_nothing(self):
        with meter.CostMeter() as m:
            model = build_model(find_config("yolov5s-gam"))
            analyze(model, (64, 64))
            analyze(model, (64, 64), truncate=3)
            model.head_shapes((1, 3, 64, 64))
            model.blocks[2].cost([(1, 64, 16, 16)])
        assert (m.macs, m.flops) == (0, 0)

    def test_analyze_checks_the_largest_stride(self, models):
        with pytest.raises(ShapeError, match="largest stride 32"):
            analyze(models["yolov5s"], (100, 100))


class TestClosedFormEstimates:

    def test_hand_case(self):
        flops, params = closed_form_standard(8, 3, 3, 1, 1)
        assert (flops, params) == (1728.0, 27)
        flops, params = closed_form_cross(8, 3, 3, 1, 1)
        assert (flops, params) == (2160.0, 18)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_param_ratio_is_half_kernel(self, k):
        for channels in (3, 16, 64):
            _, p_std = closed_form_standard(32, k, channels)
            _, p_cross = closed_form_cross(32, k, channels)
            assert p_std / p_cross == k / 2

    def test_flop_estimate_discrepancy_preserved(self):
        # the factored layer's FLOP estimate EXCEEDS the square layer's
        # even though its parameter estimate is smaller; both facts hold
        for k in (3, 5, 7):
            f_std, p_std = closed_form_standard(32, k, 16)
            f_cross, p_cross = closed_form_cross(32, k, 16)
            assert f_cross > f_std
            assert p_cross < p_std

    def test_default_pad_preserves_size(self):
        flops, _ = closed_form_standard(16, 3, 4)
        assert flops == 9 * 4 * 16 * 16

    def test_estimates_disagree_with_analyzer_route(self, models):
        # the quarantine test: whole-model totals are not built from these
        rep = analyze(models["yolov5s"], input_hw=(64, 64))
        est = sum(closed_form_standard(64, 3, 16)[0] for _ in range(2))
        assert rep.total_flops != est


class TestMeasuredCrossBlockSaving:

    def test_cross_block_cheaper_than_square_conv(self):
        # empirical counterpart of the closed-form parameter claim
        from yolotla import meter
        from yolotla.blocks import BLOCKS
        from tests.test_blocks import make_block, rand_input
        cross, _ = make_block("CrossConv", [16], {"out": 16})
        square, _ = make_block("ConvBNAct", [16], {"out": 16, "k": 3})
        x = rand_input(1, 16, 16, 16)
        with meter.CostMeter() as mc:
            cross.forward([x])
        with meter.CostMeter() as ms:
            square.forward([x])
        assert cross.param_count() < square.param_count()
        assert mc.macs < ms.macs
