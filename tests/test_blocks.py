"""Block semantics, pinned against independent recompositions from primitives.

Every structured block (C3, ghost family, cross pair, attention, SPPF) is
checked two ways: analytic special cases small enough to reason out by
hand, and a re-implementation of the block's wiring written directly in
tensor primitives that must agree with the block's own forward.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yolotla import blocks, meter
from yolotla.blocks import BLOCKS, C3_FAMILY
from yolotla.cli import PARITY_CASES, conv_agrees
from yolotla.errors import ConfigError, ShapeError, YoloTlaError
from yolotla.graph import build_model, find_config
from yolotla.tensor import (ConvSpec, Tensor, concat_channels, conv2d,
                            maxpool2d)

RNG_SEED = 42


def make_block(kind, in_channels, args, seed=RNG_SEED):
    """Construct a block and bind deterministic random weights to it."""
    blk = BLOCKS[kind](in_channels, args)
    rng = np.random.default_rng(seed)
    weights = {}
    for path, shape in blk.param_specs("b"):
        if path.endswith("norm.scale"):
            weights[path] = rng.uniform(0.5, 1.5, size=shape).astype(np.float32)
        else:
            weights[path] = rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)
    blk.load(lambda p: weights[p], "b")
    return blk, weights


def rand_input(n, c, h, w, seed=7):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-1, 1, size=(n, c, h, w)).astype(np.float32))


def unit_forward(x, weights, prefix, cin, cout, k=(1, 1), s=(1, 1), p=(0, 0),
                 g=1, act="silu", norm=True):
    """Manual conv unit: fold the norm affine by hand and apply activation."""
    w = weights[f"{prefix}.conv.weight"]
    if norm:
        w = w * weights[f"{prefix}.norm.scale"].reshape(-1, 1, 1, 1)
        bias = weights[f"{prefix}.norm.shift"]
    else:
        bias = weights[f"{prefix}.conv.bias"]
    spec = ConvSpec(cin, cout, k[0], k[1], s[0], s[1], p[0], p[1], groups=g,
                    has_bias=True)
    y = conv2d(x, spec, Tensor(w), bias).data.astype(np.float64)
    if act == "silu":
        y = y / (1.0 + np.exp(-y))
    elif act == "relu":
        y = np.maximum(y, 0.0)
    return Tensor(y.astype(np.float32))


class TestConvBNAct:

    def test_fresh_affine_is_identity_over_conv(self):
        blk = BLOCKS["ConvBNAct"]([3], {"out": 8, "k": 3, "s": 1})
        rng = np.random.default_rng(0)
        weights = {}
        for path, shape in blk.param_specs("b"):
            if path.endswith("scale"):
                weights[path] = np.ones(shape, dtype=np.float32)
            elif path.endswith("shift"):
                weights[path] = np.zeros(shape, dtype=np.float32)
            else:
                weights[path] = rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)
        blk.load(lambda p: weights[p], "b")
        x = rand_input(1, 3, 8, 8)
        spec = ConvSpec(3, 8, 3, 3, 1, 1, 1, 1, has_bias=True)
        raw = conv2d(x, spec, Tensor(weights["b.conv.weight"]),
                     np.zeros(8, dtype=np.float32)).data.astype(np.float64)
        expect = raw / (1.0 + np.exp(-raw))
        got = blk.forward([x])
        np.testing.assert_allclose(got.data, expect.astype(np.float32),
                                   rtol=1e-5, atol=1e-6)

    def test_stride_halves_spatial(self):
        blk, _ = make_block("ConvBNAct", [4], {"out": 8, "k": 3, "s": 2})
        out = blk.forward([rand_input(1, 4, 16, 16)])
        assert out.shape == (1, 8, 8, 8)
        assert blk.out_shape([(1, 4, 16, 16)]) == (1, 8, 8, 8)

    def test_param_manifest(self):
        blk = BLOCKS["ConvBNAct"]([16], {"out": 32, "k": 3})
        assert blk.param_count() == 32 * 16 * 9 + 2 * 32


class TestBottleneck:

    def test_shortcut_adds_input(self):
        blk, weights = make_block("Bottleneck", [6], {"out": 6})
        x = rand_input(1, 6, 5, 5)
        y1 = unit_forward(x, weights, "b.cv1", 6, 6)
        y2 = unit_forward(y1, weights, "b.cv2", 6, 6, k=(3, 3), p=(1, 1))
        expect = x.data + y2.data
        np.testing.assert_allclose(blk.forward([x]).data, expect, rtol=1e-5,
                                   atol=1e-6)

    def test_no_shortcut_when_channels_differ(self):
        blk, _ = make_block("Bottleneck", [6], {"out": 8})
        assert blk.add is False
        out = blk.forward([rand_input(1, 6, 5, 5)])
        assert out.shape == (1, 8, 5, 5)


class TestC3:

    def test_matches_manual_recomposition(self):
        blk, weights = make_block("C3", [8], {"out": 8, "n": 2})
        x = rand_input(1, 8, 6, 6)
        hidden = 4
        y1 = unit_forward(x, weights, "b.cv1", 8, hidden)
        for i in range(2):
            t1 = unit_forward(y1, weights, f"b.m{i}.cv1", hidden, hidden)
            t2 = unit_forward(t1, weights, f"b.m{i}.cv2", hidden, hidden,
                              k=(3, 3), p=(1, 1))
            y1 = Tensor(y1.data + t2.data)
        y2 = unit_forward(x, weights, "b.cv2", 8, hidden)
        cat = concat_channels([y1, y2])
        expect = unit_forward(cat, weights, "b.cv3", 2 * hidden, 8)
        np.testing.assert_allclose(blk.forward([x]).data, expect.data,
                                   rtol=1e-5, atol=1e-6)

    def test_hidden_width_is_half_output(self):
        blk = BLOCKS["C3"]([64], {"out": 64, "n": 1})
        # cv1: 64*32 + 2*32, cv2 same, cv3: 64*64 + 2*64,
        # bottleneck: (32*32 + 2*32) + (32*32*9 + 2*32)
        expect = 2 * (64 * 32 + 64) + (64 * 64 + 128) + (32 * 32 + 64) + (32 * 32 * 9 + 64)
        assert blk.param_count() == expect

    def test_shape_preserved(self):
        blk, _ = make_block("C3", [16], {"out": 32, "n": 3})
        assert blk.out_shape([(2, 16, 10, 10)]) == (2, 32, 10, 10)


class TestGhostConv:

    def test_primary_half_is_plain_conv_output(self):
        blk, weights = make_block("GhostConv", [8], {"out": 12})
        x = rand_input(1, 8, 6, 6)
        out = blk.forward([x])
        assert out.shape == (1, 12, 6, 6)
        primary = unit_forward(x, weights, "b.primary", 8, 6)
        np.testing.assert_allclose(out.data[:, :6], primary.data, rtol=1e-5,
                                   atol=1e-6)
        cheap = unit_forward(primary, weights, "b.cheap", 6, 6, k=(5, 5),
                             p=(2, 2), g=6)
        np.testing.assert_allclose(out.data[:, 6:], cheap.data, rtol=1e-5,
                                   atol=1e-6)

    def test_odd_output_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            BLOCKS["GhostConv"]([8], {"out": 7})

    def test_cheaper_than_dense_conv(self):
        ghost = BLOCKS["GhostConv"]([64], {"out": 64})
        dense = BLOCKS["ConvBNAct"]([64], {"out": 64, "k": 1})
        assert ghost.param_count() < dense.param_count()


class TestGhostBottleneck:

    def test_stride1_identity_shortcut(self):
        blk, weights = make_block("GhostBottleneck", [16], {"out": 16})
        x = rand_input(1, 16, 6, 6)
        out = blk.forward([x])
        assert out.shape == (1, 16, 6, 6)
        # main branch recomposed by hand
        g1p = unit_forward(x, weights, "b.g1.primary", 16, 4)
        g1c = unit_forward(g1p, weights, "b.g1.cheap", 4, 4, k=(5, 5), p=(2, 2), g=4)
        g1 = concat_channels([g1p, g1c])
        g2p = unit_forward(g1, weights, "b.g2.primary", 8, 8, act=None)
        g2c = unit_forward(g2p, weights, "b.g2.cheap", 8, 8, k=(5, 5), p=(2, 2),
                           g=8, act=None)
        main = concat_channels([g2p, g2c])
        np.testing.assert_allclose(out.data, x.data + main.data, rtol=1e-5,
                                   atol=1e-6)

    def test_stride2_halves_and_projects(self):
        blk, _ = make_block("GhostBottleneck", [16], {"out": 24, "s": 2})
        out = blk.forward([rand_input(1, 16, 8, 8)])
        assert out.shape == (1, 24, 4, 4)
        assert blk.out_shape([(1, 16, 8, 8)]) == (1, 24, 4, 4)

    def test_stride1_channel_change_rejected(self):
        with pytest.raises(ConfigError, match="identity shortcut"):
            BLOCKS["GhostBottleneck"]([16], {"out": 24})


class TestC3Ghost:

    def test_fewer_params_than_c3(self):
        for cout in (32, 64, 128):
            ghost = BLOCKS["C3Ghost"]([cout], {"out": cout, "n": 2})
            plain = BLOCKS["C3"]([cout], {"out": cout, "n": 2})
            assert ghost.param_count() < plain.param_count()

    def test_shape_preserved(self):
        blk, _ = make_block("C3Ghost", [16], {"out": 16, "n": 1})
        out = blk.forward([rand_input(1, 16, 6, 6)])
        assert out.shape == (1, 16, 6, 6)


class TestCrossConv:

    def test_separable_pair_equals_composite_kernel(self):
        # linear convolutions compose: (x * row) * col == x * (col x row)
        rng = np.random.default_rng(3)
        x = Tensor(np.linspace(-1, 1, 64, dtype=np.float32).reshape(1, 1, 8, 8))
        row = rng.uniform(-1, 1, size=3).astype(np.float32)
        col = rng.uniform(-1, 1, size=3).astype(np.float32)
        y1 = conv2d(x, ConvSpec(1, 1, 1, 3, pad_h=0, pad_w=1),
                    Tensor(row.reshape(1, 1, 1, 3)))
        y2 = conv2d(y1, ConvSpec(1, 1, 3, 1, pad_h=1, pad_w=0),
                    Tensor(col.reshape(1, 1, 3, 1)))
        composite = np.outer(col, row).astype(np.float32).reshape(1, 1, 3, 3)
        direct = conv2d(x, ConvSpec(1, 1, 3, 3, pad_h=1, pad_w=1),
                        Tensor(composite))
        np.testing.assert_allclose(y2.data, direct.data, rtol=1e-5, atol=1e-6)

    def test_matches_manual_recomposition(self):
        blk, weights = make_block("CrossConv", [6], {"out": 6, "shortcut": True})
        x = rand_input(1, 6, 7, 7)
        y1 = unit_forward(x, weights, "b.cv1", 6, 6, k=(1, 3), p=(0, 1))
        y2 = unit_forward(y1, weights, "b.cv2", 6, 6, k=(3, 1), p=(1, 0))
        np.testing.assert_allclose(blk.forward([x]).data, x.data + y2.data,
                                   rtol=1e-5, atol=1e-6)

    def test_downsampling_stride_sits_on_second_conv(self):
        blk, _ = make_block("CrossConv", [4], {"out": 8, "s": 2})
        assert blk.out_shape([(1, 4, 8, 8)]) == (1, 8, 4, 4)
        assert blk.cv1.spec.stride_h == 1 and blk.cv1.spec.stride_w == 1
        assert blk.cv2.spec.stride_h == 2 and blk.cv2.spec.stride_w == 2

    def test_param_count_below_square_conv(self):
        cross = BLOCKS["CrossConv"]([32], {"out": 32})
        square = BLOCKS["ConvBNAct"]([32], {"out": 32, "k": 3})
        assert cross.param_count() < square.param_count()


class TestC3CrossConv:

    def test_same_wiring_as_c3_except_inner_conv(self):
        cross = BLOCKS["C3CrossConv"]([32], {"out": 32, "n": 2})
        plain = BLOCKS["C3"]([32], {"out": 32, "n": 2})
        assert cross.param_count() < plain.param_count()
        cross_paths = {p for p, _ in cross.param_specs("x")}
        plain_paths = {p for p, _ in plain.param_specs("x")}
        shared = {p for p in plain_paths if ".m" not in p}
        assert shared <= cross_paths

    def test_matches_manual_recomposition(self):
        blk, weights = make_block("C3CrossConv", [8], {"out": 8, "n": 1})
        x = rand_input(1, 8, 6, 6)
        hidden = 4
        y1 = unit_forward(x, weights, "b.cv1", 8, hidden)
        t = unit_forward(y1, weights, "b.m0.cv1", hidden, hidden)
        t = unit_forward(t, weights, "b.m0.cv2.cv1", hidden, hidden, k=(1, 3),
                         p=(0, 1))
        t = unit_forward(t, weights, "b.m0.cv2.cv2", hidden, hidden, k=(3, 1),
                         p=(1, 0))
        y1 = Tensor(y1.data + t.data)
        y2 = unit_forward(x, weights, "b.cv2", 8, hidden)
        expect = unit_forward(concat_channels([y1, y2]), weights, "b.cv3",
                              2 * hidden, 8)
        np.testing.assert_allclose(blk.forward([x]).data, expect.data,
                                   rtol=1e-5, atol=1e-6)


class TestGAM:

    def test_zero_weights_give_analytic_gates(self):
        blk = BLOCKS["GAM"]([16], {"residual": False})
        zeros = {p: np.zeros(s, dtype=np.float32) for p, s in blk.param_specs("b")}
        blk.load(lambda p: zeros[p], "b")
        x = rand_input(1, 16, 5, 5)
        out = blk.forward([x])
        np.testing.assert_allclose(out.data, 0.25 * x.data, rtol=1e-6)

    def test_zero_weights_with_residual(self):
        blk = BLOCKS["GAM"]([16], {})
        zeros = {p: np.zeros(s, dtype=np.float32) for p, s in blk.param_specs("b")}
        blk.load(lambda p: zeros[p], "b")
        x = rand_input(1, 16, 5, 5)
        np.testing.assert_allclose(blk.forward([x]).data, 1.25 * x.data,
                                   rtol=1e-6)

    def test_matches_manual_recomposition(self):
        blk, weights = make_block("GAM", [8], {"ratio": 4, "spatial_groups": 2})
        x = rand_input(1, 8, 6, 6)
        n, c, h, w = x.shape
        mat = np.transpose(x.data, (0, 2, 3, 1)).reshape(-1, c).astype(np.float64)
        hid = np.maximum(mat @ weights["b.fc1.weight"].T.astype(np.float64)
                         + weights["b.fc1.bias"], 0.0)
        att = hid @ weights["b.fc2.weight"].T.astype(np.float64) + weights["b.fc2.bias"]
        att = att.astype(np.float32).astype(np.float64)
        att = np.transpose(att.reshape(n, h, w, c), (0, 3, 1, 2))
        gate_c = 1.0 / (1.0 + np.exp(-att))
        gated = Tensor((x.data * gate_c).astype(np.float32))
        s1 = unit_forward(gated, weights, "b.sconv1", 8, 2, k=(7, 7), p=(3, 3),
                          g=2, act="relu", norm=False)
        s2 = unit_forward(s1, weights, "b.sconv2", 2, 8, k=(7, 7), p=(3, 3),
                          g=2, act=None, norm=False)
        gate_s = 1.0 / (1.0 + np.exp(-s2.data.astype(np.float64)))
        expect = x.data + (gated.data * gate_s)
        np.testing.assert_allclose(blk.forward([x]).data, expect, rtol=1e-4,
                                   atol=1e-5)

    def test_gates_bound_output_without_residual(self):
        blk, _ = make_block("GAM", [16], {"residual": False})
        x = rand_input(2, 16, 5, 5, seed=11)
        out = blk.forward([x])
        assert np.all(np.abs(out.data) <= np.abs(x.data) + 1e-6)

    def test_ratio_must_divide_channels(self):
        with pytest.raises(ConfigError, match="ratio"):
            BLOCKS["GAM"]([6], {"ratio": 4})

    def test_channels_preserved(self):
        blk, _ = make_block("GAM", [16], {})
        assert blk.out_shape([(1, 16, 8, 8)]) == (1, 16, 8, 8)

    def test_wrong_input_width_is_refused(self):
        # the first unit's conv checks the width, real or meta alike
        blk, _ = make_block("GAM", [16], {})
        for x in (rand_input(1, 8, 4, 4), Tensor.meta((1, 8, 4, 4))):
            with pytest.raises(ShapeError, match="8 channels.*in_channels=16"):
                blk.forward([x])


class TestSPPF:

    def test_chained_pools_equal_direct_pools(self):
        # three chained 5x5 stride-1 pools match direct 5, 9, 13 windows
        x = rand_input(1, 3, 12, 12, seed=13)
        p1 = maxpool2d(x, 5, 1, 2)
        p2 = maxpool2d(p1, 5, 1, 2)
        p3 = maxpool2d(p2, 5, 1, 2)
        np.testing.assert_array_equal(p2.data, maxpool2d(x, 9, 1, 4).data)
        np.testing.assert_array_equal(p3.data, maxpool2d(x, 13, 1, 6).data)

    def test_matches_manual_recomposition(self):
        blk, weights = make_block("SPPF", [8], {"out": 12})
        x = rand_input(1, 8, 9, 9)
        y0 = unit_forward(x, weights, "b.cv1", 8, 4)
        y1 = maxpool2d(y0, 5, 1, 2)
        y2 = maxpool2d(y1, 5, 1, 2)
        y3 = maxpool2d(y2, 5, 1, 2)
        expect = unit_forward(concat_channels([y0, y1, y2, y3]), weights,
                              "b.cv2", 16, 12)
        np.testing.assert_allclose(blk.forward([x]).data, expect.data,
                                   rtol=1e-5, atol=1e-6)


class TestPlumbingBlocks:

    def test_upsample_block(self):
        blk, _ = make_block("Upsample", [4], {})
        out = blk.forward([rand_input(1, 4, 5, 5)])
        assert out.shape == (1, 4, 10, 10)
        assert blk.param_count() == 0

    def test_concat_block(self):
        blk = BLOCKS["Concat"]([4, 6], {})
        a, b = rand_input(1, 4, 5, 5), rand_input(1, 6, 5, 5, seed=8)
        out = blk.forward([a, b])
        assert out.shape == (1, 10, 5, 5)

    def test_concat_spatial_mismatch_rejected(self):
        blk = BLOCKS["Concat"]([4, 4], {})
        with pytest.raises(ShapeError, match="spatial"):
            blk.out_shape([(1, 4, 5, 5), (1, 4, 6, 5)])

    def test_detect_emits_one_map_per_scale(self):
        blk, _ = make_block("Detect", [8, 16], {"nc": 80})
        maps = blk.forward([rand_input(1, 8, 8, 8), rand_input(1, 16, 4, 4)])
        assert [m.shape for m in maps] == [(1, 255, 8, 8), (1, 255, 4, 4)]
        assert blk.param_count() == (8 * 255 + 255) + (16 * 255 + 255)

    def test_detect_rejects_wrong_map_count(self):
        blk, _ = make_block("Detect", [8, 16], {"nc": 80})
        with pytest.raises(ShapeError,
                           match="Detect built for 2 scales, got 1 inputs"):
            blk.forward([rand_input(1, 8, 8, 8)])

    def test_unknown_argument_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            BLOCKS["ConvBNAct"]([3], {"out": 8, "bogus": 1})


def assert_units_agree(blk, side):
    """Every conv unit of blk passes `conv_agrees` on an input of that side."""
    for i, unit in enumerate(blk.units()):
        assert isinstance(unit, blocks._Unit)
        x = rand_input(1, unit.spec.in_channels, *side, seed=11 + i)
        assert conv_agrees(x, unit.spec, unit.weight, unit.bias), f"unit {i}"


class TestCostParity:
    """Derived per-block costs must equal what the kernels record and execute.

    Two checks, the ones `oracle-check` makes: the derived (meta-forward)
    cost equals a metered real forward, and every conv unit of the block
    agrees with conv2d_naive on values and on the recorded (macs, flops).
    The loop nest tallies the MACs it executes rather than reading the
    price table that both the derived cost and conv2d are built from.
    """

    CASES = PARITY_CASES

    @pytest.mark.parametrize("kind,cins,args,shape",
                             CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_block_cost_matches_metered_run(self, kind, cins, args, shape):
        blk, _ = make_block(kind, cins, args)
        shapes = [shape] * len(cins)
        want_macs, want_flops = blk.cost(shapes)
        with meter.CostMeter() as m:
            blk.forward([rand_input(*s, seed=7 + i) for i, s in enumerate(shapes)])
        assert m.macs == want_macs
        assert m.flops == want_flops

    @pytest.mark.parametrize("kind,cins,args,shape",
                             CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_every_unit_agrees_with_the_naive_conv(self, kind, cins, args, shape):
        blk, _ = make_block(kind, cins, args)
        assert_units_agree(blk, shape[2:])

    @pytest.mark.parametrize("kind,cins,args,shape",
                             CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_every_mac_runs_through_the_naive_conv(self, kind, cins, args, shape):
        # conv2d is the one weighted kernel, and the unit check holds it to
        # the naive conv at every spec the block builds
        blk, _ = make_block(kind, cins, args)
        with meter.CostMeter() as m:
            blk.forward([rand_input(*shape, seed=7 + i) for i in range(len(cins))])
        assert {k for k, c in m.by_kind.items() if c.macs} <= {"conv2d"}

    def test_units_walk_the_child_tree(self):
        blk = BLOCKS["C3Ghost"]([16], {"out": 16, "n": 2})
        specs = [s for s in blk.param_specs("b") if s[0].endswith("conv.weight")]
        assert [u.spec.weight_shape() for u in blk.units()] == [s for _, s in specs]
        assert len(specs) == 3 + 2 * 4   # cv1-cv3; 2 inner x 2 GhostConv x 2 units
        assert BLOCKS["Concat"]([4, 4], {}).units() == []

    def test_detect_cost_matches(self):
        blk, _ = make_block("Detect", [8, 16], {"nc": 3})
        shapes = [(1, 8, 8, 8), (1, 16, 4, 4)]
        want = blk.cost(shapes)
        assert blk.out_shape(shapes) == [(1, 24, 8, 8), (1, 24, 4, 4)]
        with meter.CostMeter() as m:
            blk.forward([rand_input(*shapes[0]), rand_input(*shapes[1])])
        assert (m.macs, m.flops) == want
        assert_units_agree(blk, (4, 4))

    def test_concat_is_free(self):
        blk = BLOCKS["Concat"]([4, 4], {})
        with meter.CostMeter() as m:
            blk.forward([rand_input(1, 4, 5, 5), rand_input(1, 4, 5, 5, seed=1)])
        assert (m.macs, m.flops) == (0, 0)

    def test_unloaded_block_derives_shape_and_cost(self):
        # shapes and costs need no weights; a real input does
        fresh = BLOCKS["GAM"]([16], {})
        loaded, _ = make_block("GAM", [16], {})
        assert fresh.out_shape([(1, 16, 8, 8)]) == (1, 16, 8, 8)
        assert fresh.cost([(1, 16, 8, 8)]) == loaded.cost([(1, 16, 8, 8)])
        with pytest.raises(TypeError, match="no data"):
            fresh.forward([rand_input(1, 16, 8, 8)])


def test_registry_covers_expected_kinds():
    expected = {"ConvBNAct", "Bottleneck", "C3", "CrossConv", "C3CrossConv",
                "GhostConv", "GhostBottleneck", "C3Ghost", "GAM", "SPPF",
                "Upsample", "Concat", "Detect"}
    assert set(BLOCKS) == expected
    assert all(BLOCKS[kind].KIND == kind for kind in BLOCKS)
    assert set(C3_FAMILY) == {"C3", "C3Ghost", "C3CrossConv"}


# the manifest of every PARITY_CASES block: "path shape" per entry, in
# order, under the prefix "b". Some of these blocks (GhostBottleneck at
# s=2; Bottleneck, CrossConv and GhostConv as layers) occur in no bundled
# config, so the config digests in test_costs cannot see their manifests.
MANIFESTS = {
    "ConvBNAct-0": "conv.weight 8x6x3x3; norm.scale 8; norm.shift 8",
    "Bottleneck-1": (
        "cv1.conv.weight 8x8x1x1; cv1.norm.scale 8; cv1.norm.shift 8; "
        "cv2.conv.weight 8x8x3x3; cv2.norm.scale 8; cv2.norm.shift 8"
    ),
    "C3-2": (
        "cv1.conv.weight 4x8x1x1; cv1.norm.scale 4; cv1.norm.shift 4; "
        "cv2.conv.weight 4x8x1x1; cv2.norm.scale 4; cv2.norm.shift 4; "
        "m0.cv1.conv.weight 4x4x1x1; m0.cv1.norm.scale 4; "
        "m0.cv1.norm.shift 4; m0.cv2.conv.weight 4x4x3x3; "
        "m0.cv2.norm.scale 4; m0.cv2.norm.shift 4; "
        "m1.cv1.conv.weight 4x4x1x1; m1.cv1.norm.scale 4; "
        "m1.cv1.norm.shift 4; m1.cv2.conv.weight 4x4x3x3; "
        "m1.cv2.norm.scale 4; m1.cv2.norm.shift 4; cv3.conv.weight 8x8x1x1; "
        "cv3.norm.scale 8; cv3.norm.shift 8"
    ),
    "CrossConv-3": (
        "cv1.conv.weight 8x8x1x3; cv1.norm.scale 8; cv1.norm.shift 8; "
        "cv2.conv.weight 8x8x3x1; cv2.norm.scale 8; cv2.norm.shift 8"
    ),
    "C3CrossConv-4": (
        "cv1.conv.weight 4x8x1x1; cv1.norm.scale 4; cv1.norm.shift 4; "
        "cv2.conv.weight 4x8x1x1; cv2.norm.scale 4; cv2.norm.shift 4; "
        "m0.cv1.conv.weight 4x4x1x1; m0.cv1.norm.scale 4; "
        "m0.cv1.norm.shift 4; m0.cv2.cv1.conv.weight 4x4x1x3; "
        "m0.cv2.cv1.norm.scale 4; m0.cv2.cv1.norm.shift 4; "
        "m0.cv2.cv2.conv.weight 4x4x3x1; m0.cv2.cv2.norm.scale 4; "
        "m0.cv2.cv2.norm.shift 4; m1.cv1.conv.weight 4x4x1x1; "
        "m1.cv1.norm.scale 4; m1.cv1.norm.shift 4; "
        "m1.cv2.cv1.conv.weight 4x4x1x3; m1.cv2.cv1.norm.scale 4; "
        "m1.cv2.cv1.norm.shift 4; m1.cv2.cv2.conv.weight 4x4x3x1; "
        "m1.cv2.cv2.norm.scale 4; m1.cv2.cv2.norm.shift 4; "
        "cv3.conv.weight 8x8x1x1; cv3.norm.scale 8; cv3.norm.shift 8"
    ),
    "GhostConv-5": (
        "primary.conv.weight 6x8x1x1; primary.norm.scale 6; "
        "primary.norm.shift 6; cheap.conv.weight 6x1x5x5; "
        "cheap.norm.scale 6; cheap.norm.shift 6"
    ),
    "GhostBottleneck-6": (
        "g1.primary.conv.weight 3x12x1x1; g1.primary.norm.scale 3; "
        "g1.primary.norm.shift 3; g1.cheap.conv.weight 3x1x5x5; "
        "g1.cheap.norm.scale 3; g1.cheap.norm.shift 3; "
        "g2.primary.conv.weight 6x6x1x1; g2.primary.norm.scale 6; "
        "g2.primary.norm.shift 6; g2.cheap.conv.weight 6x1x5x5; "
        "g2.cheap.norm.scale 6; g2.cheap.norm.shift 6"
    ),
    "GhostBottleneck-7": (
        "g1.primary.conv.weight 4x12x1x1; g1.primary.norm.scale 4; "
        "g1.primary.norm.shift 4; g1.cheap.conv.weight 4x1x5x5; "
        "g1.cheap.norm.scale 4; g1.cheap.norm.shift 4; "
        "dw.conv.weight 8x1x3x3; dw.norm.scale 8; dw.norm.shift 8; "
        "g2.primary.conv.weight 8x8x1x1; g2.primary.norm.scale 8; "
        "g2.primary.norm.shift 8; g2.cheap.conv.weight 8x1x5x5; "
        "g2.cheap.norm.scale 8; g2.cheap.norm.shift 8; "
        "sc_dw.conv.weight 12x1x3x3; sc_dw.norm.scale 12; "
        "sc_dw.norm.shift 12; sc_pw.conv.weight 16x12x1x1; "
        "sc_pw.norm.scale 16; sc_pw.norm.shift 16"
    ),
    "C3Ghost-8": (
        "cv1.conv.weight 8x16x1x1; cv1.norm.scale 8; cv1.norm.shift 8; "
        "cv2.conv.weight 8x16x1x1; cv2.norm.scale 8; cv2.norm.shift 8; "
        "m0.g1.primary.conv.weight 2x8x1x1; m0.g1.primary.norm.scale 2; "
        "m0.g1.primary.norm.shift 2; m0.g1.cheap.conv.weight 2x1x5x5; "
        "m0.g1.cheap.norm.scale 2; m0.g1.cheap.norm.shift 2; "
        "m0.g2.primary.conv.weight 4x4x1x1; m0.g2.primary.norm.scale 4; "
        "m0.g2.primary.norm.shift 4; m0.g2.cheap.conv.weight 4x1x5x5; "
        "m0.g2.cheap.norm.scale 4; m0.g2.cheap.norm.shift 4; "
        "cv3.conv.weight 16x16x1x1; cv3.norm.scale 16; cv3.norm.shift 16"
    ),
    "GAM-9": (
        "fc1.weight 4x16; fc1.bias 4; fc2.weight 16x4; fc2.bias 16; "
        "sconv1.conv.weight 4x4x7x7; sconv1.conv.bias 4; "
        "sconv2.conv.weight 16x1x7x7; sconv2.conv.bias 16"
    ),
    "SPPF-10": (
        "cv1.conv.weight 4x8x1x1; cv1.norm.scale 4; cv1.norm.shift 4; "
        "cv2.conv.weight 8x16x1x1; cv2.norm.scale 8; cv2.norm.shift 8"
    ),
    "Upsample-11": "",
    "Concat-12": "",
}


@pytest.mark.parametrize("kind,cins,args,shape", PARITY_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(PARITY_CASES)])
def test_manifest_is_pinned(request, kind, cins, args, shape):
    blk = BLOCKS[kind](cins, dict(args))
    got = "; ".join(f"{path[2:]} {'x'.join(map(str, shp))}"
                    for path, shp in blk.param_specs("b"))
    assert got == MANIFESTS[request.node.callspec.id]


class TestArgumentBinding:
    """The base constructor checks names, types and the input count."""

    def test_missing_required_argument_named(self):
        with pytest.raises(ConfigError, match="missing required argument 'out'"):
            BLOCKS["SPPF"]([8], {"k": 5})

    def test_single_input_kind_rejects_two(self):
        with pytest.raises(ConfigError, match="takes exactly one input, got 2"):
            BLOCKS["ConvBNAct"]([3, 3], {"out": 8})

    @pytest.mark.parametrize("kind,cins,args,message", [
        ("SPPF", [8], {"out": 8, "k": "5"}, "'k' must be int, got '5'"),
        ("C3", [8], {"out": 8, "e": "x"}, "'e' must be float or int"),
        ("CrossConv", [8], {"out": 8, "e": "x"}, "'e' must be float or int"),
        ("ConvBNAct", [3], {"out": 8, "act": ["x"]}, "'act' must be str or None"),
        ("ConvBNAct", [3], {"out": True}, "'out' must be int, got True"),
        ("ConvBNAct", [3], {"out": 8, "k": True}, "'k' must be int or list"),
        ("ConvBNAct", [3], {"out": 8, "k": [True, 3]}, "pair of ints"),
        ("C3", [8], {"out": 8, "shortcut": 1}, "'shortcut' must be bool, got 1"),
        ("Detect", [8], {"nc": 2.0}, "'nc' must be int, got 2.0"),
    ])
    def test_mistyped_argument_rejected(self, kind, cins, args, message):
        with pytest.raises(ConfigError, match=message):
            BLOCKS[kind](cins, args)

    @pytest.mark.parametrize("kind,args,message", [
        ("GAM", {"ratio": 0}, "ratio 0 must divide"),
        ("GAM", {"ratio": -4}, "ratio -4 must divide"),
        ("SPPF", {"out": 8, "k": -1}, "odd and positive"),
        ("C3", {"out": 8, "e": float("inf")}, "hidden width inf"),
        ("Bottleneck", {"out": 8, "e": float("nan")}, "hidden width nan"),
        ("CrossConv", {"out": 8, "e": 0.1}, "hidden width 0.8"),
    ])
    def test_out_of_range_value_rejected(self, kind, args, message):
        with pytest.raises(ConfigError, match=message):
            BLOCKS[kind]([16], args)

    def test_width_beyond_the_array_index_limit_rejected(self):
        with pytest.raises(ShapeError, match="index limit"):
            BLOCKS["C3"]([16], {"out": 64, "e": 1e20})

    def test_int_passes_as_float(self):
        a = BLOCKS["Bottleneck"]([8], {"out": 8, "e": 1})
        b = BLOCKS["Bottleneck"]([8], {"out": 8, "e": 1.0})
        assert a.param_specs("b") == b.param_specs("b")

    def test_signature_read_once_per_class(self):
        blocks._signature.cache_clear()
        build_model(find_config("yolo-tla-s"))
        misses = blocks._signature.cache_info().misses
        build_model(find_config("yolo-tla-s"))
        assert blocks._signature.cache_info().misses == misses


# small, so `n` never builds a million units, and weighted to the edge cases
SMALL_INTS = st.one_of(st.integers(-2, 2), st.integers(-2, 64))
VALUES = {
    int: SMALL_INTS,
    float: st.one_of(st.floats(), st.sampled_from([math.inf, math.nan, 1e300])),
    bool: st.booleans(),
    str: st.one_of(st.text(max_size=3), st.sampled_from(["silu", "relu"])),
    type(None): st.none(),
    list: st.lists(SMALL_INTS, max_size=3),
    tuple: st.lists(SMALL_INTS, max_size=3).map(tuple),
}
HOSTILE = st.one_of(*(VALUES[t] for t in (int, float, bool, str, type(None), list)))

# a well-formed (inputs, args) per kind, which each example then corrupts
WELL_FORMED = {kind: (cins, args) for kind, cins, args, _ in PARITY_CASES}
WELL_FORMED["Detect"] = ([8, 16], {"nc": 3})


def argument_values(types):
    """Values of the annotated types half the time (to get past the type
    check), any hostile value otherwise."""
    if not types:
        return HOSTILE
    typed = st.one_of(*(VALUES[t] for t in types))
    return st.booleans().flatmap(lambda well_typed: typed if well_typed else HOSTILE)


@pytest.mark.parametrize("kind", sorted(BLOCKS))
@settings(max_examples=50)
@given(data=st.data())
def test_hostile_block_arguments_raise_only_package_errors(kind, data):
    """Construction plus shape inference with one or two arguments (or an
    unknown name, or the input widths) replaced: only a YoloTlaError, which
    the CLI turns into a one-line error, may escape."""
    cins, args = WELL_FORMED[kind]
    # {argument: accepted types}, as the binder reads them from `build`
    types = {name: t for name, (t, _) in blocks._signature(BLOCKS[kind])[1].items()}
    names = data.draw(st.lists(st.sampled_from([*types, "bogus"]),
                               min_size=1, max_size=2, unique=True))
    args = {**args, **{name: data.draw(argument_values(types.get(name, ())))
                       for name in names}}
    if data.draw(st.integers(0, 3)) == 0:
        cins = data.draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))
    try:
        block = BLOCKS[kind](cins, args)
        block.out_shape([(1, c, 8, 8) for c in cins])
    except YoloTlaError:
        pass
