"""Tensor core: layout rules, primitive kernels, and the convolution oracle.

The loop-nest convolution is the reference implementation. Hand-worked
cases pin it down first; the vectorized path is then required to agree with
it across randomized shapes, strides, padding, and group counts.
"""
import itertools
import time
import warnings

import numpy as np
import pytest

from yolotla.errors import ConfigError, ParseError, ShapeError
from yolotla import meter
from yolotla.tensor import (ConvSpec, Tensor, add, concat_channels, conv2d,
                            conv2d_naive, load_tns, maxpool2d, mul, relu,
                            save_tns, sigmoid, silu, upsample_nearest)


def random_tensor(rng, n, c, h, w, scale=1.0):
    return Tensor(rng.uniform(-scale, scale, size=(n, c, h, w)).astype(np.float32))


def maxpool_reference(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Plain loops: each output is the maximum of its window's in-bounds inputs."""
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    out = np.full((n, c, oh, ow), -np.inf, dtype=np.float32)
    for b, ch, oy, ox in np.ndindex(out.shape):
        for ky, kx in itertools.product(range(kernel), repeat=2):
            iy, ix = oy * stride - pad + ky, ox * stride - pad + kx
            if 0 <= iy < h and 0 <= ix < w:
                out[b, ch, oy, ox] = max(out[b, ch, oy, ox], x[b, ch, iy, ix])
    return out


def conv_reference64(x: np.ndarray, spec: ConvSpec, w: np.ndarray,
                     bias: np.ndarray | None) -> np.ndarray:
    """Float64 convolution over sliding windows, for sizes the loop nest
    cannot reach in test time."""
    n, c = x.shape[:2]
    g = spec.groups
    oh, ow = spec.out_hw(*x.shape[2:])
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (spec.pad_h, spec.pad_h),
                                       (spec.pad_w, spec.pad_w)))
    win = np.lib.stride_tricks.sliding_window_view(
        xp, (spec.kernel_h, spec.kernel_w), axis=(2, 3))
    win = win[:, :, ::spec.stride_h, ::spec.stride_w][:, :, :oh, :ow]
    win = win.reshape(n, g, c // g, oh, ow, spec.kernel_h, spec.kernel_w)
    wg = w.astype(np.float64).reshape(g, spec.out_channels // g, c // g,
                                      spec.kernel_h, spec.kernel_w)
    y = np.einsum("ngcyxij,gocij->ngoyx", win, wg, optimize=True)
    y = y.reshape(n, spec.out_channels, oh, ow)
    if bias is not None:
        y += bias.astype(np.float64).reshape(1, -1, 1, 1)
    return y


class TestTensorType:

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((3, 4, 5), dtype=np.float32))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 0, 4, 4), dtype=np.float32))

    def test_casts_to_contiguous_float32(self):
        raw = np.arange(24, dtype=np.float64).reshape(1, 2, 3, 4)[:, :, ::-1]
        t = Tensor(raw)
        assert t.data.dtype == np.float32
        assert t.data.flags["C_CONTIGUOUS"]

    def test_shape_properties(self):
        t = Tensor.zeros(2, 3, 5, 7)
        assert (t.n, t.c, t.h, t.w) == (2, 3, 5, 7)
        assert t.numel == 2 * 3 * 5 * 7


class TestTnsIO:

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        t = random_tensor(rng, 2, 3, 5, 4)
        path = tmp_path / "t.tns"
        save_tns(t, path)
        back = load_tns(path)
        assert back.shape == t.shape
        assert np.array_equal(back.data, t.data)

    def test_header_layout(self, tmp_path):
        t = Tensor.full(1, 2, 3, 4, 1.5)
        path = tmp_path / "t.tns"
        save_tns(t, path)
        raw = path.read_bytes()
        assert raw[:4] == b"TNS1"
        assert np.frombuffer(raw[4:20], dtype="<u4").tolist() == [1, 2, 3, 4]
        assert len(raw) == 20 + 4 * t.numel

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tns"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError):
            load_tns(path)

    def test_truncated_payload_rejected(self, tmp_path):
        t = Tensor.full(1, 1, 2, 2, 1.0)
        path = tmp_path / "t.tns"
        save_tns(t, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError):
            load_tns(path)

    def test_dims_whose_product_wraps_int64_rejected(self, tmp_path):
        # 65536**4 == 2**64 wraps to 0 in int64, which would match the
        # empty payload of this 20-byte file
        path = tmp_path / "huge.tns"
        path.write_bytes(b"TNS1" + np.full(4, 65536, "<u4").tobytes())
        with pytest.raises(ParseError, match="require"):
            load_tns(path)


class TestConvSpec:

    def test_output_size_formula(self):
        # floor((in + 2*pad - kernel) / stride) + 1, checked over a grid
        for h in range(1, 12):
            for k in range(1, 6):
                for s in range(1, 4):
                    for p in range(0, 3):
                        oh = (h + 2 * p - k) // s + 1
                        spec_ok = oh >= 1
                        spec = None
                        try:
                            spec = ConvSpec(1, 1, k, k, s, s, p, p)
                            got = spec.out_hw(h, h)
                        except ConfigError:
                            assert not spec_ok
                            continue
                        assert spec_ok
                        assert got == (oh, oh)

    def test_rejects_group_mismatch(self):
        with pytest.raises(ConfigError):
            ConvSpec(6, 4, 3, 3, groups=4)

    def test_rejects_empty_output(self):
        spec = ConvSpec(1, 1, 5, 5)
        with pytest.raises(ConfigError):
            spec.out_hw(3, 3)


class TestConvHandCases:
    """Cases small enough to verify on paper, frozen as literals."""

    def test_ones_kernel_sums_window(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        w = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        spec = ConvSpec(1, 1, 2, 2)
        for fn in (conv2d_naive, conv2d):
            out = fn(x, spec, w)
            assert out.shape == (1, 1, 1, 1)
            assert out.data[0, 0, 0, 0] == pytest.approx(10.0)

    def test_identity_kernel_preserves_input(self):
        rng = np.random.default_rng(7)
        x = random_tensor(rng, 2, 3, 6, 5)
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        spec = ConvSpec(3, 3, 1, 1)
        out = conv2d(x, spec, Tensor(w))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_padding_contributes_zero(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        spec = ConvSpec(1, 1, 3, 3, pad_h=1, pad_w=1)
        out = conv2d_naive(x, spec, w)
        # corner windows see 4 ones, edges 6... with 2x2 input every window
        # covers the whole input: all outputs equal 4
        np.testing.assert_allclose(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_bias_shifts_every_output(self):
        x = Tensor.zeros(1, 2, 3, 3)
        w = Tensor(np.zeros((4, 2, 1, 1), dtype=np.float32))
        bias = np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32)
        spec = ConvSpec(2, 4, 1, 1, has_bias=True)
        out = conv2d(x, spec, w, bias)
        for i, b in enumerate(bias):
            np.testing.assert_allclose(out.data[0, i], b)

    def test_stride_two_subsamples(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        spec = ConvSpec(1, 1, 1, 1, stride_h=2, stride_w=2)
        out = conv2d(x, spec, w)
        np.testing.assert_array_equal(out.data[0, 0], [[0.0, 2.0], [8.0, 10.0]])


class TestConvOracle:
    """Vectorized conv must match the loop nest to 1e-5 relative tolerance
    and record exactly the (macs, flops) the loop nest executes."""

    # 1x1 specs the generator rarely draws, checked before the random ones:
    # stride 1 with no padding (the window view reshapes to the input
    # itself), at g=1 and g=2, then at stride 2 and with padding 1.
    FIXED_1X1 = [
        ConvSpec(4, 6, 1, 1),
        ConvSpec(4, 6, 1, 1, groups=2, has_bias=True),
        ConvSpec(4, 6, 1, 1, stride_h=2, stride_w=2),
        ConvSpec(4, 6, 1, 1, pad_h=1, pad_w=1, groups=2),
    ]

    def _case(self, rng, spec, n, h, w):
        x = random_tensor(rng, n, spec.in_channels, h, w)
        wt = Tensor(rng.uniform(-1, 1, size=spec.weight_shape()).astype(np.float32))
        bias = (rng.uniform(-1, 1, size=spec.out_channels).astype(np.float32)
                if spec.has_bias else None)
        return x, spec, wt, bias

    def _random_case(self, rng):
        g = int(rng.choice([1, 1, 1, 2, 4]))
        cin = g * int(rng.integers(1, 4))
        cout = g * int(rng.integers(1, 4))
        kh = int(rng.integers(1, 5))
        kw = int(rng.integers(1, 5))
        sh = int(rng.integers(1, 3))
        sw = int(rng.integers(1, 3))
        ph = int(rng.integers(0, 3))
        pw = int(rng.integers(0, 3))
        h = int(rng.integers(max(1, kh - 2 * ph), 13))
        w = int(rng.integers(max(1, kw - 2 * pw), 13))
        if (h + 2 * ph - kh) // sh + 1 < 1 or (w + 2 * pw - kw) // sw + 1 < 1:
            return None
        n = int(rng.integers(1, 3))
        has_bias = bool(rng.integers(0, 2))
        spec = ConvSpec(cin, cout, kh, kw, sh, sw, ph, pw, groups=g,
                        has_bias=has_bias)
        return self._case(rng, spec, n, h, w)

    def test_randomized_agreement(self):
        fixed_rng = np.random.default_rng(11)
        fixed = [self._case(fixed_rng, spec, 2, 5, 7) for spec in self.FIXED_1X1]
        rng = np.random.default_rng(1234)
        start = time.monotonic()
        done = 0
        grouped = 0
        while done < 120 + len(fixed):
            case = fixed[done] if done < len(fixed) else self._random_case(rng)
            if case is None:
                continue
            x, spec, wt, bias = case
            with meter.CostMeter() as fast_m:
                fast = conv2d(x, spec, wt, bias)
            with meter.CostMeter() as slow_m:
                slow = conv2d_naive(x, spec, wt, bias)
            np.testing.assert_allclose(fast.data, slow.data, rtol=1e-5, atol=1e-6)
            assert (fast_m.macs, fast_m.flops) == (slow_m.macs, slow_m.flops), spec
            done += 1
            grouped += spec.groups > 1
        assert grouped >= 10, "case generator should exercise grouped convs"
        assert time.monotonic() - start < 120.0

    # Float32 dot products of length K: whatever the summation order,
    # |y - y64| <= (K + 2) * 2**-24 * (|W| . |X| + |b|). Specs at the
    # models' real reduction sizes, past criterion 4's small cases.
    @pytest.mark.parametrize("spec, side", [
        (ConvSpec(1024, 64, 1, 1, has_bias=True), 8),
        (ConvSpec(256, 32, 3, 3, pad_h=1, pad_w=1), 10),
        (ConvSpec(256, 32, 3, 3, 2, 2, 1, 1, has_bias=True), 10),
        (ConvSpec(128, 32, 7, 7, pad_h=3, pad_w=3, groups=4), 12),
        (ConvSpec(64, 64, 5, 5, pad_h=2, pad_w=2, groups=64), 12),
        (ConvSpec(3, 32, 6, 6, 2, 2, 2, 2, has_bias=True), 32),
    ], ids=["1x1-1024", "3x3-256", "3x3-256-stride2", "gam-7x7-g4",
            "depthwise-5x5", "stem-6x6-stride2"])
    def test_float32_error_within_the_dot_product_bound(self, spec, side):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, size=(2, spec.in_channels, side, side)).astype(np.float32)
        wt = rng.uniform(-1, 1, size=spec.weight_shape()).astype(np.float32)
        bias = (rng.uniform(-1, 1, size=spec.out_channels).astype(np.float32)
                if spec.has_bias else None)
        y = conv2d(Tensor(x), spec, Tensor(wt), bias).data
        ref = conv_reference64(x, spec, wt, bias)
        scale = conv_reference64(np.abs(x), spec, np.abs(wt),
                                 None if bias is None else np.abs(bias))
        k = spec.in_channels // spec.groups * spec.kernel_h * spec.kernel_w
        bound = (k + 2) * 2.0 ** -24 * scale
        assert np.all(np.abs(y - ref) <= bound)

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(5)
        spec = ConvSpec(3, 4, 3, 3, pad_h=1, pad_w=1)
        wt = Tensor(rng.uniform(-1, 1, size=spec.weight_shape()).astype(np.float32))
        x = random_tensor(rng, 1, 3, 6, 6)
        y = random_tensor(rng, 1, 3, 6, 6)
        a, b = 0.7, -1.3
        mix = Tensor(a * x.data + b * y.data)
        lhs = conv2d(mix, spec, wt).data
        rhs = a * conv2d(x, spec, wt).data + b * conv2d(y, spec, wt).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-5)

    def test_channel_mismatch_names_dimension(self):
        x = Tensor.zeros(1, 3, 4, 4)
        spec = ConvSpec(4, 2, 1, 1)
        wt = Tensor(np.zeros(spec.weight_shape(), dtype=np.float32))
        with pytest.raises(ShapeError, match="in_channels"):
            conv2d(x, spec, wt)

    def test_weight_shape_mismatch_rejected(self):
        x = Tensor.zeros(1, 3, 4, 4)
        spec = ConvSpec(3, 2, 3, 3)
        wt = Tensor(np.zeros((2, 3, 2, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="weight shape"):
            conv2d(x, spec, wt)


class TestElementwise:

    def test_sigmoid_midpoint_and_limits(self):
        x = Tensor(np.array([[[[0.0, 100.0, -100.0, 1.0]]]], dtype=np.float32))
        out = sigmoid(x).data[0, 0, 0]
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(1.0)
        assert out[2] == pytest.approx(0.0, abs=1e-7)
        assert out[3] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)))

    def test_float32_activations_at_extremes(self):
        vals = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=np.float32)
        x = Tensor(vals.reshape(1, 1, 1, -1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = sigmoid(x).data.ravel()
            act = silu(x).data.ravel()
        assert sig.dtype == act.dtype == np.float32
        assert (sig[0], sig[2], sig[4]) == (0.0, 0.5, 1.0)
        assert act[0] == 0.0 and act[4] == 1e4
        with np.errstate(over="ignore"):
            ref = 1.0 / (1.0 + np.exp(-vals.astype(np.float64)))
        # below float32's normal range (sigmoid(-100) = 3.7e-44) no relative
        # tolerance is possible, so the absolute one is the smallest normal
        tiny = np.finfo(np.float32).tiny
        np.testing.assert_allclose(sig, ref, rtol=1e-6, atol=tiny)
        np.testing.assert_allclose(act, vals * ref, rtol=1e-6, atol=tiny)

    def test_relu_clamps_negatives(self):
        x = Tensor(np.array([[[[-2.0, 0.0, 3.5]]]], dtype=np.float32))
        np.testing.assert_array_equal(relu(x).data[0, 0, 0], [0.0, 0.0, 3.5])

    def test_silu_is_x_times_sigmoid(self):
        rng = np.random.default_rng(9)
        x = random_tensor(rng, 1, 2, 4, 4, scale=4.0)
        expect = x.data * (1.0 / (1.0 + np.exp(-x.data.astype(np.float64))))
        np.testing.assert_allclose(silu(x).data, expect, rtol=1e-6)

    def test_add_mul_shape_guard(self):
        a = Tensor.zeros(1, 2, 3, 3)
        b = Tensor.zeros(1, 2, 3, 4)
        with pytest.raises(ShapeError):
            add(a, b)
        with pytest.raises(ShapeError):
            mul(a, b)


class TestSpatialOps:

    def test_upsample_nearest_repeats_pixels(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        out = upsample_nearest(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_concat_stacks_channels_in_order(self):
        a = Tensor.full(1, 2, 2, 2, 1.0)
        b = Tensor.full(1, 3, 2, 2, 2.0)
        out = concat_channels([a, b])
        assert out.shape == (1, 5, 2, 2)
        np.testing.assert_array_equal(out.data[0, :2], a.data[0])
        np.testing.assert_array_equal(out.data[0, 2:], b.data[0])

    def test_concat_rejects_spatial_mismatch(self):
        a = Tensor.zeros(1, 2, 4, 4)
        b = Tensor.zeros(1, 2, 4, 5)
        with pytest.raises(ShapeError):
            concat_channels([a, b])

    def test_maxpool_padding_never_wins(self):
        # all-negative input: -inf padding must not leak into any output
        x = Tensor(np.full((1, 1, 4, 4), -5.0, dtype=np.float32))
        out = maxpool2d(x, kernel=3, stride=1, pad=1)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 4, 4), -5.0))

    def test_maxpool_window_maximum(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = maxpool2d(x, kernel=2, stride=2)
        np.testing.assert_array_equal(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    @pytest.mark.parametrize("kernel,stride,pad",
                             itertools.product(range(1, 6), range(1, 4), range(3)))
    def test_maxpool_matches_loop_reference(self, kernel, stride, pad):
        # coarse values, so many windows hold tied maxima
        rng = np.random.default_rng(100 * kernel + 10 * stride + pad)
        x = (rng.integers(-4, 5, size=(2, 3, 7, 10)) / 2).astype(np.float32)
        out = maxpool2d(Tensor(x), kernel, stride, pad).data
        want = maxpool_reference(x, kernel, stride, pad)
        assert out.shape == want.shape
        np.testing.assert_array_equal(out, want)


class TestMeterHooks:

    def test_conv_macs_match_loop_tally(self):
        rng = np.random.default_rng(21)
        spec = ConvSpec(4, 6, 3, 3, stride_h=2, stride_w=2, pad_h=1, pad_w=1,
                        groups=2)
        x = random_tensor(rng, 2, 4, 9, 7)
        wt = Tensor(rng.uniform(-1, 1, size=spec.weight_shape()).astype(np.float32))
        with meter.CostMeter() as fast_m:
            conv2d(x, spec, wt)
        with meter.CostMeter() as slow_m:
            conv2d_naive(x, spec, wt)
        assert fast_m.macs == slow_m.macs
        oh, ow = spec.out_hw(9, 7)
        assert fast_m.macs == 2 * oh * ow * 6 * 2 * 9

    def test_nested_meters_both_record(self):
        x = Tensor.full(1, 1, 2, 2, 1.0)
        with meter.CostMeter() as outer:
            relu(x)
            with meter.CostMeter() as inner:
                relu(x)
        assert inner.flops == 4
        assert outer.flops == 8

    def test_nested_meters_with_equal_tallies(self):
        # both empty at the inner exit: the inner must leave, the outer stay
        x = Tensor.full(1, 1, 2, 2, 1.0)
        with meter.CostMeter() as outer:
            with meter.CostMeter() as inner:
                pass
            relu(x)
        assert (inner.flops, outer.flops) == (0, 4)

    def test_isolated_scope_hides_enclosing_meters(self):
        x = Tensor.full(1, 1, 2, 2, 1.0)
        with meter.CostMeter() as outer:
            with meter.isolated() as inner:
                relu(x)
            relu(x)
        assert (inner.flops, outer.flops) == (4, 4)


class TestMetaTensors:

    def test_meta_has_shape_but_no_data(self):
        t = Tensor.meta((1, 3, 4, 5))
        assert t.is_meta and t.shape == (1, 3, 4, 5) and t.numel == 60
        with pytest.raises(TypeError, match="no data"):
            t.data

    def test_meta_shape_validated_like_real(self):
        with pytest.raises(ShapeError, match="rank 4"):
            Tensor.meta((3, 4, 5))
        with pytest.raises(ShapeError, match=">= 1"):
            Tensor.meta((1, 0, 4, 5))

    def test_meta_dimension_beyond_the_array_index_limit(self):
        # a width numpy cannot index must fail as a ShapeError, not ValueError
        with pytest.raises(ShapeError, match="index limit"):
            Tensor.meta((1, 2**63, 4, 5))

    def test_kernels_price_meta_like_real(self):
        rng = np.random.default_rng(4)
        spec = ConvSpec(4, 6, 3, 3, stride_h=2, stride_w=1, pad_h=1, pad_w=0,
                        groups=2, has_bias=True)
        wt = Tensor(rng.uniform(-1, 1, spec.weight_shape()).astype(np.float32))
        bias = np.zeros(6, np.float32)
        fc = ConvSpec(12, 5, 1, 1, has_bias=True)
        fc_wt = Tensor(rng.uniform(-1, 1, fc.weight_shape()).astype(np.float32))

        def run(x):
            y = silu(conv2d(x, spec, wt, bias))
            y = maxpool2d(add(y, relu(y)), 3, 1, 1)
            y = concat_channels([mul(y, sigmoid(y)), upsample_nearest(
                maxpool2d(y, 2, 2), 2)])
            return conv2d(y, fc, fc_wt, np.zeros(5, np.float32))

        real = random_tensor(rng, 2, 4, 11, 10)
        with meter.CostMeter() as real_m:
            want = run(real)
        with meter.CostMeter() as meta_m:
            got = run(Tensor.meta(real.shape))
        assert got.is_meta and got.shape == want.shape
        assert real_m.by_kind == meta_m.by_kind

    def test_meta_inputs_are_still_validated(self):
        spec = ConvSpec(4, 6, 3, 3)
        wt = Tensor.meta(spec.weight_shape())
        with pytest.raises(ShapeError, match="in_channels"):
            conv2d(Tensor.meta((1, 5, 8, 8)), spec, wt)
        with pytest.raises(ShapeError, match="spatial"):
            concat_channels([Tensor.meta((1, 2, 4, 4)),
                             Tensor.meta((1, 2, 4, 5))])
