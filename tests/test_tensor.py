"""Tensor core: layout rules, primitive kernels, and the convolution oracle.

The loop-nest convolution is the reference implementation. Hand-worked
cases pin it down first; the vectorized path is then required to agree with
it across randomized shapes, strides, padding, and group counts.
"""
import bisect
import contextlib
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yolotla.cli import conv_agrees
from yolotla.errors import ConfigError, ParseError, ShapeError
from yolotla import meter, tensor
from yolotla.tensor import (ConvSpec, Tensor, add, concat_channels, conv2d,
                            conv2d_naive, load_tns, maxpool2d, mul, relu,
                            resize_nearest, save_tns, sigmoid, sigmoid64,
                            silu)


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


def resize_reference(x: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """The letterbox resampler that `resize_nearest` replaced: one fancy
    index over both axes."""
    n, c, h, w = x.shape
    rows = np.minimum(((np.arange(new_h) + 0.5) * h / new_h).astype(int),
                      h - 1)
    cols = np.minimum(((np.arange(new_w) + 0.5) * w / new_w).astype(int),
                      w - 1)
    return x[:, :, rows[:, None], cols[None, :]]


def upsample_reference(x: np.ndarray, factor: int) -> np.ndarray:
    """The neck's upsampler that `resize_nearest` replaced."""
    return np.repeat(np.repeat(x, factor, axis=2), factor, axis=3)


def sigmoid64_reference(arr: np.ndarray) -> np.ndarray:
    """The float64 logistic that `_logistic` replaced in `sigmoid64`."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-arr.astype(np.float64)))


def logistic_serial_reference(arr: np.ndarray, times_x: bool) -> np.ndarray:
    """`sigmoid` (``times_x`` False) or `silu` as one pass over the whole
    array on the calling thread."""
    out = np.negative(arr)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    if times_x:
        out *= arr
    return out


def conv2d_serial_reference(x: Tensor, spec: ConvSpec, weight: Tensor,
                            bias: np.ndarray | None = None) -> np.ndarray:
    """The band loop `conv2d` ran before the pool: each (group, band) GEMM
    in turn on the calling thread, then the bias over the whole output."""
    oh, ow = spec.out_hw(x.h, x.w)
    n, g = x.n, spec.groups
    kh, kw = spec.kernel_h, spec.kernel_w
    cing, coutg = spec.in_channels // g, spec.out_channels // g
    k = cing * kh * kw
    wmat = weight.data.reshape(g, coutg, k)
    out = np.empty((n, g, coutg, oh * ow), dtype=np.float32)
    view = tensor._windows(
        tensor._padded(x, (spec.pad_h,) * 2, (spec.pad_w,) * 2),
        kh, kw, oh, ow, spec.stride_h, spec.stride_w)
    rows = max(1, tensor.BAND_BYTES // (4 * n * k * ow))
    for gi in range(g):
        patches = view[:, gi * cing:(gi + 1) * cing]
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            np.matmul(wmat[gi],
                      patches[..., r0:r1, :].reshape(n, k, (r1 - r0) * ow),
                      out=out[:, gi, :, r0 * ow:r1 * ow])
    out = out.reshape(n, spec.out_channels, oh, ow)
    if bias is not None:
        out += bias.astype(np.float32).reshape(1, -1, 1, 1)
    return out


@contextlib.contextmanager
def shares_seen(until="started", **constants):
    """Set tensor's module ``constants`` (SPLIT_FLOPS, BAND_BYTES) for the
    block and yield the set of threads that ran a share of some
    `_run_items` call's items. The caller takes no item until each worker
    handed a share has ``until`` "started" (so every call that splits runs
    on the pool, however small) or "ended" its share."""
    threads = set()
    signals = {"started": threading.Semaphore(0),
               "ended": threading.Semaphore(0)}
    handed = []
    run_share = tensor._run_share

    def spy(fn, items):
        threads.add(threading.get_ident())
        if threading.current_thread().name.startswith("yolotla-band"):
            signals["started"].release()
            try:
                run_share(fn, items)
            finally:
                signals["ended"].release()
            return
        while handed:
            handed.pop()
            assert signals[until].acquire(timeout=60)
        run_share(fn, items)

    with pytest.MonkeyPatch.context() as mp:
        tensor._run_items(lambda: None, [(), ()], math.inf)   # starts the pool
        pool = tensor._POOL.get(os.getpid())
        if pool:
            submit = pool.submit

            def counted(*args):
                handed.append(None)
                return submit(*args)

            mp.setattr(pool, "submit", counted)
        mp.setattr(tensor, "_run_share", spy)
        for name, value in constants.items():
            mp.setattr(tensor, name, value)
        yield threads


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


# Convs whose output rows split into several bands at the module's
# BAND_BYTES, the last band partial, for a batch of two: stride 2 with
# padding, GAM's grouped 7x7 (its first conv), and a depthwise 5x5.
BANDED = [
    pytest.param(ConvSpec(64, 32, 3, 3, 2, 2, 1, 1, has_bias=True), 84,
                 id="banded-3x3-stride2"),
    pytest.param(ConvSpec(64, 16, 7, 7, pad_h=3, pad_w=3, groups=4,
                          has_bias=True), 44, id="banded-gam-7x7-g4"),
    pytest.param(ConvSpec(8, 8, 5, 5, pad_h=2, pad_w=2, groups=8,
                          has_bias=True), 128, id="banded-depthwise-5x5"),
]


def record_gemms(monkeypatch) -> list[tuple[int, int]]:
    """Patch np.matmul to log (patch bytes, output columns) per call, in
    the order of the output slices the calls write: the pool may run the
    bands in any order."""
    calls, starts = [], []
    lock = threading.Lock()
    matmul = np.matmul

    def spy(a, b, out):
        with lock:
            i = bisect.bisect(starts, out.ctypes.data)
            starts.insert(i, out.ctypes.data)
            calls.insert(i, (b.nbytes, out.shape[-1]))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


@st.composite
def banded_convs(draw):
    """(spec, batch, side, rows per band) of a conv call with two or more
    bands: dense, grouped or depthwise, kernel 1 to 7, stride 1 or 2, and
    padding up to half the kernel."""
    kernel = draw(st.sampled_from([1, 3, 5, 7]))
    stride = draw(st.integers(1, 2))
    pad = draw(st.integers(0, kernel // 2))
    groups = draw(st.sampled_from([1, 2, 4]))
    if draw(st.booleans()):
        cin = cout = groups
    else:
        cin, cout = (groups * draw(st.integers(1, 3)) for _ in range(2))
    spec = ConvSpec(cin, cout, kernel, kernel, stride, stride, pad, pad,
                    groups, has_bias=draw(st.booleans()))
    side = draw(st.integers(kernel + stride, 20))
    oh = spec.out_hw(side, side)[0]
    return spec, draw(st.integers(1, 2)), side, draw(st.integers(1, oh - 1))


# A conv big enough to split at the module's constants, run in a process
# that forks after the pool has started; argv[1] is the package's parent.
FORK_PROBE = """
import os, signal, sys, threading
sys.path.insert(0, sys.argv[1])
from yolotla import tensor
from yolotla.tensor import ConvSpec, Tensor, conv2d
spec = ConvSpec(64, 32, 3, 3, 2, 2, 1, 1)
x = Tensor(tensor.np.zeros((2, 64, 84, 84)))
wt = Tensor(tensor.np.zeros(spec.weight_shape()))
conv2d(x, spec, wt)
pid = os.fork()
if pid == 0:
    signal.alarm(30)   # a child that hangs must not outlive the test
    conv2d(x, spec, wt)
    workers = [t for t in threading.enumerate() if t.name.startswith("yolotla")]
    os._exit(0 if bool(workers) == (tensor._WORKERS > 0) else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

# The same conv from an atexit handler, which runs after the pool's workers
# have been shut down; argv[2] says whether the pool started before exit.
EXIT_PROBE = """
import atexit, math, sys
sys.path.insert(0, sys.argv[1])
from yolotla import tensor
from yolotla.tensor import ConvSpec, Tensor, conv2d
spec = ConvSpec(64, 32, 3, 3, 2, 2, 1, 1)
x = Tensor(tensor.np.linspace(-1, 1, 2 * 64 * 84 * 84, dtype="f4").reshape(2, 64, 84, 84))
wt = Tensor(tensor.np.full(spec.weight_shape(), 0.5, "f4"))
limit, tensor.SPLIT_FLOPS = tensor.SPLIT_FLOPS, math.inf
want = conv2d(x, spec, wt).data.tobytes()
tensor.SPLIT_FLOPS = limit
if sys.argv[2] == "started":
    conv2d(x, spec, wt)
atexit.register(lambda: print(conv2d(x, spec, wt).data.tobytes() == want))
"""


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
        t = Tensor(np.zeros((2, 3, 5, 7)))
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
        t = Tensor(np.full((1, 2, 3, 4), 1.5))
        path = tmp_path / "t.tns"
        save_tns(t, path)
        raw = path.read_bytes()
        assert raw[:4] == b"TNS1"
        assert np.frombuffer(raw[4:20], dtype="<u4").tolist() == [1, 2, 3, 4]
        assert len(raw) == 20 + 4 * t.numel

    def test_missing_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "missing.tns"
        with pytest.raises(ParseError, match=f"^cannot read tensor {path}: "
                                             f"No such file or directory$"):
            load_tns(path)

    @pytest.mark.parametrize("old", [None, b"old bytes"], ids=["new", "old"])
    def test_refused_save_leaves_the_path_as_it_was(self, tmp_path, old):
        path = tmp_path / "t.tns"
        if old:
            path.write_bytes(old)
        with pytest.raises(TypeError, match="carries no data"):
            save_tns(Tensor.meta((1, 3, 4, 4)), path)
        assert list(tmp_path.iterdir()) == ([path] if old else [])
        assert not old or path.read_bytes() == old

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tns"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError):
            load_tns(path)

    def test_truncated_payload_rejected(self, tmp_path):
        t = Tensor(np.full((1, 1, 2, 2), 1.0))
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

    @pytest.mark.parametrize("fields, message", [
        ({"pad_w": -1}, r"padding must be >= 0, got \(0, -1\)"),
        ({"in_channels": 8, "groups": 4}, "out_channels 6 not divisible"),
    ], ids=["negative-pad", "out-channels-not-divisible"])
    def test_rejects_bad_fields(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            ConvSpec(**{"in_channels": 4, "out_channels": 6, "kernel_h": 3,
                        "kernel_w": 3, **fields})

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
        x = Tensor(np.zeros((1, 2, 3, 3)))
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
        pytest.param(ConvSpec(1024, 64, 1, 1, has_bias=True), 8, id="1x1-1024"),
        pytest.param(ConvSpec(256, 32, 3, 3, pad_h=1, pad_w=1), 10, id="3x3-256"),
        pytest.param(ConvSpec(256, 32, 3, 3, 2, 2, 1, 1, has_bias=True), 10,
                     id="3x3-256-stride2"),
        pytest.param(ConvSpec(128, 32, 7, 7, pad_h=3, pad_w=3, groups=4), 12,
                     id="gam-7x7-g4"),
        pytest.param(ConvSpec(64, 64, 5, 5, pad_h=2, pad_w=2, groups=64), 12,
                     id="depthwise-5x5"),
        pytest.param(ConvSpec(3, 32, 6, 6, 2, 2, 2, 2, has_bias=True), 32,
                     id="stem-6x6-stride2"),
        *BANDED,
    ])
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
        x = Tensor(np.zeros((1, 3, 4, 4)))
        spec = ConvSpec(4, 2, 1, 1)
        wt = Tensor(np.zeros(spec.weight_shape(), dtype=np.float32))
        with pytest.raises(ShapeError, match="in_channels"):
            conv2d(x, spec, wt)

    def test_weight_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        spec = ConvSpec(3, 2, 3, 3)
        wt = Tensor(np.zeros((2, 3, 2, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="weight shape"):
            conv2d(x, spec, wt)

    @pytest.mark.parametrize("has_bias, bias, message", [
        (False, np.zeros(2, np.float32), "has_bias=False but bias given"),
        (True, None, "has_bias=True but bias missing"),
        (True, np.zeros(3, np.float32), r"bias shape \(3,\) must be \(2,\)"),
    ], ids=["given", "missing", "wrong-shape"])
    def test_bias_mismatch_rejected(self, has_bias, bias, message):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        spec = ConvSpec(3, 2, 1, 1, has_bias=has_bias)
        wt = Tensor(np.zeros(spec.weight_shape(), dtype=np.float32))
        with pytest.raises(ShapeError, match=message):
            conv2d(x, spec, wt, bias)


class TestConvBands:
    """conv2d runs each group's GEMM over bands of output rows whose patch
    copy stays within BAND_BYTES (see tensor.py)."""

    @pytest.mark.parametrize("spec, side", BANDED)
    def test_module_band_size_splits_these_convs(self, monkeypatch, spec,
                                                 side):
        x = Tensor(np.zeros((2, spec.in_channels, side, side)))
        wt = Tensor(np.zeros(spec.weight_shape()))
        bias = np.zeros(spec.out_channels, np.float32) if spec.has_bias else None
        gemms = record_gemms(monkeypatch)
        conv2d(x, spec, wt, bias)
        per_group = len(gemms) // spec.groups
        widths = [cols for _, cols in gemms[:per_group]]
        assert per_group >= 2 and widths[-1] < widths[0]
        assert sum(widths) == np.prod(spec.out_hw(side, side))
        assert max(nbytes for nbytes, _ in gemms) <= tensor.BAND_BYTES

    # two-row bands over an odd row count, small enough for the loop nest:
    # stride 2 with padding, grouped 7x7, depthwise, and the 1x1 whose
    # bands are views of the input
    @pytest.mark.parametrize("spec, side", [
        (ConvSpec(4, 6, 3, 3, 2, 2, 1, 1, has_bias=True), 13),
        (ConvSpec(8, 8, 7, 7, pad_h=3, pad_w=3, groups=4), 9),
        (ConvSpec(6, 6, 5, 5, pad_h=2, pad_w=2, groups=6, has_bias=True), 11),
        (ConvSpec(4, 6, 1, 1), 7),
    ], ids=["3x3-stride2", "7x7-g4", "depthwise-5x5", "1x1"])
    def test_agrees_with_the_loop_nest_across_bands(self, monkeypatch, spec,
                                                    side):
        rng = np.random.default_rng(31)
        oh, ow = spec.out_hw(side, side)
        k = spec.in_channels // spec.groups * spec.kernel_h * spec.kernel_w
        monkeypatch.setattr(tensor, "BAND_BYTES", 4 * 2 * k * ow * 2)
        x = random_tensor(rng, 2, spec.in_channels, side, side)
        wt = Tensor(rng.uniform(-1, 1, size=spec.weight_shape()).astype(np.float32))
        bias = (rng.uniform(-1, 1, size=spec.out_channels).astype(np.float32)
                if spec.has_bias else None)
        gemms = record_gemms(monkeypatch)
        assert conv_agrees(x, spec, wt, bias)
        assert [cols for _, cols in gemms] == (
            [2 * ow] * (oh // 2) + [ow]) * spec.groups

    def test_peak_is_output_padded_input_and_two_bands(self):
        # GAM's first conv in yolo-tla-s at 640; one patch matrix per group
        # was 80 MB before bands
        spec = ConvSpec(64, 16, 7, 7, pad_h=3, pad_w=3, groups=4, has_bias=True)
        rng = np.random.default_rng(8)
        x = random_tensor(rng, 1, 64, 160, 160)
        wt = Tensor(rng.uniform(-1, 1, size=spec.weight_shape()).astype(np.float32))
        bias = rng.uniform(-1, 1, size=16).astype(np.float32)
        tracemalloc.start()
        try:
            out = conv2d(x, spec, wt, bias)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded = 4 * 64 * 166 * 166
        # the caller and each pool worker copy one band at a time
        bands = max(2, tensor._WORKERS + 1)
        assert peak <= out.data.nbytes + padded + bands * tensor.BAND_BYTES

    @settings(max_examples=150)
    @given(case=banded_convs(), seed=st.integers(0, 2**32 - 1))
    @example(case=(ConvSpec(16, 16, 5, 5, pad_h=2, pad_w=2, groups=16,
                            has_bias=True), 1, 20, 3), seed=0)
    @example(case=(ConvSpec(16, 4, 7, 7, pad_h=3, pad_w=3, groups=4,
                            has_bias=True), 2, 20, 4), seed=0)
    def test_pool_bands_equal_the_serial_loop(self, case, seed):
        # every call split, bands of ``rows`` output rows: the bytes equal
        # the serial loop's, whatever thread ran each band
        spec, n, side, rows = case
        rng = np.random.default_rng(seed)
        x = random_tensor(rng, n, spec.in_channels, side, side)
        wt = Tensor(rng.uniform(-1, 1, spec.weight_shape()).astype(np.float32))
        bias = (rng.uniform(-1, 1, spec.out_channels).astype(np.float32)
                if spec.has_bias else None)
        k = spec.in_channels // spec.groups * spec.kernel_h * spec.kernel_w
        ow = spec.out_hw(side, side)[1]
        with shares_seen(SPLIT_FLOPS=-1, BAND_BYTES=4 * n * k * ow * rows) \
                as threads:
            got = conv2d(x, spec, wt, bias).data
            want = conv2d_serial_reference(x, spec, wt, bias)
        assert got.tobytes() == want.tobytes()
        assert (len(threads) > 1) == (tensor._WORKERS > 0)

    @pytest.mark.parametrize("spec, side", BANDED)
    def test_module_constants_split_these_convs_bit_exactly(self, spec, side):
        rng = np.random.default_rng(12)
        x = random_tensor(rng, 2, spec.in_channels, side, side)
        wt = Tensor(rng.uniform(-1, 1, spec.weight_shape()).astype(np.float32))
        bias = rng.uniform(-1, 1, spec.out_channels).astype(np.float32)
        with shares_seen() as threads:
            got = conv2d(x, spec, wt, bias).data
        assert got.tobytes() == conv2d_serial_reference(x, spec, wt,
                                                        bias).tobytes()
        assert (len(threads) > 1) == (tensor._WORKERS > 0)

    def test_an_error_in_a_worker_reaches_the_caller(self):
        # only the first band overflows, and the worker takes it while the
        # caller waits; the caller runs the rest, then raises the worker's
        # error, and the pool serves the next call as before
        spec = ConvSpec(4, 4, 3, 3, pad_h=1, pad_w=1)
        x = np.zeros((1, 4, 16, 16), np.float32)
        x[..., 0, :] = 3e38
        wt = Tensor(np.full(spec.weight_shape(), 3e38, np.float32))
        with shares_seen("ended", SPLIT_FLOPS=-1,
                         BAND_BYTES=4 * 36 * 16 * 4) as threads:
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                conv2d(Tensor(x), spec, wt)
            x[..., 0, :], wt = 1.0, Tensor(np.ones(spec.weight_shape(),
                                                   np.float32))
            got = conv2d(Tensor(x), spec, wt).data
            want = conv2d_serial_reference(Tensor(x), spec, wt)
        assert got.tobytes() == want.tobytes()
        assert (len(threads) > 1) == (tensor._WORKERS > 0)

    @pytest.mark.parametrize("pool", ["started", "unstarted"])
    def test_a_conv_at_interpreter_exit_runs_on_the_caller(self, pool):
        # once the interpreter has shut the pool down it takes no work
        done = subprocess.run(
            [sys.executable, "-c", EXIT_PROBE,
             str(Path(tensor.__file__).parent.parent), pool],
            capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")

    def test_a_forked_child_starts_its_own_pool(self):
        # the parent's workers do not exist in a forked child; bands
        # queued to them would never run, and their queue would hold
        # every call's arrays
        done = subprocess.run(
            [sys.executable, "-c", FORK_PROBE,
             str(Path(tensor.__file__).parent.parent)],
            capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


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

    @settings(max_examples=200)
    @given(values=st.lists(st.floats(width=32, allow_nan=False), min_size=1,
                           max_size=64))
    def test_sigmoid64_equals_the_old_formula(self, values):
        # float32 values up to +-float32 max and the infinities; exp(-x)
        # overflows float64 below x = -709.8
        arr = np.array(values + [-710.0, -1e4, -3.4e38], np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid64(arr)
        want = sigmoid64_reference(arr)
        assert got.dtype == np.float64
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @settings(max_examples=150)
    @given(shape=st.tuples(st.integers(1, 2), st.integers(1, 9),
                           st.integers(1, 5), st.integers(1, 5)),
           values=st.lists(st.floats(width=32, allow_nan=False), min_size=1,
                           max_size=32),
           split=st.booleans())
    def test_logistics_equal_the_serial_pass(self, shape, values, split):
        # any float32 and the infinities, with every conv split or none:
        # the logistics stay one pass on the caller either way; silu of
        # -inf is 0 * -inf, whose invalid-value warning errstate silences
        arr = np.resize(np.array(values, np.float32), shape)
        with shares_seen(SPLIT_FLOPS=-1 if split else math.inf) as threads:
            with np.errstate(invalid="ignore"):
                got = [f(Tensor(arr)).data for f in (sigmoid, silu)]
                want = [logistic_serial_reference(arr, times_x)
                        for times_x in (False, True)]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert not threads   # no `_run_items` share ran

    @pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
    @pytest.mark.parametrize("fn, times_x", [(sigmoid, False), (silu, True)],
                             ids=["sigmoid", "silu"])
    def test_logistics_split_only_above_the_threshold(self, fn, times_x,
                                                      above):
        unit = meter.ELEMENTWISE_UNIT_COST[fn.__name__]
        width = tensor.SPLIT_FLOPS // (4 * unit) + above
        arr = np.random.default_rng(5).uniform(
            -20, 20, (1, 4, 1, width)).astype(np.float32)
        with shares_seen() as threads:
            got = fn(Tensor(arr)).data
        assert got.tobytes() == logistic_serial_reference(arr, times_x).tobytes()
        assert not threads   # above SPLIT_FLOPS too: only conv bands split

    def test_relu_clamps_negatives(self):
        x = Tensor(np.array([[[[-2.0, 0.0, 3.5]]]], dtype=np.float32))
        np.testing.assert_array_equal(relu(x).data[0, 0, 0], [0.0, 0.0, 3.5])

    def test_silu_is_x_times_sigmoid(self):
        rng = np.random.default_rng(9)
        x = random_tensor(rng, 1, 2, 4, 4, scale=4.0)
        expect = x.data * (1.0 / (1.0 + np.exp(-x.data.astype(np.float64))))
        np.testing.assert_allclose(silu(x).data, expect, rtol=1e-6)

    def test_add_mul_shape_guard(self):
        a = Tensor(np.zeros((1, 2, 3, 3)))
        b = Tensor(np.zeros((1, 2, 3, 4)))
        with pytest.raises(ShapeError):
            add(a, b)
        with pytest.raises(ShapeError):
            mul(a, b)


class TestSpatialOps:

    def test_upsample_nearest_repeats_pixels(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        out = resize_nearest(x, 4, 4)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    @settings(max_examples=200)
    @given(h=st.integers(1, 24), w=st.integers(1, 24),
           new_h=st.integers(1, 48), new_w=st.integers(1, 48),
           factor=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_resize_equals_both_old_resamplers(self, h, w, new_h, new_w,
                                               factor, seed):
        x = random_tensor(np.random.default_rng(seed), 2, 3, h, w)
        pairs = [(resize_nearest(x, new_h, new_w),
                  resize_reference(x.data, new_h, new_w)),
                 (resize_nearest(x, h * factor, w * factor),
                  upsample_reference(x.data, factor))]
        for got, want in pairs:
            assert got.data.tobytes() == want.tobytes()
            assert got.shape == want.shape
            assert resize_nearest(Tensor.meta(x.shape), *got.shape[2:]
                                  ).shape == got.shape

    @pytest.mark.parametrize("kernel,stride,pad,message", [
        (0, 1, 0, "bad pool arguments kernel=0 stride=1 pad=0"),
        (5, 1, 0, r"pool output size \(0, 0\) is empty for input \(4, 4\)"),
    ], ids=["kernel-0", "window-past-input"])
    def test_maxpool_refusals(self, kernel, stride, pad, message):
        for x in (Tensor(np.zeros((1, 2, 4, 4))), Tensor.meta((1, 2, 4, 4))):
            with pytest.raises(ConfigError, match=message):
                maxpool2d(x, kernel, stride, pad)

    def test_concat_stacks_channels_in_order(self):
        a = Tensor(np.full((1, 2, 2, 2), 1.0))
        b = Tensor(np.full((1, 3, 2, 2), 2.0))
        out = concat_channels([a, b])
        assert out.shape == (1, 5, 2, 2)
        np.testing.assert_array_equal(out.data[0, :2], a.data[0])
        np.testing.assert_array_equal(out.data[0, 2:], b.data[0])

    def test_concat_rejects_spatial_mismatch(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.zeros((1, 2, 4, 5)))
        with pytest.raises(ShapeError):
            concat_channels([a, b])

    def test_concat_rejects_no_inputs(self):
        with pytest.raises(ShapeError, match="at least one input"):
            concat_channels([])

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
        # the outer meter counts the work before and after the inner one,
        # not the work inside it
        with meter.CostMeter() as outer:
            relu(Tensor(np.full((1, 1, 1, 1), 1.0)))
            with meter.CostMeter() as inner:
                relu(Tensor(np.full((1, 1, 2, 2), 1.0)))
            relu(Tensor(np.full((1, 1, 3, 3), 1.0)))
        assert (inner.flops, outer.flops) == (4, 1 + 9)

    def test_nested_meters_with_equal_tallies(self):
        # both empty at the inner exit: the inner must leave, the outer stay
        x = Tensor(np.full((1, 1, 2, 2), 1.0))
        with meter.CostMeter() as outer:
            with meter.CostMeter() as inner:
                pass
            relu(x)
        assert (inner.flops, outer.flops) == (0, 4)

    def test_outer_meter_records_again_after_an_inner_raises(self):
        x = Tensor(np.full((1, 1, 2, 2), 1.0))
        with meter.CostMeter() as outer:
            with pytest.raises(ValueError):
                with meter.CostMeter() as inner:
                    relu(x)
                    raise ValueError
            relu(x)
        assert (inner.flops, outer.flops) == (4, 4)

    def test_one_meter_entered_twice_leaves_none_active(self):
        x = Tensor(np.full((1, 1, 2, 2), 1.0))
        m = meter.CostMeter()
        with m:
            with m:
                relu(x)
            relu(x)
        relu(x)   # after both exits: no meter takes it
        assert m.flops == 8

    def test_meters_in_two_threads_see_only_their_own_work(self):
        # the threads take turns round by round, each inside its own meter
        in_step = threading.Barrier(2, timeout=10)
        got = {}

        def work(side):
            x = Tensor(np.full((1, 1, side, side), 1.0))
            with meter.CostMeter() as m:
                for _ in range(50):
                    in_step.wait()
                    relu(x)
            got[side] = m.by_kind

        threads = [threading.Thread(target=work, args=(side,))
                   for side in (2, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == {2: {"relu": meter.OpCost(0, 4 * 50)},
                       3: {"relu": meter.OpCost(0, 9 * 50)}}


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
            y = concat_channels([mul(y, sigmoid(y)), resize_nearest(
                maxpool2d(y, 2, 2), y.h, y.w)])
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
