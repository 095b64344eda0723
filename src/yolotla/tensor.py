"""Rank-4 tensor type and the primitive kernels every block builds on.

Layout is fixed at (batch, channels, height, width), row-major, 32-bit
floats. Kernels are pure functions: they never write through an input and
always allocate fresh outputs, so concurrent forward passes over shared
weights are safe; they share one worker pool (below) and stay bit-identical.

Every kernel also accepts meta tensors (shape only, no array). It checks
its arguments and records its cost to the innermost active meter exactly
as for real data, then returns a meta result, so a forward pass over meta
inputs is shape inference and cost analysis in one.

The loop-nest `conv2d_naive` is the exception and the oracle: it has no
meta path and tallies only the work it executes. Every conv path records
exactly the (macs, flops) tally `conv2d_naive` executes. Its values are
float32 dot products of length K = in_channels/groups * kernel_h *
kernel_w, summed in whatever order the BLAS build chooses, plus the bias.
Each output y therefore keeps the standard float32 bound against the exact
value y64, on any BLAS build:

    |y - y64| <= (K + 2) * 2**-24 * (|W| . |X| + |b|)

The bound alone does not keep conv2d within 1e-5 of `conv2d_naive`: at
K = 48 with inputs in [-1, 1] it allows about 1.4e-4. Criterion 4's cases
(K <= 48) are observed to stay within 1e-5, which the randomized oracle
test checks. At the models' widths (K in the thousands) the observed error
relative to max(|y64|, 1) reaches 2e-5 to 3e-5, still inside the bound.
`sigmoid` and `silu` compute in float32 as well; box decoding keeps the
float64 `sigmoid64`. All three are `_logistic`, the one `np.exp` call.

`conv2d` runs each group's GEMM over bands of output rows (row-band
im2col, as in MEC, Cho & Brand 2017). A band holds as many rows as keep
its patch copy, n * K * rows * out_width floats, within `BAND_BYTES`
(1 MiB, about one core's L2), and never fewer than one row. Each band is
one `np.matmul` written straight into its slice of the output. So a conv
allocates its output, the padded input, and one band at a time per thread,
never a whole group's patch matrix (80 MB for GAM's first 7x7 conv).
A band changes the shape of the BLAS call, and BLAS may then sum a dot
product in another order: the bound above still holds, but the last bits
can differ from an unbanded GEMM (README's "Determinism" lists where).
Above `SPLIT_FLOPS` the caller and a pool of CPUs - 1 threads take a conv's
bands one at a time; numpy drops the GIL in copies and GEMMs. Each band is
the serial loop's BLAS call, so bytes never depend on the pool. Workers run
in a copy of the caller's context. The first real conv sets an OpenBLAS to
one thread for the process, so `OPENBLAS_NUM_THREADS` changes no byte.
`BAND_BYTES` also bounds the chunk of float64 class scores that
`postprocess.decode` holds at a time.
"""
from __future__ import annotations

import contextvars
import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import meter
from .errors import ConfigError, ParseError, ShapeError, reading, writing

TNS_MAGIC = b"TNS1"
_MAX_DIM = np.iinfo(np.intp).max   # no numpy array, not even a stand-in, is longer
BAND_BYTES = 1 << 20   # one working-set band; see the module docstring
SPLIT_FLOPS = 1 << 22   # a call of at most this many FLOPs runs on the caller alone
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) - 1   # the CPUs usable, less the caller's
_POOL: dict = {}   # process id -> its workers; a forked child starts its own


class Tensor:
    """Dense (n, C, H, W) float32 array, treated as immutable once built,
    or a shape-only meta tensor whose `.data` raises (see `meta`)."""

    __slots__ = ("_data", "shape")

    def __init__(self, data) -> None:
        arr = np.ascontiguousarray(data, dtype=np.float32)
        self.shape = _checked_shape(arr.shape)
        self._data = arr

    @classmethod
    def meta(cls, shape) -> "Tensor":
        """A shape-only tensor for shape and cost inference."""
        t = cls.__new__(cls)
        t.shape = _checked_shape(tuple(shape))
        t._data = None
        return t

    @property
    def is_meta(self) -> bool:
        return self._data is None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            raise TypeError(f"meta tensor {self.shape} carries no data")
        return self._data

    @property
    def n(self) -> int:
        return self.shape[0]

    @property
    def c(self) -> int:
        return self.shape[1]

    @property
    def h(self) -> int:
        return self.shape[2]

    @property
    def w(self) -> int:
        return self.shape[3]

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    def __repr__(self) -> str:
        return f"Tensor{self.shape}"


def _checked_shape(shape: tuple) -> tuple[int, int, int, int]:
    if len(shape) != 4:
        raise ShapeError(f"tensor must have rank 4 (n, C, H, W), got rank {len(shape)}")
    if min(shape) < 1:
        raise ShapeError(f"every tensor dimension must be >= 1, got {tuple(shape)}")
    if max(shape) > _MAX_DIM:
        raise ShapeError(f"tensor dimension {max(shape)} exceeds the array index "
                         f"limit {_MAX_DIM}")
    return tuple(shape)


def save_tns(t: Tensor, path) -> None:
    """Write a tensor as magic 'TNS1', four little-endian u32 dims, f32 payload."""
    with writing(path) as fh:
        fh.write(TNS_MAGIC)
        fh.write(struct.pack("<4I", *t.shape))
        fh.write(t.data.astype("<f4").tobytes())


def load_tns(path) -> Tensor:
    """Read a tensor written by save_tns, validating magic and payload size."""
    with reading(path, "tensor") as fh:
        return _parse_tns(fh.read(), path)


def _parse_tns(raw: bytes, path) -> Tensor:
    if len(raw) < 20 or raw[:4] != TNS_MAGIC:
        raise ParseError(f"{path}: not a .tns file (bad magic)")
    dims = struct.unpack("<4I", raw[4:20])
    expect = 20 + 4 * math.prod(dims)   # exact; np.prod wraps in int64
    if len(raw) != expect:
        raise ParseError(
            f"{path}: payload is {len(raw) - 20} bytes, dims {dims} require {expect - 20}")
    data = np.frombuffer(raw, dtype="<f4", offset=20).reshape(dims)
    return Tensor(data.copy())


@dataclass(frozen=True)
class ConvSpec:
    """Static description of one 2-D convolution."""

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0
    groups: int = 1
    has_bias: bool = False

    def __post_init__(self) -> None:
        for name in ("in_channels", "out_channels", "kernel_h", "kernel_w",
                     "stride_h", "stride_w", "groups"):
            if getattr(self, name) < 1:
                raise ConfigError(f"conv spec field {name} must be >= 1, got {getattr(self, name)}")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ConfigError(f"conv spec padding must be >= 0, got ({self.pad_h}, {self.pad_w})")
        if self.in_channels % self.groups:
            raise ConfigError(
                f"in_channels {self.in_channels} not divisible by groups {self.groups}")
        if self.out_channels % self.groups:
            raise ConfigError(
                f"out_channels {self.out_channels} not divisible by groups {self.groups}")

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        """Floor-mode output size; rejects configurations that produce nothing."""
        return _window_hw("conv", (h, w), (self.kernel_h, self.kernel_w),
                          (self.stride_h, self.stride_w), (self.pad_h, self.pad_w))

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups,
                self.kernel_h, self.kernel_w)


def _window_hw(what: str, hw, kernel, stride, pad) -> tuple[int, int]:
    """Floor-mode output (height, width) of a window sliding over an ``hw``
    input, each argument an (h, w) pair; refuses an output that is empty."""
    (h, w), (kh, kw), (sh, sw), (ph, pw) = hw, kernel, stride, pad
    oh, ow = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ConfigError(
            f"{what} output size ({oh}, {ow}) is empty for input {hw}, "
            f"kernel {kernel}, stride {stride}, pad {pad}")
    return oh, ow


def _check_conv_args(x: Tensor, spec: ConvSpec, weight: Tensor,
                     bias: np.ndarray | None) -> tuple[int, int, int]:
    """Refuse a conv call whose arguments disagree with ``spec``; return
    the call's output height and width and its input channels per group."""
    if x.c != spec.in_channels:
        raise ShapeError(
            f"input has {x.c} channels, conv spec expects in_channels={spec.in_channels}")
    if weight.shape != spec.weight_shape():
        raise ShapeError(
            f"weight shape {weight.shape} does not match spec shape {spec.weight_shape()} "
            f"(out_channels, in_channels/groups, kernel_h, kernel_w)")
    if spec.has_bias != (bias is not None):
        raise ShapeError(
            f"spec.has_bias={spec.has_bias} but bias {'missing' if bias is None else 'given'}")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeError(
            f"bias shape {bias.shape} must be ({spec.out_channels},) to match out_channels")
    return (*spec.out_hw(x.h, x.w), spec.in_channels // spec.groups)


def _padded(x: Tensor, rows: tuple, cols: tuple, value=0.0) -> np.ndarray:
    """x's array with (top, bottom) ``rows`` and (left, right) ``cols`` of
    ``value`` (x's own array when all are 0): zeros for a conv, -inf for a
    max pool, gray for a letterbox."""
    if not any(rows + cols):
        return x.data
    return np.pad(x.data, ((0, 0), (0, 0), rows, cols), constant_values=value)


def _windows(xp: np.ndarray, kh: int, kw: int, oh: int, ow: int,
             sh: int, sw: int) -> np.ndarray:
    """Read-only (n, C, kh, kw, oh, ow) view of every kernel window of xp."""
    sn, sc, rh, rw = xp.strides
    return as_strided(xp, shape=(*xp.shape[:2], kh, kw, oh, ow),
                      strides=(sn, sc, rh, rw, rh * sh, rw * sw), writeable=False)


def conv2d(x: Tensor, spec: ConvSpec, weight: Tensor,
           bias: np.ndarray | None = None) -> Tensor:
    """Grouped 2-D convolution as float32 GEMMs, one per band of output
    rows in each group, each written straight into its slice of the
    output."""
    oh, ow, cing = _check_conv_args(x, spec, weight, bias)
    n, g = x.n, spec.groups
    kh, kw = spec.kernel_h, spec.kernel_w
    coutg = spec.out_channels // g
    macs, flops = meter.conv_cost(n, spec.out_channels, cing, kh, kw, oh, ow,
                                  bias is not None)
    meter.record("conv2d", macs, flops)
    if x.is_meta:
        return Tensor.meta((n, spec.out_channels, oh, ow))

    _one_blas_thread()
    k = cing * kh * kw
    wmat = weight.data.reshape(g, coutg, k)
    out = np.empty((n, g, coutg, oh * ow), dtype=np.float32)
    view = _windows(_padded(x, (spec.pad_h,) * 2, (spec.pad_w,) * 2),
                    kh, kw, oh, ow, spec.stride_h, spec.stride_w)
    rows = max(1, BAND_BYTES // (4 * n * k * ow))

    def band(gi: int, r0: int, r1: int) -> None:
        np.matmul(wmat[gi], view[:, gi * cing:(gi + 1) * cing, ..., r0:r1, :]
                  .reshape(n, k, (r1 - r0) * ow), out=out[:, gi, :, r0 * ow:r1 * ow])
    _run_items(band, [(gi, r0, min(r0 + rows, oh)) for gi in range(g)
                      for r0 in range(0, oh, rows)], flops)
    out = out.reshape(n, spec.out_channels, oh, ow)
    if bias is not None:   # one pass: a band's slice is strided, 2.6x slower
        out += bias.astype(np.float32).reshape(1, -1, 1, 1)
    return Tensor(out)


@functools.cache
def _one_blas_thread() -> None:
    """Set numpy's BLAS to one thread, process-wide, if it is an OpenBLAS."""
    import ctypes
    core = np._core if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else np.core
    ext = ctypes.CDLL(core._multiarray_umath.__file__)   # dlsym also searches its libraries
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads"):
        if hasattr(ext, name):   # void set(int)
            return ctypes.CFUNCTYPE(None, ctypes.c_int)((name, ext))(1)


def _run_items(fn, items: list[tuple], flops: int) -> None:
    """fn(*item) per item, each writing its own slice of an output array."""
    helpers = min(len(items) - 1, _WORKERS) if flops > SPLIT_FLOPS else 0
    todo = iter(items)   # under the GIL each next() hands one item to one thread
    try:
        if helpers and os.getpid() not in _POOL:   # a racing spare is dropped
            from concurrent.futures import ThreadPoolExecutor
            _POOL.setdefault(os.getpid(), ThreadPoolExecutor(_WORKERS, "yolotla-band"))
        futures = [_POOL[os.getpid()].submit(contextvars.copy_context().run,
                                             _run_share, fn, todo) for _ in range(helpers)]
    except RuntimeError:   # the interpreter is exiting: the caller runs them all
        futures = []
    try:
        _run_share(fn, todo)
    finally:   # a worker that has not started by now is not waited for
        failed = [f.exception() for f in futures if not f.cancel()]
    for exc in filter(None, failed):
        raise exc


def _run_share(fn, items) -> None:
    for item in items:
        fn(*item)


def conv2d_naive(x: Tensor, spec: ConvSpec, weight: Tensor,
                 bias: np.ndarray | None = None) -> Tensor:
    """Direct loop-nest convolution, the reference the fast path is tested against.

    Deliberately unoptimized: plain Python loops, explicit zero padding,
    64-bit Python float accumulation. Multiply-accumulates are tallied as
    executed so instrumented runs report exactly what the loops did. Use
    small inputs only.
    """
    oh, ow, cing = _check_conv_args(x, spec, weight, bias)
    n, g = x.n, spec.groups
    kh, kw = spec.kernel_h, spec.kernel_w
    coutg = spec.out_channels // g

    xp = _padded(x, (spec.pad_h,) * 2, (spec.pad_w,) * 2)
    wd = weight.data
    out = np.empty((n, spec.out_channels, oh, ow), dtype=np.float32)
    macs_done = 0
    for bi in range(n):
        for oc in range(spec.out_channels):
            gi = oc // coutg
            base = gi * cing
            for oy in range(oh):
                iy = oy * spec.stride_h
                for ox in range(ow):
                    ix = ox * spec.stride_w
                    acc = 0.0
                    for ic in range(cing):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += float(xp[bi, base + ic, iy + ky, ix + kx]) * \
                                    float(wd[oc, ic, ky, kx])
                    macs_done += cing * kh * kw
                    if bias is not None:
                        acc += float(bias[oc])
                    out[bi, oc, oy, ox] = acc
    flops = 2 * macs_done + (out.size if bias is not None else 0)
    meter.record("conv2d", macs_done, flops)
    return Tensor(out)


def _binary_check(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} operands must match, got {a.shape} vs {b.shape}")


def _elementwise(fn: str, x: Tensor, compute) -> Tensor:
    """Price fn over x's elements, then run `compute` unless x is meta."""
    meter.record(fn, 0, meter.elementwise_cost(fn, x.numel))
    return x if x.is_meta else Tensor(compute())


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_check(a, b, "add")
    return _elementwise("add", a, lambda: a.data + b.data)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_check(a, b, "mul")
    return _elementwise("mul", a, lambda: a.data * b.data)


def relu(x: Tensor) -> Tensor:
    return _elementwise("relu", x, lambda: np.maximum(x.data, 0.0))


def sigmoid(x: Tensor) -> Tensor:
    return _elementwise("sigmoid", x, lambda: _logistic(x.data))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), the default activation behind every conv block."""
    return _elementwise("silu", x, lambda: np.multiply(
        out := _logistic(x.data), x.data, out=out))


def sigmoid64(arr: np.ndarray) -> np.ndarray:
    """Logistic of a plain array in float64, for box decoding."""
    return _logistic(arr, np.float64)


def _logistic(arr: np.ndarray, dtype=None) -> np.ndarray:
    """1 / (1 + exp(-arr)) in ``dtype`` (arr's own if None), a fresh array.
    exp(-x) overflows to inf below x = -88.7 (float32) or -709.8 (float64),
    giving the exact limit 0, unreported."""
    out = np.negative(arr, dtype=dtype)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def resize_nearest(x: Tensor, new_h: int, new_w: int) -> Tensor:
    """Nearest-neighbor resize (pure data movement); source index =
    center-aligned floor map, exactly i // f for an integer factor f."""
    if x.is_meta:
        return Tensor.meta((x.n, x.c, new_h, new_w))
    data = x.data
    for axis, old, new in ((2, x.h, new_h), (3, x.w, new_w)):
        src = ((np.arange(new) + 0.5) * old / new).astype(int)
        data = np.take(data, np.minimum(src, old - 1), axis=axis)
    return Tensor(data)


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Concatenate along the channel axis; batch and spatial sizes must agree."""
    if not parts:
        raise ShapeError("concat needs at least one input")
    first = parts[0]
    for i, p in enumerate(parts[1:], start=1):
        if (p.n, p.h, p.w) != (first.n, first.h, first.w):
            raise ShapeError(
                f"concat input {i} has (n, H, W) = {(p.n, p.h, p.w)}, "
                f"expected {(first.n, first.h, first.w)}; sources must share "
                f"spatial size")
    if first.is_meta:
        return Tensor.meta((first.n, sum(p.c for p in parts), first.h, first.w))
    return Tensor(np.concatenate([p.data for p in parts], axis=1))


def maxpool2d(x: Tensor, kernel: int, stride: int = 1, pad: int = 0) -> Tensor:
    """Max pooling with -inf padding so borders never dilute the maximum.

    Separable: a running maximum over the window's rows, then over its
    columns. `max` is exact, so each output is its window's maximum; only
    where +0.0 and -0.0 tie for it may either sign come out, as with
    numpy's own reductions."""
    if kernel < 1 or stride < 1 or pad < 0:
        raise ConfigError(f"bad pool arguments kernel={kernel} stride={stride} pad={pad}")
    oh, ow = _window_hw("pool", (x.h, x.w), (kernel,) * 2, (stride,) * 2,
                        (pad,) * 2)
    meter.record("maxpool", 0, meter.maxpool_cost(x.n * x.c * oh * ow, kernel, kernel))
    if x.is_meta:
        return Tensor.meta((x.n, x.c, oh, ow))
    xp = _padded(x, (pad,) * 2, (pad,) * 2, -np.inf)
    return Tensor(_tap_max(_tap_max(xp, 2, kernel, stride, oh),
                           3, kernel, stride, ow))


def _tap_max(a: np.ndarray, axis: int, kernel: int, stride: int,
             size: int) -> np.ndarray:
    """Running `np.maximum` of the ``kernel`` strided slices of ``a`` along
    ``axis`` that a pool of that stride and output ``size`` reads; a fresh
    array, never a view of ``a``."""
    index = [slice(None)] * a.ndim
    out = None
    for k in range(kernel):
        index[axis] = slice(k, k + (size - 1) * stride + 1, stride)
        tap = a[tuple(index)]
        out = tap.copy() if out is None else np.maximum(out, tap, out=out)
    return out
