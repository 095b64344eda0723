"""Rank-4 tensor type and the primitive kernels every block builds on.

Layout is fixed at (batch, channels, height, width), row-major, 32-bit
floats. Kernels are pure functions: they never write through an input and
always allocate fresh outputs, so concurrent forward passes over shared
weights are safe.

Every kernel also accepts meta tensors (shape only, no array). It checks
its arguments and records its cost to the active meters exactly as for
real data, then returns a meta result, so a forward pass over meta inputs
is shape inference and cost analysis in one.

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
float64 `sigmoid64`.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import meter
from .errors import ConfigError, ParseError, ShapeError

TNS_MAGIC = b"TNS1"
_MAX_DIM = np.iinfo(np.intp).max   # no numpy array, not even a stand-in, is longer


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

    @classmethod
    def zeros(cls, n: int, c: int, h: int, w: int) -> "Tensor":
        return cls(np.zeros((n, c, h, w), dtype=np.float32))

    @classmethod
    def full(cls, n: int, c: int, h: int, w: int, value: float) -> "Tensor":
        return cls(np.full((n, c, h, w), value, dtype=np.float32))

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
    with open(path, "wb") as fh:
        fh.write(TNS_MAGIC)
        fh.write(struct.pack("<4I", *t.shape))
        fh.write(t.data.astype("<f4").tobytes())


def load_tns(path) -> Tensor:
    """Read a tensor written by save_tns, validating magic and payload size."""
    raw = Path(path).read_bytes()
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
        oh = (h + 2 * self.pad_h - self.kernel_h) // self.stride_h + 1
        ow = (w + 2 * self.pad_w - self.kernel_w) // self.stride_w + 1
        if oh < 1 or ow < 1:
            raise ConfigError(
                f"conv output size ({oh}, {ow}) is empty for input ({h}, {w}), "
                f"kernel ({self.kernel_h}, {self.kernel_w}), stride "
                f"({self.stride_h}, {self.stride_w}), pad ({self.pad_h}, {self.pad_w})")
        return oh, ow

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups,
                self.kernel_h, self.kernel_w)


def _check_conv_args(x: Tensor, spec: ConvSpec, weight: Tensor,
                     bias: np.ndarray | None) -> None:
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


def _padded(x: Tensor, spec: ConvSpec) -> np.ndarray:
    if spec.pad_h == 0 and spec.pad_w == 0:
        return x.data
    return np.pad(x.data, ((0, 0), (0, 0), (spec.pad_h, spec.pad_h),
                           (spec.pad_w, spec.pad_w)))


def _windows(xp: np.ndarray, kh: int, kw: int, oh: int, ow: int,
             sh: int, sw: int) -> np.ndarray:
    """Read-only (n, C, kh, kw, oh, ow) view of every kernel window of xp."""
    sn, sc, rh, rw = xp.strides
    return as_strided(xp, shape=(*xp.shape[:2], kh, kw, oh, ow),
                      strides=(sn, sc, rh, rw, rh * sh, rw * sw), writeable=False)


def conv2d(x: Tensor, spec: ConvSpec, weight: Tensor,
           bias: np.ndarray | None = None) -> Tensor:
    """Grouped 2-D convolution as float32 GEMMs, one per group, each
    written straight into that group's slice of the output."""
    _check_conv_args(x, spec, weight, bias)
    n, cin = x.n, x.c
    oh, ow = spec.out_hw(x.h, x.w)
    kh, kw = spec.kernel_h, spec.kernel_w
    g = spec.groups
    cing = cin // g
    coutg = spec.out_channels // g
    macs, flops = meter.conv_cost(n, spec.out_channels, cing, kh, kw, oh, ow,
                                  bias is not None)
    meter.record("conv2d", macs, flops)
    if x.is_meta:
        return Tensor.meta((n, spec.out_channels, oh, ow))

    k, p = cing * kh * kw, oh * ow
    wmat = weight.data.reshape(g, coutg, k)
    out = np.empty((n, g, coutg, p), dtype=np.float32)
    view = _windows(_padded(x, spec), kh, kw, oh, ow, spec.stride_h, spec.stride_w)
    for gi in range(g):
        np.matmul(wmat[gi], view[:, gi * cing:(gi + 1) * cing].reshape(n, k, p),
                  out=out[:, gi])
    out = out.reshape(n, spec.out_channels, oh, ow)
    if bias is not None:
        out += bias.astype(np.float32).reshape(1, -1, 1, 1)
    return Tensor(out)


def conv2d_naive(x: Tensor, spec: ConvSpec, weight: Tensor,
                 bias: np.ndarray | None = None) -> Tensor:
    """Direct loop-nest convolution, the reference the fast path is tested against.

    Deliberately unoptimized: plain Python loops, explicit zero padding,
    64-bit Python float accumulation. Multiply-accumulates are tallied as
    executed so instrumented runs report exactly what the loops did. Use
    small inputs only.
    """
    _check_conv_args(x, spec, weight, bias)
    n, cin = x.n, x.c
    oh, ow = spec.out_hw(x.h, x.w)
    kh, kw = spec.kernel_h, spec.kernel_w
    g = spec.groups
    cing = cin // g
    coutg = spec.out_channels // g

    xp = _padded(x, spec)
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
    return _elementwise("sigmoid", x, lambda: _sigmoid32(x.data))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), the default activation behind every conv block."""
    def compute():
        out = _sigmoid32(x.data)
        out *= x.data
        return out
    return _elementwise("silu", x, compute)


def _sigmoid32(arr: np.ndarray) -> np.ndarray:
    """Logistic in float32. exp(-x) overflows to inf below x = -88.7, which
    gives the exact limit 0, so that overflow is expected and not reported."""
    out = np.negative(arr)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid64(arr: np.ndarray) -> np.ndarray:
    """Logistic of a plain array in float64, for box decoding."""
    return 1.0 / (1.0 + np.exp(-arr.astype(np.float64)))


def upsample_nearest(x: Tensor, factor: int = 2) -> Tensor:
    """Integer-factor nearest-neighbor upsampling (pure data movement)."""
    if factor < 1:
        raise ConfigError(f"upsample factor must be >= 1, got {factor}")
    if x.is_meta:
        return Tensor.meta((x.n, x.c, x.h * factor, x.w * factor))
    data = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)
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
    """Max pooling with -inf padding so borders never dilute the maximum."""
    if kernel < 1 or stride < 1 or pad < 0:
        raise ConfigError(f"bad pool arguments kernel={kernel} stride={stride} pad={pad}")
    oh = (x.h + 2 * pad - kernel) // stride + 1
    ow = (x.w + 2 * pad - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ConfigError(f"pool output size ({oh}, {ow}) is empty for input ({x.h}, {x.w})")
    meter.record("maxpool", 0, meter.maxpool_cost(x.n * x.c * oh * ow, kernel, kernel))
    if x.is_meta:
        return Tensor.meta((x.n, x.c, oh, ow))
    xp = x.data
    if pad:
        xp = np.pad(xp, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                    constant_values=-np.inf)
    return Tensor(_windows(xp, kernel, kernel, oh, ow, stride, stride).max(axis=(2, 3)))
