"""Network building blocks: conv bricks, C3 family, ghost and cross variants,
global attention, pooling tail, and the detection head stub.

A block states its structure in `forward`, written in tensor kernels, and
in `children`, the ordered named sub-units that own its parameters. The
base `Block` derives the rest: output shapes and (macs, flops) from a
`forward` over shape-only meta tensors under an isolated meter, and the
parameter manifest, `load` and `param_count` from the child tree, whose
leaves (conv units and linear layers) alone declare parameter shapes.

Construction wires the structure from config arguments alone, which is
enough for shapes, manifests and costs; `load` then binds actual weights
(folding the norm affine into the convolution) so `forward` can run on
real data. Blocks never mutate their inputs and hold no state beyond
weights, so forwards are pure.

Normalization is represented as a folded per-channel affine: a `norm.scale`
multiplied into the conv weight at load time and a `norm.shift` applied as
the conv bias. A fresh model uses scale 1, shift 0, which is an identity
affine over the raw convolution.
"""
from __future__ import annotations

import math

import numpy as np

from . import meter
from .errors import ConfigError, ShapeError
from .tensor import (ConvSpec, Tensor, add, concat_channels, conv2d, linear,
                     maxpool2d, mul, permute, relu, sigmoid, silu,
                     upsample_nearest)

Shape = tuple[int, int, int, int]


def _pair(v, name: str) -> tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(isinstance(x, int) for x in v):
        return (int(v[0]), int(v[1]))
    raise ConfigError(f"argument {name} must be an int or a pair of ints, got {v!r}")


class _ArgReader:
    """Pulls typed values out of a config args dict, rejecting leftovers."""

    def __init__(self, kind: str, args: dict):
        self.kind = kind
        self.args = dict(args)

    def take(self, name: str, default=None, required: bool = False):
        if name in self.args:
            return self.args.pop(name)
        if required:
            raise ConfigError(f"{self.kind}: missing required argument '{name}'")
        return default

    def finish(self) -> None:
        if self.args:
            raise ConfigError(
                f"{self.kind}: unknown argument(s) {sorted(self.args)}")


def _stand_in(shape: tuple[int, ...]) -> np.ndarray:
    """Zero-stride read-only array: a parameter slot before `load` fills it."""
    return np.broadcast_to(np.float32(0.0), shape)


_ACTIVATIONS = {None: lambda y: y, "silu": silu, "relu": relu}


class _Unit:
    """One convolution plus folded norm affine (or plain bias) plus activation."""

    def __init__(self, cin: int, cout: int, k=1, s=1, p=None, g: int = 1,
                 act: str | None = "silu", norm: bool = True):
        kh, kw = _pair(k, "kernel")
        sh, sw = _pair(s, "stride")
        ph, pw = (kh // 2, kw // 2) if p is None else _pair(p, "padding")
        if act not in _ACTIVATIONS:
            raise ConfigError(f"unsupported activation {act!r}")
        self.act = act
        self.norm = norm
        self.spec = ConvSpec(cin, cout, kh, kw, sh, sw, ph, pw, groups=g,
                             has_bias=True)
        # a real input on an unloaded unit fails at the meta weight's .data
        self.weight = Tensor.meta(self.spec.weight_shape())
        self.bias = _stand_in((cout,))

    @property
    def out_channels(self) -> int:
        return self.spec.out_channels

    def param_specs(self, prefix: str) -> list[tuple[str, tuple[int, ...]]]:
        specs = [(f"{prefix}.conv.weight", self.spec.weight_shape())]
        if self.norm:
            specs.append((f"{prefix}.norm.scale", (self.out_channels,)))
            specs.append((f"{prefix}.norm.shift", (self.out_channels,)))
        else:
            specs.append((f"{prefix}.conv.bias", (self.out_channels,)))
        return specs

    def load(self, getw, prefix: str) -> None:
        w = np.asarray(getw(f"{prefix}.conv.weight"), dtype=np.float32)
        if self.norm:
            scale = np.asarray(getw(f"{prefix}.norm.scale"), dtype=np.float32)
            self.weight = Tensor(w * scale.reshape(-1, 1, 1, 1))
            self.bias = np.asarray(getw(f"{prefix}.norm.shift"), dtype=np.float32)
        else:
            self.weight = Tensor(w)
            self.bias = np.asarray(getw(f"{prefix}.conv.bias"), dtype=np.float32)

    def __call__(self, x: Tensor) -> Tensor:
        return _ACTIVATIONS[self.act](conv2d(x, self.spec, self.weight, self.bias))


class _Linear:
    """Fully connected layer applied at every position of a channels-last tensor."""

    def __init__(self, fin: int, fout: int):
        self.shape = (fout, fin)
        self.weight = _stand_in(self.shape)
        self.bias = _stand_in((fout,))

    def param_specs(self, prefix: str) -> list[tuple[str, tuple[int, ...]]]:
        return [(f"{prefix}.weight", self.shape),
                (f"{prefix}.bias", self.shape[:1])]

    def load(self, getw, prefix: str) -> None:
        self.weight = np.asarray(getw(f"{prefix}.weight"), dtype=np.float32)
        self.bias = np.asarray(getw(f"{prefix}.bias"), dtype=np.float32)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Block:
    """Interface shared by every layer kind.

    Subclasses write `__init__`, `out_channels`, `forward` and, when they
    own parameters, `children`; shapes, costs and the manifest follow.
    """

    KIND = ""

    def __init__(self, in_channels: list[int], args: dict):
        raise NotImplementedError

    @property
    def out_channels(self) -> int:
        raise NotImplementedError

    def children(self) -> list[tuple[str, object]]:
        """(path segment, child) pairs in manifest order; "" is the block's own path."""
        return []

    def param_specs(self, prefix: str) -> list[tuple[str, tuple[int, ...]]]:
        return [spec for name, child in self.children()
                for spec in child.param_specs(f"{prefix}.{name}" if name else prefix)]

    def load(self, getw, prefix: str) -> None:
        for name, child in self.children():
            child.load(getw, f"{prefix}.{name}" if name else prefix)

    def param_count(self) -> int:
        return sum(math.prod(s) for _, s in self.param_specs(""))

    def forward(self, xs: list[Tensor]) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        """Single-input shorthand, used where a block is another block's child."""
        return self.forward([x])

    def _meta_forward(self, shapes: list[Shape]):
        with meter.isolated() as m:
            out = self.forward([Tensor.meta(s) for s in shapes])
        return out, m

    def out_shape(self, shapes: list[Shape]) -> Shape | list[Shape]:
        """Output shape at the given input shapes (one per map for Detect)."""
        out, _ = self._meta_forward(shapes)
        return [t.shape for t in out] if isinstance(out, list) else out.shape

    def cost(self, shapes: list[Shape]) -> tuple[int, int]:
        """(macs, flops) for one forward at the given input shapes."""
        _, m = self._meta_forward(shapes)
        return m.macs, m.flops


def _single(in_channels: list[int], kind: str) -> int:
    if len(in_channels) != 1:
        raise ConfigError(f"{kind} takes exactly one input, got {len(in_channels)}")
    return in_channels[0]


class ConvBNAct(Block):
    """Standard convolution brick: conv, folded norm, SiLU by default."""

    KIND = "ConvBNAct"

    def __init__(self, in_channels: list[int], args: dict):
        cin = _single(in_channels, self.KIND)
        rd = _ArgReader(self.KIND, args)
        cout = rd.take("out", required=True)
        k = rd.take("k", 1)
        s = rd.take("s", 1)
        p = rd.take("p", None)
        g = rd.take("g", 1)
        act = rd.take("act", "silu")
        rd.finish()
        self.unit = _Unit(cin, cout, k, s, p, g, act=act)

    @property
    def out_channels(self) -> int:
        return self.unit.out_channels

    def children(self):
        return [("", self.unit)]

    def forward(self, xs):
        return self.unit(xs[0])


class _Residual(Block):
    """cv1 then cv2, plus the input when `add` holds (same shape out as in).

    The one residual sequence behind Bottleneck, CrossConv and the cross
    bottleneck inside C3CrossConv, whose cv2 is itself a CrossConv.
    """

    def __init__(self, cv1, cv2, add: bool):
        self.cv1 = cv1
        self.cv2 = cv2
        self.add = add

    @property
    def out_channels(self) -> int:
        return self.cv2.out_channels

    def children(self):
        return [("cv1", self.cv1), ("cv2", self.cv2)]

    def forward(self, xs):
        y = self.cv2(self.cv1(xs[0]))
        return add(xs[0], y) if self.add else y


class Bottleneck(_Residual):
    """1x1 reduce then 3x3, with an additive shortcut when shapes allow."""

    KIND = "Bottleneck"

    def __init__(self, in_channels: list[int], args: dict):
        cin = _single(in_channels, self.KIND)
        rd = _ArgReader(self.KIND, args)
        cout = rd.take("out", required=True)
        shortcut = rd.take("shortcut", True)
        e = rd.take("e", 1.0)
        rd.finish()
        hidden = int(cout * e)
        if hidden < 1:
            raise ConfigError(f"Bottleneck hidden width {hidden} must be >= 1")
        super().__init__(_Unit(cin, hidden, k=1), _Unit(hidden, cout, k=3),
                         bool(shortcut) and cin == cout)


class CrossConv(_Residual):
    """Separable 1xk then kx1 pair replacing one square kxk convolution.

    The horizontal conv always runs at stride 1; any downsampling stride
    sits on the vertical conv.
    """

    KIND = "CrossConv"

    def __init__(self, in_channels: list[int], args: dict):
        cin = _single(in_channels, self.KIND)
        rd = _ArgReader(self.KIND, args)
        cout = rd.take("out", required=True)
        k = rd.take("k", 3)
        s = rd.take("s", 1)
        e = rd.take("e", 1.0)
        shortcut = rd.take("shortcut", False)
        rd.finish()
        hidden = int(cout * e)
        super().__init__(_Unit(cin, hidden, k=(1, k), s=(1, 1), p=(0, k // 2)),
                         _Unit(hidden, cout, k=(k, 1), s=(s, s), p=(k // 2, 0)),
                         bool(shortcut) and cin == cout and s == 1)


class _C3Base(Block):
    """Two 1x1 branches, a stack of inner units on one of them, concat, 1x1 out."""

    def __init__(self, in_channels: list[int], args: dict):
        cin = _single(in_channels, self.KIND)
        rd = _ArgReader(self.KIND, args)
        cout = rd.take("out", required=True)
        n = rd.take("n", 1)
        shortcut = rd.take("shortcut", True)
        e = rd.take("e", 0.5)
        rd.finish()
        if n < 1:
            raise ConfigError(f"{self.KIND}: repeat count must be >= 1, got {n}")
        hidden = int(cout * e)
        if hidden < 1:
            raise ConfigError(f"{self.KIND}: hidden width {hidden} must be >= 1")
        self.cv1 = _Unit(cin, hidden, k=1)
        self.cv2 = _Unit(cin, hidden, k=1)
        self.cv3 = _Unit(2 * hidden, cout, k=1)
        self.m = [self._inner(hidden, bool(shortcut)) for _ in range(n)]

    def _inner(self, hidden: int, shortcut: bool) -> Block:
        raise NotImplementedError

    @property
    def out_channels(self) -> int:
        return self.cv3.out_channels

    def children(self):
        return [("cv1", self.cv1), ("cv2", self.cv2),
                *((f"m{i}", blk) for i, blk in enumerate(self.m)), ("cv3", self.cv3)]

    def forward(self, xs):
        y1 = self.cv1(xs[0])
        for blk in self.m:
            y1 = blk(y1)
        y2 = self.cv2(xs[0])
        return self.cv3(concat_channels([y1, y2]))


class C3(_C3Base):
    KIND = "C3"

    def _inner(self, hidden, shortcut):
        return Bottleneck([hidden], {"out": hidden, "shortcut": shortcut, "e": 1.0})


class C3CrossConv(_C3Base):
    """C3 whose bottlenecks use the separable cross pair in place of the 3x3."""

    KIND = "C3CrossConv"

    def _inner(self, hidden, shortcut):
        return _Residual(_Unit(hidden, hidden, k=1),
                         CrossConv([hidden], {"out": hidden, "k": 3, "s": 1}),
                         shortcut)


class GhostConv(Block):
    """Half the outputs from a primary conv, half from a cheap depthwise 5x5.

    The primary half occupies channels [0, out/2), the derived half the rest.
    """

    KIND = "GhostConv"

    def __init__(self, in_channels: list[int], args: dict):
        cin = _single(in_channels, self.KIND)
        rd = _ArgReader(self.KIND, args)
        cout = rd.take("out", required=True)
        k = rd.take("k", 1)
        s = rd.take("s", 1)
        act = rd.take("act", "silu")
        rd.finish()
        if cout % 2:
            raise ConfigError(f"GhostConv out channels must be even, got {cout}")
        half = cout // 2
        self.primary = _Unit(cin, half, k=k, s=s, act=act)
        self.cheap = _Unit(half, half, k=5, s=1, p=2, g=half, act=act)

    @property
    def out_channels(self) -> int:
        return 2 * self.primary.out_channels

    def children(self):
        return [("primary", self.primary), ("cheap", self.cheap)]

    def forward(self, xs):
        y = self.primary(xs[0])
        return concat_channels([y, self.cheap(y)])


class GhostBottleneck(Block):
    """Ghost reduce, optional stride-2 depthwise, ghost expand, plus shortcut."""

    KIND = "GhostBottleneck"

    def __init__(self, in_channels: list[int], args: dict):
        cin = _single(in_channels, self.KIND)
        rd = _ArgReader(self.KIND, args)
        cout = rd.take("out", required=True)
        s = rd.take("s", 1)
        rd.finish()
        if s not in (1, 2):
            raise ConfigError(f"GhostBottleneck stride must be 1 or 2, got {s}")
        if s == 1 and cin != cout:
            raise ConfigError(
                f"GhostBottleneck at stride 1 needs in == out channels for the "
                f"identity shortcut, got {cin} vs {cout}")
        if cout % 4:
            raise ConfigError(
                f"GhostBottleneck out channels must be divisible by 4 (two nested "
                f"ghost halvings), got {cout}")
        hidden = cout // 2
        self.stride = s
        self.g1 = GhostConv([cin], {"out": hidden, "act": "silu"})
        self.g2 = GhostConv([hidden], {"out": cout, "act": None})
        if s == 2:
            self.dw = _Unit(hidden, hidden, k=3, s=2, g=hidden, act=None)
            self.sc_dw = _Unit(cin, cin, k=3, s=2, g=cin, act=None)
            self.sc_pw = _Unit(cin, cout, k=1, act=None)

    @property
    def out_channels(self) -> int:
        return self.g2.out_channels

    def children(self):
        if self.stride == 1:
            return [("g1", self.g1), ("g2", self.g2)]
        return [("g1", self.g1), ("dw", self.dw), ("g2", self.g2),
                ("sc_dw", self.sc_dw), ("sc_pw", self.sc_pw)]

    def forward(self, xs):
        x = xs[0]
        if self.stride == 1:
            return add(x, self.g2(self.g1(x)))
        return add(self.sc_pw(self.sc_dw(x)), self.g2(self.dw(self.g1(x))))


class C3Ghost(_C3Base):
    """C3 with ghost bottlenecks on the processed branch."""

    KIND = "C3Ghost"

    def _inner(self, hidden, shortcut):
        return GhostBottleneck([hidden], {"out": hidden, "s": 1})


class GAM(Block):
    """Global attention: a channel gate from a per-position MLP, then a
    spatial gate from two 7x7 convolutions, with a residual add.

    The channel branch permutes to channels-last, runs the two-layer MLP at
    every spatial position, permutes back, and squashes to a sigmoid gate.
    The spatial branch convolves the gated tensor down to C/ratio channels
    and back up, grouped to keep its cost proportionate. Zero weights give
    0.5 gates everywhere, so the block output is 0.25x (or 1.25x with the
    residual) of its input, which the tests pin as an analytic case.
    """

    KIND = "GAM"

    def __init__(self, in_channels: list[int], args: dict):
        cin = _single(in_channels, self.KIND)
        rd = _ArgReader(self.KIND, args)
        ratio = rd.take("ratio", 4)
        residual = rd.take("residual", True)
        groups = rd.take("spatial_groups", ratio)
        rd.finish()
        if cin % ratio:
            raise ConfigError(f"GAM ratio {ratio} must divide channels {cin}")
        hidden = cin // ratio
        if groups < 1 or cin % groups or hidden % groups:
            raise ConfigError(
                f"GAM spatial_groups {groups} must divide both channels {cin} "
                f"and reduced channels {hidden}")
        self.cin = cin
        self.residual = bool(residual)
        self.fc1 = _Linear(cin, hidden)
        self.fc2 = _Linear(hidden, cin)
        self.sconv1 = _Unit(cin, hidden, k=7, p=3, g=groups, act="relu", norm=False)
        self.sconv2 = _Unit(hidden, cin, k=7, p=3, g=groups, act=None, norm=False)

    @property
    def out_channels(self) -> int:
        return self.cin

    def children(self):
        return [("fc1", self.fc1), ("fc2", self.fc2),
                ("sconv1", self.sconv1), ("sconv2", self.sconv2)]

    def forward(self, xs):
        x = xs[0]
        if x.c != self.cin:
            raise ShapeError(f"GAM built for {self.cin} channels, got {x.c}")
        hid = relu(self.fc1(permute(x, (0, 2, 3, 1))))
        channel_gate = sigmoid(permute(self.fc2(hid), (0, 3, 1, 2)))
        gated = mul(x, channel_gate)
        spatial_gate = sigmoid(self.sconv2(self.sconv1(gated)))
        out = mul(gated, spatial_gate)
        return add(x, out) if self.residual else out


class SPPF(Block):
    """Spatial pyramid pooling (fast): three chained 5x5 max pools, fused."""

    KIND = "SPPF"

    def __init__(self, in_channels: list[int], args: dict):
        cin = _single(in_channels, self.KIND)
        rd = _ArgReader(self.KIND, args)
        cout = rd.take("out", required=True)
        k = rd.take("k", 5)
        rd.finish()
        if k % 2 == 0:
            raise ConfigError(f"SPPF pool kernel must be odd, got {k}")
        hidden = cin // 2
        if hidden < 1:
            raise ConfigError(f"SPPF needs >= 2 input channels, got {cin}")
        self.k = k
        self.cv1 = _Unit(cin, hidden, k=1)
        self.cv2 = _Unit(4 * hidden, cout, k=1)

    @property
    def out_channels(self) -> int:
        return self.cv2.out_channels

    def children(self):
        return [("cv1", self.cv1), ("cv2", self.cv2)]

    def forward(self, xs):
        y0 = self.cv1(xs[0])
        y1 = maxpool2d(y0, self.k, 1, self.k // 2)
        y2 = maxpool2d(y1, self.k, 1, self.k // 2)
        y3 = maxpool2d(y2, self.k, 1, self.k // 2)
        return self.cv2(concat_channels([y0, y1, y2, y3]))


class Upsample(Block):
    """Nearest-neighbor upsampling by an integer factor."""

    KIND = "Upsample"

    def __init__(self, in_channels: list[int], args: dict):
        cin = _single(in_channels, self.KIND)
        rd = _ArgReader(self.KIND, args)
        self.factor = rd.take("factor", 2)
        rd.finish()
        if self.factor < 1:
            raise ConfigError(f"Upsample factor must be >= 1, got {self.factor}")
        self.cin = cin

    @property
    def out_channels(self) -> int:
        return self.cin

    def forward(self, xs):
        return upsample_nearest(xs[0], self.factor)


class Concat(Block):
    """Channel concatenation of every listed source layer."""

    KIND = "Concat"

    def __init__(self, in_channels: list[int], args: dict):
        _ArgReader(self.KIND, args).finish()
        if len(in_channels) < 2:
            raise ConfigError(f"Concat needs >= 2 inputs, got {len(in_channels)}")
        self.cins = list(in_channels)

    @property
    def out_channels(self) -> int:
        return sum(self.cins)

    def forward(self, xs):
        return concat_channels(xs)


class Detect(Block):
    """Per-scale 1x1 output convolutions emitting raw prediction maps.

    Each map carries 3 anchors x (4 box terms + objectness + nc class
    scores) channels. Decoding lives in the postprocessing module; this
    block stops at the raw maps.
    """

    KIND = "Detect"

    def __init__(self, in_channels: list[int], args: dict):
        rd = _ArgReader(self.KIND, args)
        nc = rd.take("nc", required=True)
        rd.finish()
        if nc < 1:
            raise ConfigError(f"Detect needs >= 1 class, got {nc}")
        self.per_scale = 3 * (5 + nc)
        self.m = [_Unit(cin, self.per_scale, k=1, act=None, norm=False)
                  for cin in in_channels]

    @property
    def out_channels(self) -> int:
        return self.per_scale

    def children(self):
        return [(f"m{i}", u) for i, u in enumerate(self.m)]

    def forward(self, xs) -> list[Tensor]:
        if len(xs) != len(self.m):
            raise ShapeError(
                f"Detect built for {len(self.m)} scales, got {len(xs)} inputs")
        return [u(x) for u, x in zip(self.m, xs)]


BLOCKS: dict[str, type[Block]] = {
    cls.KIND: cls
    for cls in (ConvBNAct, Bottleneck, C3, CrossConv, C3CrossConv, GhostConv,
                GhostBottleneck, C3Ghost, GAM, SPPF, Upsample, Concat, Detect)
}

C3_FAMILY = ("C3", "C3Ghost", "C3CrossConv")
