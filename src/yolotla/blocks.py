"""Network building blocks: conv bricks, C3 family, ghost and cross variants,
global attention, pooling tail, and the detection head stub.

A block states its structure in `build`, which assigns the named sub-units
that own its parameters, and in `forward`, written in tensor kernels. The
base `Block` derives the rest. Its child tree is the units and blocks that
`build` assigned, in assignment order, a list attribute `m` listed as
`m0, m1, ...`; so `build` assigns them in manifest order. `metered` runs
`forward` under a meter of its own, and output shapes and (macs, flops)
are one `metered` call over shape-only meta tensors; the parameter
manifest, `load` and `param_count` come from the one walk of the child
tree, `leaves`, whose leaves alone declare parameter shapes. A block's
`KIND` is its class name. No block states its output width; a model reads
it from the meta forward's output shape. Every leaf is a conv unit, so
`conv2d` is the one kernel with weights; GAM's per-position MLP layers are
1x1 units that keep a linear layer's manifest.

A block's config arguments are the keyword-only parameters of its `build`
method. The base constructor is their one binder: it checks the input
count and each argument by name and by annotated type (a bool never passes
as a number) in one place, then calls `build`, which wires the structure
from those arguments alone. That is enough for shapes, manifests and
costs; `load` then binds actual weights, the caller's arrays themselves
with no copy, so `forward` can run on real data. Blocks never mutate their
inputs and hold no state beyond weights, so forwards are pure.

Normalization is represented as a folded per-channel affine: a `norm.scale`
multiplied into the conv weight at call time and a `norm.shift` applied as
the conv bias. A fresh model uses scale 1, shift 0, which is an identity
affine over the raw convolution.
"""
from __future__ import annotations

import functools
import inspect
import math
import typing

import numpy as np

from . import meter
from .errors import ConfigError, ShapeError, is_instance
from .tensor import (ConvSpec, Tensor, add, concat_channels, conv2d, maxpool2d,
                     mul, relu, resize_nearest, sigmoid, silu)

Shape = tuple[int, int, int, int]
IntPair = int | list | tuple   # an int or [a, b]; `_pair` checks the items


def _pair(v, name: str) -> tuple[int, int]:
    if is_instance(v, int):
        return (v, v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(is_instance(x, int) for x in v):
        return tuple(v)
    raise ConfigError(f"argument {name} must be an int or a pair of ints, got {v!r}")


def _hidden(kind: str, out: int, e: float) -> int:
    """Hidden width int(out * e), checked to be finite and >= 1."""
    if not 1 <= out * e < math.inf:
        raise ConfigError(f"{kind}: hidden width {out * e!r} must be >= 1")
    return int(out * e)


def _stand_in(shape: tuple[int, ...]) -> np.ndarray:
    """Zero-stride read-only array: a parameter slot before `load` fills it."""
    return np.broadcast_to(np.float32(0.0), shape)


_ACTIVATIONS = {None: lambda y: y, "silu": silu, "relu": relu}


class _Unit:
    """One convolution plus norm affine (folded per real call) or plain bias,
    plus activation."""

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
        self.scale = None   # the norm scale, bound by `load` when `norm`
        self.bias = _stand_in((cout,))

    def param_specs(self, prefix: str) -> list[tuple[str, tuple[int, ...]]]:
        cout = (self.spec.out_channels,)
        if self.norm:
            tail = [(f"{prefix}.norm.scale", cout), (f"{prefix}.norm.shift", cout)]
        else:
            tail = [(f"{prefix}.conv.bias", cout)]
        return [(f"{prefix}.conv.weight", self.spec.weight_shape()), *tail]

    def load(self, getw, prefix: str) -> None:
        """Bind the arrays `getw` returns for this unit's manifest as they
        are, with no copy, so an in-place edit reaches the next call."""
        weight, *rest = (np.asarray(getw(path), dtype=np.float32)
                         for path, _ in self.param_specs(prefix))
        self.weight = Tensor(weight.reshape(self.spec.weight_shape()))
        self.scale, self.bias = rest if self.norm else (None, *rest)

    def __call__(self, x: Tensor) -> Tensor:
        w = self.weight
        if self.norm and not x.is_meta:
            w = Tensor(w.data * self.scale.reshape(-1, 1, 1, 1))
        return _ACTIVATIONS[self.act](conv2d(x, self.spec, w, self.bias))


class _Linear(_Unit):
    """Fully connected layer at every spatial position, run as a biased 1x1 conv.

    Its manifest is a linear layer's, `weight` as (out_features, in_features)
    plus `bias`; the unit's `load` reshapes the weight to (out, in, 1, 1).
    """

    def __init__(self, fin: int, fout: int, act: str | None = None):
        super().__init__(fin, fout, k=1, act=act, norm=False)

    def param_specs(self, prefix: str) -> list[tuple[str, tuple[int, ...]]]:
        return [(f"{prefix}.weight", self.spec.weight_shape()[:2]),
                (f"{prefix}.bias", (self.spec.out_channels,))]


@functools.cache
def _signature(cls: type) -> tuple[bool, dict[str, tuple[tuple[type, ...], bool]]]:
    """(takes any number of inputs, {argument: (types, required)}) of cls.build."""
    params = inspect.signature(cls.build, eval_str=True).parameters.values()
    args = {}
    for p in params:
        if p.kind is p.KEYWORD_ONLY:
            types = typing.get_args(p.annotation) or (p.annotation,)
            if float in types:
                types += (int,)   # an int passes as a float
            args[p.name] = (types, p.default is p.empty)
    return any(p.kind is p.VAR_POSITIONAL for p in params), args


class Block:
    """Interface shared by every layer kind.

    Subclasses write `build` and `forward`; shapes, costs and the manifest
    follow. The child tree is what `build` assigns, in assignment order
    (see `children`), and `KIND` is the class name. The output width is
    the channel count of the meta forward's output shape. `build` takes one
    input channel count positionally (`*cins` for many) and the config
    arguments as keyword-only parameters; their annotations are the types
    the constructor accepts and their defaults make them optional.
    """

    KIND: str

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.KIND = cls.__name__

    def __init__(self, in_channels: list[int], args: dict):
        """Check the inputs and `args` against `build`'s signature, then call it."""
        kind = self.KIND
        variadic, params = _signature(type(self))
        if not variadic and len(in_channels) != 1:
            raise ConfigError(f"{kind} takes exactly one input, got {len(in_channels)}")
        for name, (types, required) in params.items():
            if name not in args:
                if required:
                    raise ConfigError(f"{kind}: missing required argument '{name}'")
            elif not is_instance(args[name], *types):
                names = " or ".join("None" if t is type(None) else t.__name__
                                    for t in types)
                raise ConfigError(
                    f"{kind}: argument '{name}' must be {names}, got {args[name]!r}")
        unknown = sorted(set(args) - set(params))
        if unknown:
            raise ConfigError(f"{kind}: unknown argument(s) {unknown}")
        self.build(*in_channels, **args)

    def build(self, *cins: int) -> None:
        raise NotImplementedError

    def children(self) -> list[tuple[str, _Unit | Block]]:
        """(path segment, child) pairs in manifest order: the units and
        blocks `build` assigned, in assignment order, with a list attribute
        `m` as m0, m1, ...; "" is the block's own path."""
        out = []
        for name, value in vars(self).items():
            items = (enumerate(value) if isinstance(value, list)
                     else [("", value)])
            out += [(f"{name}{i}", child) for i, child in items
                    if isinstance(child, (_Unit, Block))]
        return out

    def leaves(self, prefix: str) -> typing.Iterator[tuple[str, _Unit]]:
        """(path, unit) for every conv unit in the child tree, in manifest order."""
        for name, child in self.children():
            path = f"{prefix}.{name}" if name else prefix
            if isinstance(child, Block):
                yield from child.leaves(path)
            else:
                yield path, child

    def param_specs(self, prefix: str) -> list[tuple[str, tuple[int, ...]]]:
        return [spec for path, unit in self.leaves(prefix)
                for spec in unit.param_specs(path)]

    def load(self, getw, prefix: str) -> None:
        for path, unit in self.leaves(prefix):
            unit.load(getw, path)

    def param_count(self) -> int:
        return sum(math.prod(s) for _, s in self.param_specs(""))

    def units(self) -> list[_Unit]:
        """Every conv unit in the child tree, in manifest order."""
        return [unit for _, unit in self.leaves("")]

    def forward(self, xs: list[Tensor]) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        """Single-input shorthand, used where a block is another block's child."""
        return self.forward([x])

    def metered(self, xs: list[Tensor]):
        """(forward(xs), a CostMeter of that forward's whole cost); meters
        already active receive none of it."""
        with meter.CostMeter() as m:
            return self.forward(xs), m

    def out_shape(self, shapes: list[Shape]) -> Shape | list[Shape]:
        """Output shape at the given input shapes (one per map for Detect)."""
        out, _ = self.metered([Tensor.meta(s) for s in shapes])
        return [t.shape for t in out] if isinstance(out, list) else out.shape

    def cost(self, shapes: list[Shape]) -> tuple[int, int]:
        """(macs, flops) for one forward at the given input shapes."""
        _, m = self.metered([Tensor.meta(s) for s in shapes])
        return m.macs, m.flops


class ConvBNAct(Block):
    """Standard convolution brick: conv, folded norm, SiLU by default."""

    def build(self, cin, *, out: int, k: IntPair = 1, s: IntPair = 1,
              p: IntPair | None = None, g: int = 1, act: str | None = "silu"):
        self.unit = _Unit(cin, out, k, s, p, g, act=act)

    def children(self):
        return [("", self.unit)]

    def forward(self, xs):
        return self.unit(xs[0])


class _Residual(Block):
    """cv1 then cv2, plus the input when `add` holds (same shape out as in).

    The one residual sequence behind Bottleneck, CrossConv and the cross
    bottleneck inside C3CrossConv, whose cv2 is itself a CrossConv.
    """

    def build(self, cin, *, cv1: _Unit | Block, cv2: _Unit | Block, add: bool):
        self.cv1 = cv1
        self.cv2 = cv2
        self.add = add

    def forward(self, xs):
        y = self.cv2(self.cv1(xs[0]))
        return add(xs[0], y) if self.add else y


class Bottleneck(_Residual):
    """1x1 reduce then 3x3, with an additive shortcut when shapes allow."""

    def build(self, cin, *, out: int, shortcut: bool = True, e: float = 1.0):
        hidden = _hidden(self.KIND, out, e)
        super().build(cin, cv1=_Unit(cin, hidden, k=1), cv2=_Unit(hidden, out, k=3),
                      add=shortcut and cin == out)


class CrossConv(_Residual):
    """Separable 1xk then kx1 pair replacing one square kxk convolution.

    The horizontal conv always runs at stride 1; any downsampling stride
    sits on the vertical conv.
    """

    def build(self, cin, *, out: int, k: int = 3, s: int = 1, e: float = 1.0,
              shortcut: bool = False):
        hidden = _hidden(self.KIND, out, e)
        super().build(cin, cv1=_Unit(cin, hidden, k=(1, k), s=(1, 1), p=(0, k // 2)),
                      cv2=_Unit(hidden, out, k=(k, 1), s=(s, s), p=(k // 2, 0)),
                      add=shortcut and cin == out and s == 1)


class _C3Base(Block):
    """Two 1x1 branches, a stack of inner units on one of them, concat, 1x1 out."""

    def build(self, cin, *, out: int, n: int = 1, shortcut: bool = True, e: float = 0.5):
        if n < 1:
            raise ConfigError(f"{self.KIND}: repeat count must be >= 1, got {n}")
        hidden = _hidden(self.KIND, out, e)
        self.cv1 = _Unit(cin, hidden, k=1)
        self.cv2 = _Unit(cin, hidden, k=1)
        self.m = [self._inner(hidden, shortcut) for _ in range(n)]
        self.cv3 = _Unit(2 * hidden, out, k=1)

    def _inner(self, hidden: int, shortcut: bool) -> Block:
        raise NotImplementedError

    def forward(self, xs):
        y1 = self.cv1(xs[0])
        for blk in self.m:
            y1 = blk(y1)
        y2 = self.cv2(xs[0])
        return self.cv3(concat_channels([y1, y2]))


class C3(_C3Base):
    def _inner(self, hidden, shortcut):
        return Bottleneck([hidden], {"out": hidden, "shortcut": shortcut, "e": 1.0})


class C3CrossConv(_C3Base):
    """C3 whose bottlenecks use the separable cross pair in place of the 3x3."""

    def _inner(self, hidden, shortcut):
        return _Residual([hidden], {
            "cv1": _Unit(hidden, hidden, k=1),
            "cv2": CrossConv([hidden], {"out": hidden, "k": 3, "s": 1}),
            "add": shortcut})


class GhostConv(Block):
    """Half the outputs from a primary conv, half from a cheap depthwise 5x5.

    The primary half occupies channels [0, out/2), the derived half the rest.
    """

    def build(self, cin, *, out: int, k: IntPair = 1, s: IntPair = 1,
              act: str | None = "silu"):
        if out % 2:
            raise ConfigError(f"GhostConv out channels must be even, got {out}")
        half = out // 2
        self.primary = _Unit(cin, half, k=k, s=s, act=act)
        self.cheap = _Unit(half, half, k=5, s=1, p=2, g=half, act=act)

    def forward(self, xs):
        y = self.primary(xs[0])
        return concat_channels([y, self.cheap(y)])


class GhostBottleneck(Block):
    """Ghost reduce, optional stride-2 depthwise, ghost expand, plus shortcut."""

    def build(self, cin, *, out: int, s: int = 1):
        if s not in (1, 2):
            raise ConfigError(f"GhostBottleneck stride must be 1 or 2, got {s}")
        if s == 1 and cin != out:
            raise ConfigError(
                f"GhostBottleneck at stride 1 needs in == out channels for the "
                f"identity shortcut, got {cin} vs {out}")
        if out % 4:
            raise ConfigError(
                f"GhostBottleneck out channels must be divisible by 4 (two nested "
                f"ghost halvings), got {out}")
        hidden = out // 2
        self.stride = s
        self.g1 = GhostConv([cin], {"out": hidden, "act": "silu"})
        if s == 2:
            self.dw = _Unit(hidden, hidden, k=3, s=2, g=hidden, act=None)
        self.g2 = GhostConv([hidden], {"out": out, "act": None})
        if s == 2:
            self.sc_dw = _Unit(cin, cin, k=3, s=2, g=cin, act=None)
            self.sc_pw = _Unit(cin, out, k=1, act=None)

    def forward(self, xs):
        x = xs[0]
        if self.stride == 1:
            return add(x, self.g2(self.g1(x)))
        return add(self.sc_pw(self.sc_dw(x)), self.g2(self.dw(self.g1(x))))


class C3Ghost(_C3Base):
    """C3 with ghost bottlenecks on the processed branch."""

    def _inner(self, hidden, shortcut):
        return GhostBottleneck([hidden], {"out": hidden, "s": 1})


class GAM(Block):
    """Global attention: a channel gate from a per-position MLP, then a
    spatial gate from two 7x7 convolutions, with a residual add.

    The channel branch runs the two-layer MLP at every spatial position,
    as two 1x1 convolutions on the (n, C, H, W) input, and squashes it to a
    sigmoid gate.
    The spatial branch convolves the gated tensor down to C/ratio channels
    and back up, grouped to keep its cost proportionate. Zero weights give
    0.5 gates everywhere, so the block output is 0.25x (or 1.25x with the
    residual) of its input, which the tests pin as an analytic case.
    """

    def build(self, cin, *, ratio: int = 4, residual: bool = True,
              spatial_groups: int | None = None):
        if ratio < 1 or cin % ratio:
            raise ConfigError(f"GAM ratio {ratio} must divide channels {cin}")
        hidden = cin // ratio
        groups = ratio if spatial_groups is None else spatial_groups
        if groups < 1 or cin % groups or hidden % groups:
            raise ConfigError(
                f"GAM spatial_groups {groups} must divide both channels {cin} "
                f"and reduced channels {hidden}")
        self.residual = residual
        self.fc1 = _Linear(cin, hidden, act="relu")
        self.fc2 = _Linear(hidden, cin)
        self.sconv1 = _Unit(cin, hidden, k=7, p=3, g=groups, act="relu", norm=False)
        self.sconv2 = _Unit(hidden, cin, k=7, p=3, g=groups, act=None, norm=False)

    def forward(self, xs):
        x = xs[0]
        channel_gate = sigmoid(self.fc2(self.fc1(x)))
        gated = mul(x, channel_gate)
        spatial_gate = sigmoid(self.sconv2(self.sconv1(gated)))
        out = mul(gated, spatial_gate)
        return add(x, out) if self.residual else out


class SPPF(Block):
    """Spatial pyramid pooling (fast): three chained 5x5 max pools, fused."""

    def build(self, cin, *, out: int, k: int = 5):
        if k < 1 or k % 2 == 0:
            raise ConfigError(f"SPPF pool kernel must be odd and positive, got {k}")
        hidden = cin // 2
        if hidden < 1:
            raise ConfigError(f"SPPF needs >= 2 input channels, got {cin}")
        self.k = k
        self.cv1 = _Unit(cin, hidden, k=1)
        self.cv2 = _Unit(4 * hidden, out, k=1)

    def forward(self, xs):
        y0 = self.cv1(xs[0])
        y1 = maxpool2d(y0, self.k, 1, self.k // 2)
        y2 = maxpool2d(y1, self.k, 1, self.k // 2)
        y3 = maxpool2d(y2, self.k, 1, self.k // 2)
        return self.cv2(concat_channels([y0, y1, y2, y3]))


class Upsample(Block):
    """Nearest-neighbor upsampling by an integer factor."""

    def build(self, cin, *, factor: int = 2):
        if factor < 1:
            raise ConfigError(f"Upsample factor must be >= 1, got {factor}")
        self.factor = factor

    def forward(self, xs):
        x, f = xs[0], self.factor
        return resize_nearest(x, x.h * f, x.w * f)


class Concat(Block):
    """Channel concatenation of every listed source layer."""

    def build(self, *cins):
        if len(cins) < 2:
            raise ConfigError(f"Concat needs >= 2 inputs, got {len(cins)}")

    def forward(self, xs):
        return concat_channels(xs)


class Detect(Block):
    """Per-scale 1x1 output convolutions emitting raw prediction maps.

    Each map carries 3 anchors x (4 box terms + objectness + nc class
    scores) channels. Decoding lives in the postprocessing module; this
    block stops at the raw maps.
    """

    def build(self, *cins, nc: int):
        if nc < 1:
            raise ConfigError(f"Detect needs >= 1 class, got {nc}")
        self.m = [_Unit(cin, 3 * (5 + nc), k=1, act=None, norm=False)
                  for cin in cins]

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

C3_FAMILY = tuple(kind for kind, cls in BLOCKS.items() if issubclass(cls, _C3Base))
