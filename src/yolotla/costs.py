"""Symbolic cost analysis over the layer graph, plus closed-form estimates.

The analyzer runs the model's one graph walk over a shape-only (meta)
input with a CostMeter per layer: every kernel prices itself from the
table in yolotla.meter without computing anything. The instrumented
route (count_empirical) runs the same per-layer walk, `_layer_rows`, on
real zeros and sums its rows, and the two agree exactly. The conv rule in
yolotla.tensor keeps the prices honest: conv2d records what the
loop-nest `conv2d_naive` executes.

Counting convention, stated wherever totals are reported: one
multiply-accumulate costs 2 FLOPs; a biased layer adds one addition per
output element; elementwise math is priced per element (sigmoid, ReLU,
add, mul at 1; SiLU at 2); max pooling pays one comparison per window
element beyond the first; concatenation and nearest upsampling are
free.

The closed-form single-layer formulas at the bottom are deliberately
quarantined from the analyzer: they estimate one square or factored
convolution layer from its hyperparameters alone, count a MAC as a
single FLOP, and ignore channels-out, bias, and activation. They exist
to reproduce a published per-layer comparison (including its quirk: the
factored layer's FLOP estimate exceeds the square layer's even though
its parameter estimate is lower). Whole-model numbers never use them.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .graph import INPUT_CHANNELS, Model
from .tensor import Tensor

CONVENTION = (
    "1 MAC = 2 FLOPs; +1 add per output element for biased layers; "
    "elementwise ops priced per element (silu 2; sigmoid, relu, add, mul 1); "
    "maxpool k*k-1 comparisons per output element; concat and nearest "
    "upsample are free.")


@dataclass(frozen=True)
class LayerCost:
    index: int
    kind: str
    sources: tuple[int, ...]
    out_shape: tuple[int, ...]
    params: int
    macs: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    name: str
    input_shape: tuple[int, int, int, int]
    layers: tuple[LayerCost, ...]
    head: LayerCost | None
    total_params: int
    total_macs: int
    total_flops: int
    convention: str = CONVENTION

    @property
    def gflops(self) -> float:
        return self.total_flops / 1e9

    @property
    def mparams(self) -> float:
        return self.total_params / 1e6

    def to_dict(self) -> dict:
        return {**asdict(self), "gflops": self.gflops}


def _layer_rows(model: Model, x: Tensor, truncate) -> list[LayerCost]:
    """One LayerCost per node that `model.walk(x, upto=truncate)` runs,
    metered by `Block.metered` and named by its `model.nodes` spec; the
    head's row, shaped as its first map, is last unless truncated."""
    rows: list[LayerCost] = []

    def step(index, block, ins):
        out, m = block.metered(ins)
        spec = model.nodes[index]
        shape = (out[0] if isinstance(out, list) else out).shape
        rows.append(LayerCost(index, spec.kind, spec.sources, shape,
                              block.param_count(), m.macs, m.flops))
        return out

    model.walk(x, upto=truncate, step=step)
    return rows


def analyze(model: Model, input_hw=(640, 640), truncate=None) -> CostReport:
    """Price every layer for the given input size by a shape-only walk."""
    h, w = input_hw
    input_shape = (1, INPUT_CHANNELS, int(h), int(w))
    rows = _layer_rows(model, Tensor.meta(input_shape), truncate)
    n = len(model.blocks)
    return CostReport(
        name=model.config.name, input_shape=input_shape,
        layers=tuple(rows[:n]), head=rows[n] if truncate is None else None,
        total_params=sum(r.params for r in rows),
        total_macs=sum(r.macs for r in rows),
        total_flops=sum(r.flops for r in rows))


def count_empirical(model: Model, input_hw=(640, 640), truncate=None):
    """The same per-layer walk as `analyze`, run on real zeros; returns the
    summed (macs, flops). Each layer's own meter takes its work, so meters
    active around it receive nothing."""
    h, w = input_hw
    x = Tensor(np.zeros((1, INPUT_CHANNELS, int(h), int(w)), np.float32))
    rows = _layer_rows(model, x, truncate)
    return sum(r.macs for r in rows), sum(r.flops for r in rows)


# -- closed-form single-layer estimates (quarantined, see module docstring) --

def _formula_out(width, k, stride, pad) -> float:
    return (width - k + 2 * pad) / stride + 1


def closed_form_standard(width, k, channels, stride=1, pad=None):
    """Square k x k layer estimate: (flops, params) = (k²C·out², k²C)."""
    if pad is None:
        pad = k // 2
    out = _formula_out(width, k, stride, pad)
    flops = k * k * channels * out * out
    return flops, k * k * channels


def closed_form_cross(width, k, channels, stride=1, pad=None):
    """Factored 1xk + kx1 pair estimate: (flops, params) = (..., 2kC).

    The FLOP term multiplies the wider intermediate map (a 1xk layer
    leaves the height untouched) by the final map, which makes it larger
    than the square layer's estimate even though the parameter estimate
    is smaller. That asymmetry is preserved on purpose.
    """
    if pad is None:
        pad = k // 2
    mid = _formula_out(width, 1, stride, pad)
    out = _formula_out(width, k, stride, pad)
    flops = k * k * channels * mid * out
    return flops, 2 * k * channels
