"""Operation cost bookkeeping: the one price table and the meters that tally it.

There is exactly one table of per-primitive cost formulas, and only the
tensor kernels read it: each kernel records its price to every active
CostMeter, whether it runs on real data or on shape-only (meta) tensors.
The analyzer is a meta forward pass under a meter, so analyzed and
executed totals agree by construction. The independent check is the
loop-nest `conv2d_naive`, which tallies the multiply-accumulates it
actually executes rather than reading this table.

Counting convention (also stated in CLI reports):
  * convolution: 2 FLOPs per multiply-accumulate,
    plus 1 per output element when a bias (or folded norm shift) is added
  * elementwise arithmetic: 1 FLOP per scalar (SiLU costs 2: sigmoid + mul)
  * max pooling: kernel_area - 1 comparisons per output element
  * data movement (concat, nearest upsample): free
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

_local = threading.local()

ELEMENTWISE_UNIT_COST = {
    "sigmoid": 1,
    "relu": 1,
    "silu": 2,
    "add": 1,
    "mul": 1,
}


@dataclass
class OpCost:
    """MAC and FLOP totals for one primitive kind."""

    macs: int = 0
    flops: int = 0


@dataclass
class CostMeter:
    """Accumulates primitive costs while active as a context manager."""

    by_kind: dict[str, OpCost] = field(default_factory=dict)

    @property
    def macs(self) -> int:
        return sum(c.macs for c in self.by_kind.values())

    @property
    def flops(self) -> int:
        return sum(c.flops for c in self.by_kind.values())

    def add(self, kind: str, macs: int, flops: int) -> None:
        cost = self.by_kind.setdefault(kind, OpCost())
        cost.macs += macs
        cost.flops += flops

    def __enter__(self) -> "CostMeter":
        _stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        # By identity: dataclass equality matches any meter with equal tallies.
        stack = _stack()
        stack.pop(next(i for i, m in enumerate(stack) if m is self))


def _stack() -> list:
    stack = getattr(_local, "meters", None)
    if stack is None:
        stack = _local.meters = []
    return stack


@contextmanager
def isolated():
    """A fresh CostMeter for the block; meters already active receive
    nothing from inside it, so inference never leaks into a measurement."""
    saved = _stack()
    _local.meters = []
    try:
        with CostMeter() as m:
            yield m
    finally:
        _local.meters = saved


def record(kind: str, macs: int, flops: int) -> None:
    """Report a primitive's cost to every active meter (no-op otherwise)."""
    for m in _stack():
        m.add(kind, macs, flops)


def conv_cost(n: int, out_channels: int, in_per_group: int, kh: int, kw: int,
              oh: int, ow: int, bias: bool) -> tuple[int, int]:
    """(macs, flops) of one convolution call."""
    macs = n * oh * ow * out_channels * in_per_group * kh * kw
    flops = 2 * macs
    if bias:
        flops += n * oh * ow * out_channels
    return macs, flops


def elementwise_cost(fn: str, numel: int) -> int:
    """FLOPs of applying the named elementwise function to numel scalars."""
    return ELEMENTWISE_UNIT_COST[fn] * numel


def maxpool_cost(numel_out: int, kh: int, kw: int) -> int:
    """Comparison count of a max pool, charged as FLOPs."""
    return (kh * kw - 1) * numel_out
