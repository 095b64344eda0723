"""In-memory span recording for the traced run.

A span is (id, name, start, end, parent id, op id). Spans and counters are
recorded from the benchmark's own code, around calls into each package
module, and kept in memory until the run writes them out at the end. The
untraced run uses ``NullTracer``, whose spans and counters cost nothing
beyond a context-manager call.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from yolotla import meter

SETUP_OP = "setup"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | str


class NullTracer:
    enabled = False
    op = SETUP_OP

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | str = SETUP_OP
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def self_seconds(self) -> dict[tuple, float]:
        """{(op, name): seconds} of span time not covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[tuple, float] = defaultdict(float)
        for s in self.spans:
            out[(s.op, s.name)] += s.end - s.start - child_time[s.id]
        return out

    def write(self, path, extra: dict) -> None:
        doc = dict(extra, spans=[asdict(s) for s in self.spans],
                   counts=dict(self.counts))
        path.write_text(json.dumps(doc))


def _traced_block(tracer: Tracer, block, ins):
    """One ``Block.forward`` under its own span and its own ``CostMeter``;
    returns (output, FLOPs metered)."""
    kind = block.KIND
    with meter.CostMeter() as m:
        with tracer.span("blocks." + kind):
            out = block.forward(ins)
    tracer.count(f"blocks.{kind}.flops", m.flops)
    outs = out if isinstance(out, list) else [out]
    tracer.count(f"blocks.{kind}.out_bytes", sum(t.data.nbytes for t in outs))
    for prim, cost in m.by_kind.items():
        tracer.count(f"tensor.{prim}.flops", cost.flops)
    return out, m.flops


def traced_forward(model, x, tracer: Tracer):
    """``Model.forward`` as a walk over ``model.blocks``, one span per block.

    Mirrors the truncated walk of ``costs.count_empirical``: every layer's
    output is cached, then the Detect head runs on the ``detect_from`` maps.
    Returns (maps, FLOPs metered over all blocks). Block meters are never
    nested: ``CostMeter`` leaves its stack by equality, so two active meters
    with equal tallies can remove each other.
    """
    cache = {}
    flops = 0
    for spec, block in zip(model.config.layers, model.blocks):
        ins = [x] if spec.index == 0 else [cache[s] for s in spec.sources]
        cache[spec.index], f = _traced_block(tracer, block, ins)
        flops += f
    maps, f = _traced_block(tracer, model.detect,
                            [cache[i] for i in model.detect_from])
    return maps, flops + f
