"""The three benchmark workloads and the closed-loop op runner.

One client, closed loop: each op starts only after the previous one has
finished and been checked. An op is one image for ``infer-*`` and one round
for ``reports``. Calls go through the package's public functions, bound
here as module names so that tests can substitute faulty ones.
"""
from __future__ import annotations

import json
import statistics
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from spans import SETUP_OP, NullTracer, traced_forward
from yolotla import (Detection, analyze, build_model, bundled_config_names,
                     decode, evaluate, find_config, fit_anchors, letterbox,
                     load_coco, load_image, nms)
from yolotla.data import unletterbox_box
from yolotla.postprocess import (DEFAULT_CONF_THRESHOLD,
                                 DEFAULT_IOU_THRESHOLD, to_coco_results)

# The one seed the dense workload builds its weights from, as
# `yolotla infer` does by default. Its heads put every cell just above the
# 0.25 threshold (confidence ~0.2514); other init seeds do not, so the
# dense candidate count would change with the seed.
DENSE_WEIGHT_SEED = 0
IMAGE_HW = (480, 640)
# Fewest ops in any loop, so that op_p50_s is never a single sample.
MIN_OPS = 4
REPORT_SIDE = 640   # the README table's input size


@dataclass
class LoopResult:
    op_seconds: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.op_seconds)


def run_ops(workload, seconds: float, tracer) -> LoopResult:
    """Run ops until ``seconds`` have passed and the op mix is whole.

    The loop stops only on a multiple of ``workload.period`` (one turn of
    the model rotation) and never before ``workload.min_ops``, so every run
    weighs the models equally and repeats every output at least once. An
    op that raises or fails its check is counted and the loop goes on.
    """
    res = LoopResult()
    start = time.perf_counter()
    k = 0
    while (k < workload.min_ops or k % workload.period
           or time.perf_counter() - start < seconds):
        tracer.op = k
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                out = workload.op(k, tracer)
            res.op_seconds.append(time.perf_counter() - t0)
            workload.check(k, out)
        except Exception as e:   # a failed op is data, not the end of the run
            if len(res.op_seconds) == k:
                res.op_seconds.append(time.perf_counter() - t0)
            res.failed += 1
            where = traceback.extract_tb(e.__traceback__)[-1]
            res.problems.append(f"op {k}: {type(e).__name__}: {e} "
                                f"({Path(where.filename).name}:{where.lineno})")
        k += 1
    return res


def _head_cells(model, side: int) -> list[int]:
    """Anchor cells per detect scale at a square input side."""
    return [3 * h * w for _, _, h, w in model.head_shapes((1, 3, side, side))]


def _cli_json(rows) -> bytes:
    """The bytes `yolotla infer --out` writes for these rows."""
    rows = [{"image_id": r["image_id"], "category_id": r["category_id"],
             "bbox": [round(v, 3) for v in r["bbox"]],
             "score": round(r["score"], 6)} for r in rows]
    return (json.dumps(rows, sort_keys=True, indent=2) + "\n").encode()


@dataclass
class InferOutput:
    config: str
    candidates: list
    kept: list
    blob: bytes
    maps: list | None = None
    walk_flops: int | None = None


class InferWorkload:
    """The `yolotla infer` stage sequence, one image per op.

    ``sparse`` selects benchmark-written weight files in which only the
    coarsest scale passes; otherwise the models keep their seeded init and
    every cell passes.
    """

    def __init__(self, work: Path, seed: int, configs, side: int,
                 sparse: bool):
        self.work = work
        self.seed = seed
        self.configs = list(configs)
        self.side = side
        self.sparse = sparse
        self.period = len(self.configs)
        self.min_ops = max(2 * self.period, MIN_OPS)
        self.image = work / "image.ppm"
        self.models: list = []
        self.cells: list[int] = []
        self.expected: list[int] = []
        self.outputs = checks.RepeatLog()
        self.reference_maps: dict[str, list] = {}
        self.analyzer_flops: dict[str, int] = {}
        self.forward_peak_bytes = 0

    def _weights(self, config: str) -> Path:
        return self.work / f"{config}.tlaw"

    def generate(self) -> None:
        inputs.write_ppm(self.image, self.seed, IMAGE_HW[1], IMAGE_HW[0])
        if self.sparse:
            for config in self.configs:
                inputs.write_sparse_weights(self._weights(config), config,
                                            self.seed)

    def set_up(self, tracer) -> None:
        self.models = []
        for config in self.configs:
            with tracer.span("graph.build"):
                model = build_model(find_config(config),
                                    seed=DENSE_WEIGHT_SEED)
            if self.sparse:
                with tracer.span("graph.load_weights"):
                    model.load_weight_file(self._weights(config))
            self.models.append((config, model))
        self.cells, self.expected = [], []
        for _, model in self.models:
            cells = _head_cells(model, self.side)
            self.cells.append(sum(cells))
            self.expected.append(
                cells[inputs.coarsest_scale(model)] if self.sparse
                else sum(cells))

    def prepare_trace(self) -> None:
        """Untimed reference data for the traced ops: each model's own
        ``Model.forward`` maps (peak memory under tracemalloc) and its
        analyzer FLOPs at the benchmark side."""
        boxed, _, _ = letterbox(load_image(self.image), target=self.side)
        for config, model in self.models:
            tracemalloc.start()
            try:
                maps = model.forward(boxed)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            self.forward_peak_bytes = max(self.forward_peak_bytes, peak)
            self.reference_maps[config] = [m.data.copy() for m in maps]
            self.analyzer_flops[config] = analyze(
                model, (self.side, self.side)).total_flops

    def op(self, k: int, tracer) -> InferOutput:
        config, model = self.models[k % self.period]
        with tracer.span("data.load_image"):
            img = load_image(self.image)
        orig_hw = (img.h, img.w)
        with tracer.span("data.letterbox"):
            boxed, scale, pads = letterbox(img, target=self.side)
        walk_flops = None
        with tracer.span("graph.forward"):
            if tracer.enabled:
                maps, walk_flops = traced_forward(model, boxed, tracer)
            else:
                maps = model.forward(boxed)
        with tracer.span("postprocess.decode"):
            candidates = decode(maps, model.anchors, model.strides,
                                conf_threshold=DEFAULT_CONF_THRESHOLD)
        with tracer.span("postprocess.nms"):
            kept = nms(candidates, iou_threshold=DEFAULT_IOU_THRESHOLD)
        with tracer.span("postprocess.serialize"):
            restored = [Detection(box=unletterbox_box(d.box, scale, pads,
                                                      orig_hw),
                                  class_id=d.class_id,
                                  confidence=d.confidence) for d in kept]
            rows = to_coco_results(restored, image_id=0)
        blob = _cli_json(rows)
        if tracer.enabled:
            tracer.count("postprocess.cells", self.cells[k % self.period])
            tracer.count("postprocess.candidates", len(candidates))
            tracer.count("postprocess.kept", len(kept))
            tracer.count("graph.forward.analyzer_flops",
                         self.analyzer_flops[config])
        return InferOutput(config, candidates, kept, blob,
                           maps if tracer.enabled else None, walk_flops)

    def check(self, k: int, out: InferOutput) -> None:
        checks.check_candidate_count(out.candidates,
                                     self.expected[k % self.period])
        checks.check_greedy_nms(out.candidates, out.kept,
                                DEFAULT_IOU_THRESHOLD)
        self.outputs.check(out.config, out.blob)
        if out.maps is not None:
            ref = self.reference_maps[out.config]
            if not all(np.array_equal(m.data, r)
                       for m, r in zip(out.maps, ref, strict=True)):
                raise checks.CheckFailed(
                    f"{out.config}: block walk maps differ from "
                    f"Model.forward's")
            if out.walk_flops != self.analyzer_flops[out.config]:
                raise checks.CheckFailed(
                    f"{out.config}: block walk metered {out.walk_flops} "
                    f"FLOPs, analyze says {self.analyzer_flops[out.config]}")


@dataclass
class ReportsOutput:
    totals: dict
    report: str
    anchors: np.ndarray
    objective: list


class ReportsWorkload:
    """A round with no forward pass: build + analyze every config, then
    load_coco + evaluate on a synthetic set, then fit anchors to its boxes."""

    period = 1
    min_ops = MIN_OPS

    def __init__(self, work: Path, seed: int, configs=None,
                 n_images: int = 200, gt_per_image: int = 20,
                 dets_per_image: int = 100, n_classes: int = 10,
                 k: int = 12):
        self.work = work
        self.seed = seed
        self.configs = list(configs or bundled_config_names())
        self.synthetic = (n_images, gt_per_image, dets_per_image, n_classes)
        self.k = k
        self.coco = work / "instances.json"
        self.dets: dict = {}
        self.reports = checks.RepeatLog()
        self.anchor_log = checks.RepeatLog()
        self.forward_peak_bytes = 0

    def generate(self) -> None:
        doc, self.dets = inputs.synthetic_coco(self.seed, *self.synthetic)
        self.coco.write_text(json.dumps(doc))

    def set_up(self, tracer) -> None:
        pass

    def prepare_trace(self) -> None:
        pass

    def op(self, k: int, tracer) -> ReportsOutput:
        totals = {}
        for config in self.configs:
            with tracer.span("graph.build"):
                model = build_model(find_config(config))
            with tracer.span("costs.analyze"):
                rep = analyze(model, (REPORT_SIDE, REPORT_SIDE))
            totals[config] = (rep.total_params, rep.gflops)
        with tracer.span("data.load_coco"):
            ds = load_coco(self.coco)
            gt = ds.gt_by_image()
        with tracer.span("metrics.evaluate"):
            report = evaluate(gt, self.dets)
        boxes = [ann.bbox[2:] for ann in ds.annotations]
        trace: list[float] = []
        with tracer.span("anchors.fit"):
            anchors = fit_anchors(boxes, k=self.k, seed=0, trace=trace)
        tracer.count("metrics.detections",
                     sum(len(d) for d in self.dets.values()))
        tracer.count("anchors.rounds", len(trace))
        return ReportsOutput(totals,
                             json.dumps(report.to_dict(), sort_keys=True),
                             anchors, trace)

    def check(self, k: int, out: ReportsOutput) -> None:
        for config, (params, gflops) in out.totals.items():
            checks.check_analyzer_totals(config, params, gflops)
        self.reports.check("evaluate", out.report)
        if out.anchors.shape != (self.k, 2):
            raise checks.CheckFailed(
                f"fit_anchors returned shape {out.anchors.shape}, asked for "
                f"{self.k} anchors")
        if any(b > a for a, b in zip(out.objective, out.objective[1:])):
            raise checks.CheckFailed("anchor objective trace rose")
        self.anchor_log.check("anchors", out.anchors.tobytes())


# Why each workload exists is written down in README.md beside this file.
def make_workload(name: str, work: Path, seed: int):
    if name == "infer-dense":
        return InferWorkload(work, seed, ["yolo-tla-s"], side=256,
                             sparse=False)
    if name == "infer-sparse":
        return InferWorkload(work, seed,
                             ["yolov5s", "yolov5s-g2", "yolo-tla-s"],
                             side=640, sparse=True)
    if name == "reports":
        return ReportsWorkload(work, seed)
    raise KeyError(name)


SETUP_REPEATS = 3
BLOCK_KINDS = ("ConvBNAct", "C3", "C3Ghost", "C3CrossConv", "GAM", "SPPF",
               "Upsample", "Concat", "Detect")
ELEMENTWISE = ("sigmoid", "relu", "silu", "add", "mul")


def measure_setup(workload, import_s: float) -> float:
    """Set-up seconds: the median fresh-process import plus the median of
    ``SETUP_REPEATS`` builds (and weight loads) of the workload's models."""
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.set_up(NullTracer())
        builds.append(time.perf_counter() - t0)
    return import_s + statistics.median(builds)


def end_to_end_metrics(loop: LoopResult, setup_s: float,
                       peak_rss_mb: float) -> dict:
    return {
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_p50_s": (statistics.median(loop.op_seconds), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (1.0 - loop.failed / loop.attempted, "ratio"),
    }


def per_layer_metrics(tracer, traced: LoopResult, plain: LoopResult,
                      workload) -> dict:
    """Per-layer figures from the traced phase, per op unless stated.

    A layer the workload does not call reads 0. Set-up spans count only for
    layers the ops themselves never enter (build and weight load on
    ``infer-*``), and then as seconds per set-up.
    """
    n = traced.attempted
    incl: dict[tuple, float] = {}
    for s in tracer.spans:
        key = (SETUP_OP if s.op == SETUP_OP else "op", s.name)
        incl[key] = incl.get(key, 0.0) + (s.end - s.start)
    self_s: dict[str, float] = {}
    for (op, name), sec in tracer.self_seconds().items():
        if op != SETUP_OP:
            self_s[name] = self_s.get(name, 0.0) + sec
    c = tracer.counts

    def per_op(name):
        return incl.get(("op", name), 0.0) / n

    def op_or_setup(name):
        if ("op", name) in incl:
            return per_op(name)
        return incl.get((SETUP_OP, name), 0.0)

    def rate(work, seconds):
        return work / seconds if seconds else 0.0

    forward_total = incl.get(("op", "graph.forward"), 0.0)
    m = {
        "postprocess.decode_s": (per_op("postprocess.decode"), "s"),
        "postprocess.nms_s": (per_op("postprocess.nms"), "s"),
        "postprocess.serialize_s": (per_op("postprocess.serialize"), "s"),
        "postprocess.candidates": (c["postprocess.candidates"] / n, "count"),
        "postprocess.kept": (c["postprocess.kept"] / n, "count"),
        "postprocess.pass_ratio": (rate(c["postprocess.candidates"],
                                        c["postprocess.cells"]), "ratio"),
        "postprocess.keep_ratio": (rate(c["postprocess.kept"],
                                        c["postprocess.candidates"]),
                                   "ratio"),
        "graph.forward_s": (per_op("graph.forward"), "s"),
        "graph.forward_gflops_per_s": (
            rate(c["graph.forward.analyzer_flops"], forward_total) / 1e9,
            "GFLOP/s"),
        "graph.forward_peak_mb": (workload.forward_peak_bytes / 1e6, "MB"),
        "graph.build_s": (op_or_setup("graph.build"), "s"),
        "graph.load_weights_s": (op_or_setup("graph.load_weights"), "s"),
    }
    for kind in BLOCK_KINDS:
        busy = self_s.get(f"blocks.{kind}", 0.0)
        m[f"blocks.{kind}.self_s"] = (busy / n, "s")
        m[f"blocks.{kind}.gflops_per_s"] = (
            rate(c[f"blocks.{kind}.flops"], busy) / 1e9, "GFLOP/s")
        m[f"blocks.{kind}.out_mb"] = (c[f"blocks.{kind}.out_bytes"] / n / 1e6,
                                      "MB")
    m.update({
        "tensor.conv2d_gflop": (c["tensor.conv2d.flops"] / n / 1e9, "GFLOP"),
        "tensor.linear_gflop": (c["tensor.linear.flops"] / n / 1e9, "GFLOP"),
        "tensor.elementwise_gflop": (
            sum(c[f"tensor.{e}.flops"] for e in ELEMENTWISE) / n / 1e9,
            "GFLOP"),
        "tensor.maxpool_gflop": (c["tensor.maxpool.flops"] / n / 1e9,
                                 "GFLOP"),
        "data.load_image_s": (per_op("data.load_image"), "s"),
        "data.letterbox_s": (per_op("data.letterbox"), "s"),
        "data.load_coco_s": (per_op("data.load_coco"), "s"),
        "costs.analyze_s": (per_op("costs.analyze"), "s"),
        "metrics.evaluate_s": (per_op("metrics.evaluate"), "s"),
        "metrics.detections_per_s": (
            rate(c["metrics.detections"],
                 incl.get(("op", "metrics.evaluate"), 0.0)), "1/s"),
        "anchors.fit_s": (per_op("anchors.fit"), "s"),
        "anchors.rounds": (c["anchors.rounds"] / n, "count"),
        "trace.overhead_ratio": (plain.ops_per_s / traced.ops_per_s, "ratio"),
    })
    return m


def block_table(metrics: dict) -> list[str]:
    """The per-kind profile table printed by the traced run."""
    lines = [f"{'block':<12} {'GFLOP/op':>10} {'self ms/op':>11} "
             f"{'GFLOP/s':>9} {'out MB/op':>10}"]
    for kind in BLOCK_KINDS:
        self_s = metrics[f"blocks.{kind}.self_s"][0]
        rate = metrics[f"blocks.{kind}.gflops_per_s"][0]
        lines.append(f"{kind:<12} {rate * self_s:>10.3f} "
                     f"{self_s * 1e3:>11.1f} {rate:>9.2f} "
                     f"{metrics[f'blocks.{kind}.out_mb'][0]:>10.2f}")
    return lines
