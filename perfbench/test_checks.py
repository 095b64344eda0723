"""Tests of the benchmark's own checks: a wrong output or a raised exception
must count as a failed op and never end the run.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import checks
import workloads
from spans import NullTracer, Tracer
from yolotla import Detection, nms


def _candidates(seed: int, n: int = 300) -> list[Detection]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x, y = rng.integers(0, 60, 2).astype(float)
        w, h = rng.integers(4, 30, 2).astype(float)
        out.append(Detection(box=(x, y, x + w, y + h),
                             class_id=int(rng.integers(3)),
                             # coarse confidences force rank ties
                             confidence=float(rng.integers(1, 6)) / 5))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_greedy_check_accepts_nms(seed):
    cands = _candidates(seed)
    checks.check_greedy_nms(cands, nms(cands, 0.45), 0.45)


def test_greedy_check_accepts_threshold_ties():
    # iou of these two is exactly 1/3: kept at threshold 1/3, dropped below
    a = Detection((0.0, 0.0, 2.0, 1.0), 0, 0.9)
    b = Detection((1.0, 0.0, 3.0, 1.0), 0, 0.8)
    checks.check_greedy_nms([a, b], [a, b], 1 / 3)
    checks.check_greedy_nms([a, b], [a], 0.3)
    with pytest.raises(checks.CheckFailed):
        checks.check_greedy_nms([a, b], [a], 1 / 3)


def _corruptions(cands, kept):
    dropped = [d for d in cands if d not in kept]
    yield kept[:-1]                              # a kept box goes missing
    yield kept + [dropped[0]]                    # a suppressed box survives
    yield [kept[1], kept[0]] + kept[2:]          # rank order broken
    moved = dataclasses.replace(kept[0], box=(0.0, 0.0, 1.0, 1.0))
    yield [moved] + kept[1:]                     # a box not among candidates


def test_greedy_check_rejects_corrupt_output():
    cands = _candidates(7)
    kept = nms(cands, 0.45)
    for bad in _corruptions(cands, kept):
        with pytest.raises(checks.CheckFailed):
            checks.check_greedy_nms(cands, bad, 0.45)


def test_analyzer_check():
    checks.check_analyzer_totals("yolov5s", 7_235_389, 16.5164)
    for name, params, gflops in [("yolov5s", 7_235_390, 16.516),
                                 ("yolov5s", 7_235_389, 16.517),
                                 ("unknown", 1, 1.0)]:
        with pytest.raises(checks.CheckFailed):
            checks.check_analyzer_totals(name, params, gflops)


def test_repeat_log():
    log = checks.RepeatLog()
    log.check("a", b"x")
    log.check("a", b"x")
    log.check("b", b"y")
    with pytest.raises(checks.CheckFailed):
        log.check("a", b"y")


# -- whole ops on small inputs ------------------------------------------------

def _infer(tmp_path):
    w = workloads.InferWorkload(tmp_path, 3, ["yolov5s"], side=64,
                                sparse=True)
    w.generate()
    w.set_up(NullTracer())
    return w


def _reports(tmp_path):
    w = workloads.ReportsWorkload(tmp_path, 3, configs=["yolov5s"],
                                  n_images=4, gt_per_image=5,
                                  dets_per_image=8, k=3)
    w.generate()
    return w


def test_healthy_infer_has_no_failures(tmp_path):
    w = _infer(tmp_path)
    assert w.expected == [12]   # 2x2 coarsest cells x 3 anchors at 64
    res = workloads.run_ops(w, 0, NullTracer())
    assert (res.attempted, res.failed) == (4, 0), res.problems
    w.prepare_trace()
    tracer = Tracer()
    res = workloads.run_ops(w, 0, tracer)
    assert (res.attempted, res.failed) == (4, 0), res.problems
    names = {s.name for s in tracer.spans}
    assert {"op", "graph.forward", "blocks.C3", "blocks.Detect",
            "postprocess.nms"} <= names
    assert tracer.counts["postprocess.candidates"] == 48


def test_healthy_reports_has_no_failures(tmp_path):
    res = workloads.run_ops(_reports(tmp_path), 0, NullTracer())
    assert (res.attempted, res.failed) == (4, 0), res.problems


def test_corrupt_nms_counts_as_failed(tmp_path, monkeypatch):
    w = _infer(tmp_path)
    monkeypatch.setattr(workloads, "nms", lambda d, iou_threshold: d[:1])
    res = workloads.run_ops(w, 0, NullTracer())
    assert (res.attempted, res.failed) == (4, 4)
    assert "CheckFailed" in res.problems[0]


def test_output_change_within_run_counts_as_failed(tmp_path, monkeypatch):
    w = _infer(tmp_path)
    real = workloads.to_coco_results
    calls = []

    def drifting(dets, image_id):
        calls.append(1)
        return real(dets, image_id=len(calls))
    monkeypatch.setattr(workloads, "to_coco_results", drifting)
    res = workloads.run_ops(w, 0, NullTracer())
    assert (res.attempted, res.failed) == (4, 3)


def test_raised_exception_counts_as_failed(tmp_path, monkeypatch):
    w = _infer(tmp_path)

    def broken(*args, **kwargs):
        raise RuntimeError("decode blew up")
    monkeypatch.setattr(workloads, "decode", broken)
    res = workloads.run_ops(w, 0, NullTracer())
    assert (res.attempted, res.failed) == (4, 4)
    assert "decode blew up" in res.problems[0]


def test_wrong_analyzer_total_counts_as_failed(tmp_path, monkeypatch):
    w = _reports(tmp_path)
    real = workloads.analyze

    def off_by_one(model, hw):
        rep = real(model, hw)
        return dataclasses.replace(rep, total_params=rep.total_params + 1)
    monkeypatch.setattr(workloads, "analyze", off_by_one)
    res = workloads.run_ops(w, 0, NullTracer())
    assert (res.attempted, res.failed) == (4, 4)
    assert "README table" in res.problems[0]
