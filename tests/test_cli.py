"""End-to-end checks of the command-line interface.

Each subcommand runs through cli.main with real files in a temp
directory. Output determinism matters as much as correctness here: the
same invocation must print the same bytes, so JSON output can be
golden-file tested downstream.
"""
import errno
import hashlib
import json
import logging
import math
import os
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from yolotla import cli, errors, meter
from yolotla.cli import main
from yolotla.graph import build_model, find_config, save_weights
from yolotla.tensor import Tensor, save_tns


def write_dataset(root, seed=7, boxes_per_image=20):
    """A small two-image, two-category COCO instances file."""
    rng = np.random.default_rng(seed)
    images = [{"id": 1, "file_name": "a.ppm", "width": 64, "height": 48},
              {"id": 2, "file_name": "b.ppm", "width": 64, "height": 48}]
    cats = [{"id": 3, "name": "dog"}, {"id": 7, "name": "cat"}]
    anns = []
    for img in images:
        for _ in range(boxes_per_image):
            w = float(rng.uniform(4, 30))
            h = float(rng.uniform(4, 30))
            x = float(rng.uniform(0, 30))
            y = float(rng.uniform(0, 15))
            anns.append({"id": len(anns) + 1, "image_id": img["id"],
                         "category_id": int(rng.choice([3, 7])),
                         "bbox": [round(v, 2) for v in (x, y, w, h)]})
    path = root / "instances.json"
    path.write_text(json.dumps(
        {"images": images, "annotations": anns, "categories": cats}))
    return path, anns


def write_results(root, anns, seed=11):
    """Jittered copies of most ground-truth boxes plus one stray."""
    rng = np.random.default_rng(seed)
    rows = []
    for a in anns[:30]:
        x, y, w, h = a["bbox"]
        rows.append({"image_id": a["image_id"],
                     "category_id": a["category_id"],
                     "bbox": [x + 0.5, y + 0.5, w, h],
                     "score": round(float(rng.uniform(0.3, 0.99)), 4)})
    rows.append({"image_id": 1, "category_id": 3,
                 "bbox": [50, 40, 5, 5], "score": 0.9})
    path = root / "results.json"
    path.write_text(json.dumps(rows))
    return path


def write_ppm(root, seed=3, w=64, h=48):
    rng = np.random.default_rng(seed)
    path = root / "img.ppm"
    payload = rng.integers(0, 256, (h, w, 3), dtype=np.uint8).tobytes()
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + payload)
    return path


def non_finite_dataset(workdir, width):
    """The workdir's ground truth with ``width`` as annotation 2's width."""
    doc = json.loads(workdir["gt"].read_text())
    doc["annotations"][2]["bbox"][2] = width
    path = workdir["root"] / "non-finite-instances.json"
    path.write_text(json.dumps(doc))
    return path


def huge_box_dataset(workdir):
    """The workdir's ground truth with annotation 2 a finite 1e200 x 1e200
    box, whose area is past float64's range."""
    doc = json.loads(workdir["gt"].read_text())
    doc["annotations"][2]["bbox"][2:] = [1e200, 1e200]
    path = workdir["root"] / "huge-box-instances.json"
    path.write_text(json.dumps(doc))
    return path


def sizes_dataset(path, sizes):
    """A one-image COCO file with one box of each (w, h) in ``sizes``."""
    path.write_text(json.dumps({
        "images": [{"id": 1, "file_name": "a.ppm", "width": 64,
                    "height": 48}],
        "annotations": [{"id": i + 1, "image_id": 1, "category_id": 3,
                         "bbox": [0, 0, w, h]}
                        for i, (w, h) in enumerate(sizes)],
        "categories": [{"id": 3, "name": "dog"}]}))
    return path


# a 337.755 side, stored as 337.75499..., and eight sizes, each fitted as
# its own anchor at k = 9
NINE_SIZES = [(337.755, 10)] + [(10 + 7 * i, 12 + 5 * i) for i in range(8)]


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    gt, anns = write_dataset(root)
    results = write_results(root, anns)
    image = write_ppm(root)
    return {"root": root, "gt": gt, "results": results, "image": image}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1


UNREADABLE_CONFIGS = pytest.mark.parametrize("raw,message", [
    (b'{"name": "\xe9"}', "not UTF-8"),
    (b'{"name": "toy", "nc"', "not valid JSON"),
    (b"[1, 2]", "root must be an object"),
], ids=["not-utf8", "truncated-json", "list-root"])


class TestConfigsCommand:
    def test_lists_every_bundled_variant(self, capsys):
        code, out, _ = run(["configs"], capsys)
        assert code == 0
        for name in ("yolov5s", "yolov5m", "yolov5s-tiny", "yolov5s-g1",
                     "yolov5s-g2", "yolov5s-cc1", "yolov5s-cc2",
                     "yolov5s-gam", "yolo-tla-s", "yolo-tla-m"):
            assert name in out

    def test_states_the_missing_weights_caveat(self, capsys):
        code, out, _ = run(["configs"], capsys)
        assert code == 0
        assert "no trained weights" in out
        assert "not reproducible" in out

    def test_json_is_parseable_and_complete(self, capsys):
        code, out, _ = run(["configs", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["configs"]) == 10
        byname = {r["name"]: r for r in doc["configs"]}
        assert byname["yolov5s"]["params"] == 7235389
        assert byname["yolo-tla-s"]["scales"] == 4
        assert "no trained weights" in doc["note"]

    def test_repeat_runs_print_identical_bytes(self, capsys):
        _, first, _ = run(["configs", "--json"], capsys)
        _, second, _ = run(["configs", "--json"], capsys)
        assert first == second


class TestAnalyzeCommand:
    def test_totals_match_the_builder(self, capsys):
        code, out, _ = run(["analyze", "--config", "yolov5s"], capsys)
        assert code == 0
        assert "7,235,389 params" in out
        assert "16.516 GFLOPs" in out
        assert "1 MAC = 2 FLOPs" in out

    def test_json_report_carries_layer_rows(self, capsys):
        code, out, _ = run(
            ["analyze", "--config", "yolov5s", "--json"], capsys)
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["total_params"] == 7235389
        assert rep["total_flops"] == 16516394800
        assert len(rep["layers"]) == 24
        assert rep["head"]["kind"] == "Detect"

    def test_input_size_rescales_flops_not_params(self, capsys):
        _, out640, _ = run(
            ["analyze", "--config", "yolov5s", "--json"], capsys)
        _, out320, _ = run(
            ["analyze", "--config", "yolov5s", "--input-size", "320",
             "--json"], capsys)
        rep640 = json.loads(out640)["report"]
        rep320 = json.loads(out320)["report"]
        assert rep320["total_params"] == rep640["total_params"]
        assert rep320["total_flops"] < rep640["total_flops"]

    def test_formula_table_prints_both_estimates(self, capsys):
        code, out, _ = run(
            ["analyze", "--config", "yolov5s", "--formulas"], capsys)
        assert code == 0
        assert "k=3: standard 1728 FLOPs / 27 params" in out
        assert "cross 2160 FLOPs / 18 params" in out
        assert "param ratio 1.50" in out

    def test_formula_json_ratios_are_half_k(self, capsys):
        _, out, _ = run(
            ["analyze", "--config", "yolov5s", "--formulas", "--json"],
            capsys)
        rows = json.loads(out)["formulas"]["rows"]
        for row in rows:
            assert row["param_ratio"] == row["k"] / 2

    def test_diff_reports_the_delta(self, capsys):
        code, out, _ = run(
            ["analyze", "--config", "yolo-tla-s", "--diff", "yolov5s"],
            capsys)
        assert code == 0
        assert "diff vs yolov5s" in out
        assert "+2,098,143 params, +8.029 GFLOPs" in out

    def test_diff_json_deltas_are_this_minus_the_other(self, capsys):
        code, out, _ = run(
            ["analyze", "--config", "yolo-tla-s", "--diff", "yolov5s",
             "--json"], capsys)
        assert code == 0
        diff = json.loads(out)["diff"]
        assert diff["param_delta"] == 2098143
        assert diff["gflops_delta"] == pytest.approx(8.0286464)

    def test_input_off_the_stride_grid_exits_one(self, capsys):
        code, _, err = run(
            ["analyze", "--config", "yolov5s", "--input-size", "100"], capsys)
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        assert "largest stride 32" in err

    @pytest.mark.parametrize("kind,arg,value,message", [
        ("GAM", "ratio", 0, "GAM ratio 0 must divide"),
        ("SPPF", "k", "5", "argument 'k' must be int, got '5'"),
        ("ConvBNAct", "act", "tanh", "unsupported activation 'tanh'"),
    ])
    def test_malformed_block_argument_exits_one(self, kind, arg, value,
                                                message, tmp_path, capsys):
        doc = json.loads(find_config("yolov5s-gam").read_text())
        row = next(r for r in doc["layers"] if r[2] == kind)
        row[3][arg] = value
        path = tmp_path / "hostile.cfg"
        path.write_text(json.dumps(doc))
        code, _, err = run(["analyze", "--config", str(path)], capsys)
        assert_one_line_error(code, err)
        assert message in err

    def test_shape_error_names_its_layer(self, tmp_path, capsys):
        doc = json.loads(find_config("yolov5s").read_text())
        row = next(r for r in doc["layers"] if r[2] == "Concat")
        row[0] = [-1, 0]   # layer 0's map is larger than the upsampled one
        path = tmp_path / "mismatch.cfg"
        path.write_text(json.dumps(doc))
        code, _, err = run(["analyze", "--config", str(path)], capsys)
        assert_one_line_error(code, err)
        index = doc["layers"].index(row)
        assert err.startswith(
            f"error: layer {index} (Concat): concat input 1 has (n, H, W) = ")

    @pytest.mark.parametrize("field,value,message", [
        ("width_multiple", math.nan, "width_multiple must be a finite"),
        ("depth_multiple", math.nan, "depth_multiple must be a finite"),
        ("width_multiple", math.inf, "width_multiple must be a finite"),
        ("depth_multiple", math.inf, "depth_multiple must be a finite"),
        ("width_multiple", 1e308, "times width_multiple 1e+308 is not finite"),
        ("depth_multiple", 1e308, "times depth_multiple 1e+308 is not finite"),
        ("out", 2 ** 1100, "times width_multiple 0.5 is not finite"),
        ("anchors", math.inf, "is not a finite positive (w, h) pair"),
        ("width_multiple", 10 ** 400, "width_multiple must be a finite"),
    ], ids=["width-nan", "depth-nan", "width-inf", "depth-inf",
            "width-1e308", "depth-1e308", "out-2**1100", "anchor-inf",
            "width-400-digits"])
    def test_non_finite_number_exits_one(self, field, value, message,
                                         tmp_path, capsys):
        doc = json.loads(find_config("yolov5s").read_text())
        if field == "out":
            doc["layers"][0][3]["out"] = value
        elif field == "anchors":
            doc["anchors"][0][0][0] = value
        else:
            doc[field] = value
        path = tmp_path / "hostile.cfg"
        path.write_text(json.dumps(doc))   # writes NaN and Infinity
        code, _, err = run(["analyze", "--config", str(path)], capsys)
        assert_one_line_error(code, err)
        assert message in err

    @UNREADABLE_CONFIGS
    def test_unreadable_config_exits_one(self, raw, message, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(raw)
        code, _, err = run(["analyze", "--config", str(path)], capsys)
        assert_one_line_error(code, err)
        assert message in err

    def test_unknown_config_exits_one(self, capsys):
        code, _, err = run(["analyze", "--config", "no-such-model"], capsys)
        assert code == 1
        assert "no-such-model" in err

    def test_missing_required_flag_exits_one(self, capsys):
        code, _, err = run(["analyze"], capsys)
        assert code == 1
        assert "usage error" in err


class TestAnchorsCommand:
    def test_fits_the_requested_count(self, workdir, capsys):
        code, out, _ = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "6"], capsys)
        assert code == 0
        assert "fitted 6 anchors over 40 boxes" in out

    def test_scales_partition_into_triples(self, workdir, capsys):
        code, out, _ = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "12",
             "--scales", "160,80,40,20", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["anchors"]) == 12
        assert [s["map"] for s in doc["scales"]] == [160, 80, 40, 20]
        assert all(len(s["anchors"]) == 3 for s in doc["scales"])

    def test_same_seed_prints_identical_bytes(self, workdir, capsys):
        argv = ["anchors", "--dataset", str(workdir["gt"]), "--k", "9",
                "--scales", "80,40,20", "--json"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_negative_seed_exits_one(self, workdir, capsys):
        code, out, err = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--seed", "-1"],
            capsys)
        assert_one_line_error(code, err)
        assert "--seed must be non-negative, got -1" in err
        assert out == ""

    @pytest.mark.parametrize("width", [math.nan, math.inf],
                             ids=["nan", "infinity"])
    def test_non_finite_box_exits_one(self, workdir, capsys, width):
        code, out, err = run(
            ["anchors", "--dataset", str(non_finite_dataset(workdir, width)),
             "--k", "6"], capsys)
        assert_one_line_error(code, err)
        assert "annotations[2] has a non-finite bbox" in err
        assert out == ""

    def test_overflowing_box_area_prints_no_warning(self, workdir, capsys):
        path = huge_box_dataset(workdir)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                ["anchors", "--dataset", str(path), "--k", "6",
                 "--scales", "80,40"], capsys)
        assert (code, err) == (0, "")
        assert "fitted 6 anchors over 40 boxes" in out

    def test_huge_box_keeps_the_text_report_short(self, workdir, capsys):
        path = huge_box_dataset(workdir)
        # seed 1 fits an anchor to the huge box itself
        code, out, _ = run(["anchors", "--dataset", str(path), "--k", "3",
                            "--seed", "1", "--scales", "80"], capsys)
        assert code == 0
        assert "(1e+200,1e+200)" in out
        assert max(map(len, out.splitlines())) <= 80

    @pytest.mark.parametrize("sizes, k", [
        ([(1e308, 1e307), (5, 5)], 2),        # rounding 1e308 overflows
        ([(1e308, 1.0), (1.5e308, 1.0)], 1),  # so does their mean
    ], ids=["round", "mean"])
    def test_huge_boxes_fit_finite_anchors(self, tmp_path, capsys, sizes, k):
        path = sizes_dataset(tmp_path / "huge.json", sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["anchors", "--dataset", str(path), "--k",
                                  str(k), "--json"], capsys)
        assert (code, err) == (0, "")
        anchors = json.loads(out, parse_constant=refuse_constant)["anchors"]
        assert len(anchors) == k
        assert all(0 < side < math.inf for pair in anchors for side in pair)

    def test_json_and_patched_config_round_alike(self, tmp_path, capsys):
        # 337.755 is 337.75499... in binary: Python's round gives 337.75,
        # numpy's, which --json has always printed, 337.76
        sizes = [(337.755, 10)] + [(10 + 7 * i, 12 + 5 * i) for i in range(8)]
        path = sizes_dataset(tmp_path / "nine.json", sizes)
        out_cfg = tmp_path / "patched.cfg"
        code, out, _ = run(["anchors", "--dataset", str(path), "--k", "9",
                            "--scales", "80,40,20", "--patch-config",
                            "yolov5s", "--out", str(out_cfg), "--json"],
                           capsys)
        assert code == 0
        printed = json.loads(out)["anchors"]
        written = json.loads(out_cfg.read_text())["anchors"]
        assert [pair for triple in written for pair in triple] == printed
        assert [337.76, 10.0] in printed

    def test_side_of_exactly_1e6_prints_in_short_form(self, tmp_path, capsys):
        # the short form starts at 1e6 itself; one box is its own anchor
        path = tmp_path / "one-box.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a.ppm", "width": 64,
                        "height": 48}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 3,
                             "bbox": [0, 0, 1e6, 999999.9]}],
            "categories": [{"id": 3, "name": "dog"}]}))
        code, out, _ = run(["anchors", "--dataset", str(path), "--k", "1"],
                           capsys)
        assert code == 0
        assert out.splitlines()[1] == "  (1e+06,999999.9)"

    def test_patch_config_writes_a_buildable_model(self, workdir, capsys):
        out_cfg = workdir["root"] / "patched.cfg"
        code, out, _ = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "12",
             "--scales", "160,80,40,20",
             "--patch-config", "yolov5s-tiny", "--out", str(out_cfg)],
            capsys)
        assert code == 0
        assert "wrote patched config" in out
        model = build_model(out_cfg)
        assert model.strides == (4, 8, 16, 32)
        original = build_model(find_config("yolov5s-tiny"))
        assert not np.array_equal(model.anchors[0], original.anchors[0])

    def test_patch_config_opens_each_input_once(self, workdir, capsys,
                                                 monkeypatch):
        opened = []

        def counting_open(path, mode):
            if "r" in mode:
                opened.append(path)
            return open(path, mode)
        monkeypatch.setattr(errors, "open", counting_open, raising=False)
        code, _, _ = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "9",
             "--scales", "80,40,20", "--patch-config", "yolov5s",
             "--out", str(workdir["root"] / "patched.cfg")], capsys)
        assert code == 0
        assert sorted(opened) == sorted([str(workdir["gt"]),
                                         str(find_config("yolov5s"))])

    def test_patch_config_needs_scales(self, workdir, capsys):
        code, _, err = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "12",
             "--patch-config", "yolov5s-tiny",
             "--out", str(workdir["root"] / "x.cfg")], capsys)
        assert code == 1
        assert "--scales" in err

    def test_patch_config_needs_out(self, workdir, capsys):
        code, _, err = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "12",
             "--scales", "160,80,40,20", "--patch-config", "yolov5s-tiny"],
            capsys)
        assert_one_line_error(code, err)
        assert err == "error: --patch-config requires --out\n"

    def test_scale_count_must_match_the_config(self, workdir, capsys):
        code, _, err = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "9",
             "--scales", "80,40,20", "--patch-config", "yolov5s-tiny",
             "--out", str(workdir["root"] / "y.cfg")], capsys)
        assert code == 1
        assert "scales" in err

    def test_non_integer_scales_exit_one(self, workdir, capsys):
        code, _, err = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "6",
             "--scales", "a,b"], capsys)
        assert_one_line_error(code, err)
        assert "--scales" in err

    @pytest.mark.parametrize("k, scales", [(9, "0,-5,3"), (12, "40,20,0,10")])
    def test_scale_below_one_exits_one(self, workdir, capsys, k, scales):
        code, out, err = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", str(k),
             "--scales", scales], capsys)
        assert_one_line_error(code, err)
        assert "scale sizes must be at least 1" in err
        assert out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--scales", "80,a"], "--scales must be comma-separated integers"),
        (["--scales", "80,40,20", "--patch-config", "yolov5s-tiny"],
         "config yolov5s-tiny detects on 4 scales, --scales names 3"),
        (["--scales", "160,80,40,20"], "9 anchors cannot fill 4 scales of 3"),
        (["--scales", "80,80,40"], "scale sizes repeat"),
        (["--scales", "80,40,0"], "scale sizes must be at least 1"),
        (["--k", str(10**12), "--scales", "80,40,20"],
         f"{10**12} anchors cannot fill 3 scales of 3"),
        (["--k", "0"], "k must be at least 1, got 0"),
    ], ids=["not-integers", "count-mismatch", "k-mismatch", "sizes-repeat",
            "size-below-one", "huge-k", "k-below-one"])
    def test_bad_flags_refused_before_the_dataset_is_read(
            self, workdir, capsys, monkeypatch, flags, message):
        read = []
        monkeypatch.setattr(cli, "load_coco", read.append)
        out_cfg = workdir["root"] / "never.cfg"
        code, out, err = run(["anchors", "--dataset", str(workdir["gt"]),
                              "--k", "9", *flags, "--out", str(out_cfg)],
                             capsys)
        assert_one_line_error(code, err)
        assert message in err
        assert (out, read) == ("", [])
        assert not out_cfg.exists()

    def test_scales_and_patched_rows_are_the_anchors_in_triples(
            self, tmp_path, capsys):
        path = sizes_dataset(tmp_path / "nine.json", NINE_SIZES)
        out_cfg = tmp_path / "patched.cfg"
        code, out, _ = run(["anchors", "--dataset", str(path), "--k", "9",
                            "--scales", "80,40,20", "--patch-config",
                            "yolov5s", "--out", str(out_cfg), "--json"],
                           capsys)
        assert code == 0
        doc = json.loads(out)
        rows = [row["anchors"] for row in doc["scales"]]
        assert [pair for row in rows for pair in row] == doc["anchors"]
        assert json.loads(out_cfg.read_text())["anchors"] == rows
        assert doc["patched"] == str(out_cfg)

    def test_anchor_that_rounds_to_zero_is_not_patched_in(self, tmp_path,
                                                          capsys):
        # a 0.001 x 0.002 box is fitted as its own anchor, printed as
        # [0.0, 0.0], which no config may hold
        sizes = [(0.001, 0.002)] + [(10 + 7 * i, 12 + 5 * i) for i in range(8)]
        path = sizes_dataset(tmp_path / "tiny.json", sizes)
        out_cfg = tmp_path / "patched.cfg"
        code, out, err = run(["anchors", "--dataset", str(path), "--k", "9",
                              "--scales", "80,40,20", "--patch-config",
                              "yolov5s", "--out", str(out_cfg)], capsys)
        assert_one_line_error(code, err)
        assert "anchors row 0 entry [0.0, 0.0] is not a finite positive" in err
        assert out == ""
        assert not out_cfg.exists()

    def test_unwritable_out_exits_one(self, workdir, capsys):
        out_cfg = workdir["root"] / "no-such-dir" / "patched.cfg"
        code, _, err = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "12",
             "--scales", "160,80,40,20",
             "--patch-config", "yolov5s-tiny", "--out", str(out_cfg)],
            capsys)
        assert_one_line_error(code, err)
        assert "cannot write" in err

    @UNREADABLE_CONFIGS
    def test_unreadable_patch_config_exits_one(self, raw, message, workdir,
                                               tmp_path, capsys):
        src = tmp_path / "bad.cfg"
        src.write_bytes(raw)
        code, _, err = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "12",
             "--scales", "160,80,40,20", "--patch-config", str(src),
             "--out", str(tmp_path / "patched.cfg")], capsys)
        assert_one_line_error(code, err)
        assert message in err

    def test_missing_dataset_exits_one(self, workdir, capsys):
        code, _, err = run(
            ["anchors", "--dataset", str(workdir["root"] / "nope.json")],
            capsys)
        assert code == 1
        assert err.startswith("error:")


class TestInferCommand:
    def test_writes_coco_rows(self, workdir, capsys):
        out_json = workdir["root"] / "dets.json"
        code, out, _ = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64",
             "--conf", "0.18", "--out", str(out_json)], capsys)
        assert code == 0
        rows = json.loads(out_json.read_text())
        assert rows, "expected some low-threshold detections"
        for row in rows:
            assert set(row) == {"image_id", "category_id", "bbox", "score"}
            assert row["score"] >= 0.18
            assert len(row["bbox"]) == 4

    def test_random_weights_are_flagged_in_text_output(self, workdir,
                                                       capsys):
        code, out, _ = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64"], capsys)
        assert code == 0
        assert "random init" in out
        assert "meaningless" in out

    def test_seeded_runs_are_byte_identical(self, workdir, capsys):
        argv = ["infer", "--config", "yolov5s", "--image",
                str(workdir["image"]), "--input-size", "64",
                "--conf", "0.18", "--json"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_timings_go_to_stderr_only(self, workdir, capsys, mode):
        outs = []
        for extra in ([], ["--timings"]):
            out_json = workdir["root"] / f"timed{len(extra)}.json"
            begin = time.perf_counter()
            code, out, err = run(
                ["infer", "--config", "yolov5s", "--image",
                 str(workdir["image"]), "--input-size", "64", "--conf",
                 "0.18", "--out", str(out_json)] + mode + extra, capsys)
            wall = time.perf_counter() - begin
            assert code == 0
            outs.append((out.replace(str(out_json), "OUT"),
                         out_json.read_bytes()))
        assert outs[0] == outs[1]
        lines = [line.split() for line in err.splitlines()]
        assert [line[:2] for line in lines] == [
            ["timing", stage] for stage in ("load", "letterbox", "forward",
                                            "decode", "nms", "serialize")]
        assert all(line[3] == "s" and line[4] == "peak_rss"
                   and line[6] == "MB" and len(line) == 7 for line in lines)
        seconds = [float(line[2]) for line in lines]
        peaks = [float(line[5]) for line in lines]
        assert min(seconds) >= 0 and peaks[0] > 0
        # consecutive stages inside the run; each printed value is rounded
        # to 4 decimals, so the sum may exceed the exact one by 6 * 5e-5
        assert sum(seconds) <= wall + 6 * 5e-5
        assert peaks == sorted(peaks)   # a process peak never decreases

    def test_out_file_holds_the_json_stdout(self, workdir, capsys):
        out_json = workdir["root"] / "both.json"
        for conf in ("0.18", "1.0"):
            code, out, _ = run(
                ["infer", "--config", "yolov5s", "--image",
                 str(workdir["image"]), "--input-size", "64", "--conf", conf,
                 "--json", "--out", str(out_json)], capsys)
            assert code == 0
            # print's newline on stdout is the file's closing newline
            assert out_json.read_bytes() == out.encode()
        assert out == "[]\n"   # nothing reaches confidence 1.0

    def test_weight_file_reproduces_the_seeded_run(self, workdir, capsys):
        weights = workdir["root"] / "model.tlaw"
        build_model(find_config("yolov5s"), seed=0).save_weight_file(weights)
        base = ["infer", "--config", "yolov5s", "--image",
                str(workdir["image"]), "--input-size", "64",
                "--conf", "0.18", "--json"]
        _, seeded, _ = run(base, capsys)
        _, loaded, _ = run(base + ["--weights", str(weights)], capsys)
        assert seeded == loaded

    def test_stretch_mode_runs(self, workdir, capsys):
        code, out, _ = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64", "--stretch",
             "--conf", "0.18", "--json"], capsys)
        assert code == 0
        json.loads(out)

    def test_tns_input_is_accepted(self, workdir, capsys):
        rng = np.random.default_rng(5)
        tns = workdir["root"] / "img.tns"
        img = Tensor(rng.uniform(0, 1, (1, 3, 48, 64)).astype(np.float32))
        save_tns(img, tns)
        code, _, _ = run(
            ["infer", "--config", "yolov5s", "--image", str(tns),
             "--input-size", "64", "--json"], capsys)
        assert code == 0

    @pytest.mark.parametrize("flag", ["--conf", "--iou"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "1.5"])
    def test_threshold_outside_unit_interval_exits_one(self, workdir, capsys,
                                                       flag, value):
        code, out, err = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64", flag, value],
            capsys)
        assert_one_line_error(code, err)
        assert f"{flag} must be within [0, 1], got {float(value)}" in err
        assert out == ""

    def test_negative_seed_exits_one(self, workdir, capsys):
        code, out, err = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64", "--seed", "-1"],
            capsys)
        assert_one_line_error(code, err)
        assert "--seed must be non-negative, got -1" in err
        assert out == ""

    @pytest.mark.parametrize("side", ["-5", "0"])
    def test_input_size_below_one_exits_one(self, workdir, capsys, side):
        code, out, err = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", side], capsys)
        assert_one_line_error(code, err)
        assert f"target side must be at least 1, got {side}" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--conf", "--iou"])
    @pytest.mark.parametrize("value", ["0", "1"])
    def test_threshold_at_either_end_is_accepted(self, workdir, capsys,
                                                 flag, value):
        code, out, _ = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64", flag, value,
             "--json"], capsys)
        assert code == 0
        assert isinstance(json.loads(out), list)

    def test_missing_image_exits_one(self, workdir, capsys):
        path = workdir["root"] / "missing.ppm"
        code, _, err = run(
            ["infer", "--config", "yolov5s", "--image", str(path)], capsys)
        assert code == 1
        assert err == (f"error: cannot read image {path}: "
                       f"No such file or directory\n")


    def test_unwritable_out_exits_one(self, workdir, capsys):
        code, _, err = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64",
             "--out", str(workdir["root"] / "no-such-dir" / "dets.json")],
            capsys)
        assert_one_line_error(code, err)
        assert "cannot write" in err

    @pytest.mark.parametrize("name, blob", [
        # 65536**4 == 2**64, which wraps to 0 in int64 size arithmetic
        ("huge.tns", b"TNS1" + np.full(4, 65536, "<u4").tobytes()),
        ("negative.ppm", b"P6\n-1 -1\n255\n" + b"\0" * 12),
    ], ids=["tns-dims-wrap", "ppm-negative-dims"])
    def test_malformed_image_exits_one(self, workdir, capsys, name, blob):
        path = workdir["root"] / name
        path.write_bytes(blob)
        code, _, err = run(
            ["infer", "--config", "yolov5s", "--image", str(path),
             "--input-size", "64"], capsys)
        assert_one_line_error(code, err)

    # the entry name "ab" sits at bytes 13-14, its dims at 15-30
    @pytest.mark.parametrize("name, patch", [
        ("huge.tlaw", lambda blob: blob[:15] + np.full(4, 65536, "<u4")
         .tobytes()),
        ("latin1.tlaw", lambda blob: blob[:13] + b"\xff\xfe" + blob[15:]),
    ], ids=["tlaw-dims-wrap", "tlaw-name-not-utf8"])
    def test_malformed_weights_exit_one(self, workdir, capsys, name, patch):
        path = workdir["root"] / name
        save_weights(path, {"ab": np.zeros(1, np.float32)})
        path.write_bytes(patch(path.read_bytes()))
        code, _, err = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64",
             "--weights", str(path)], capsys)
        assert_one_line_error(code, err)

    @pytest.mark.parametrize("name", ["missing.tlaw", "."],
                             ids=["missing", "directory"])
    def test_unreadable_weights_exit_one(self, workdir, capsys, name):
        code, _, err = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64",
             "--weights", str(workdir["root"] / name)], capsys)
        assert_one_line_error(code, err)
        assert err.startswith("error: cannot read weights ")

    def test_weights_that_fail_after_the_open_exit_one(self, workdir, capsys,
                                                       fail_reads_of):
        path = workdir["root"] / "w.tlaw"
        save_weights(path, {"ab": np.zeros(1, np.float32)})
        fail_reads_of(path)
        code, out, err = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64",
             "--weights", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: cannot read weights {path}: Input/output error\n"

    def test_non_finite_weights_exit_one(self, workdir, capsys):
        model = build_model(find_config("yolov5s"), seed=0)
        params = dict(model.params)
        bias = params["detect.m0.conv.bias"].copy()
        bias[[0, 85, 170]] = np.nan   # each anchor's x logit
        params["detect.m0.conv.bias"] = bias
        path = workdir["root"] / "nan.tlaw"
        save_weights(path, params)
        code, out, err = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["image"]), "--input-size", "64",
             "--weights", str(path), "--json"], capsys)
        assert_one_line_error(code, err)
        assert "detect.m0.conv.bias" in err
        assert out == ""

    def test_non_finite_tns_pixels_exit_one(self, workdir, capsys):
        data = np.full((1, 3, 8, 8), 0.5, np.float32)
        data[0, 1, 2, 3] = np.inf
        path = workdir["root"] / "inf.tns"
        save_tns(Tensor(data), path)
        code, _, err = run(
            ["infer", "--config", "yolov5s", "--image", str(path),
             "--input-size", "64", "--json"], capsys)
        assert_one_line_error(code, err)
        assert "finite" in err

    def test_head_overflow_exits_one(self, workdir, capsys):
        # finite weights whose detect sums leave the float32 range
        model = build_model(find_config("yolov5s"), seed=0)
        params = dict(model.params)
        for name, value in (("weight", 3e38),
                            ("bias", np.finfo(np.float32).max)):
            key = f"detect.m0.conv.{name}"
            params[key] = np.full_like(params[key], value)
        path = workdir["root"] / "overflow.tlaw"
        save_weights(path, params)
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(
                ["infer", "--config", "yolov5s", "--image",
                 str(workdir["image"]), "--input-size", "64",
                 "--weights", str(path), "--json"], capsys)
        assert_one_line_error(code, err)
        assert "head map 0 holds non-finite values" in err
        assert out == ""

    def test_forward_overflow_is_one_error_line(self, workdir, capsys):
        # finite weights whose forward leaves the float32 range: numpy's
        # overflow and invalid-value warnings stay silent, and the head map
        # check reports it
        self.overflow_is_one_error_line(workdir, capsys, 64)

    def test_forward_overflow_on_the_pool_is_one_error_line(self, workdir,
                                                            capsys):
        # at 320 the large convs run their bands on the pool's threads
        # too, which must keep the walk's errstate
        self.overflow_is_one_error_line(workdir, capsys, 320)

    @staticmethod
    def overflow_is_one_error_line(workdir, capsys, side):
        model = build_model(find_config("yolov5s"), seed=0)
        params = {name: value * np.float32(1e30)
                  if name.endswith("conv.weight") else value
                  for name, value in model.params.items()}
        path = workdir["root"] / "forward-overflow.tlaw"
        save_weights(path, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                ["infer", "--config", "yolov5s", "--image",
                 str(workdir["image"]), "--input-size", str(side),
                 "--weights", str(path), "--json"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: head map 0 holds non-finite values "
                       "(NaN or infinity)\n")

    def test_far_negative_detect_biases_find_nothing(self, workdir, capsys):
        # every head logit near -1000, where exp(-x) overflows float64
        model = build_model(find_config("yolov5s"), seed=0)
        params = {name: np.full_like(value, -1000.0)
                  if name.startswith("detect.") and name.endswith(".bias")
                  else value for name, value in model.params.items()}
        path = workdir["root"] / "far-negative.tlaw"
        save_weights(path, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                ["infer", "--config", "yolov5s", "--image",
                 str(workdir["image"]), "--input-size", "64",
                 "--weights", str(path), "--json"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == []

    def test_candidate_counts_are_logged(self, workdir, capsys, caplog):
        argv = ["infer", "--config", "yolov5s", "--image",
                str(workdir["image"]), "--input-size", "64",
                "--conf", "0.18", "--json"]
        _, quiet, _ = run(argv, capsys)
        with caplog.at_level(logging.DEBUG, logger="yolotla"):
            _, out, _ = run(argv, capsys)
        kept = len(json.loads(out))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "yolotla" and r.levelno == logging.DEBUG]
        assert lines == [f"infer: 252 candidates at conf>=0.18, {kept} kept "
                         f"by nms, {252 - kept} suppressed"]
        assert out == quiet   # no count reaches the JSON


# sha256 of `infer --json` stdout for the module's seeded PPM, seed-0
# weights, default thresholds; recorded before NMS became row-wise. The two
# yolo-tla-s entries were re-recorded when conv2d moved from float64 to
# float32 GEMMs: its seeded heads give every cell a confidence near 0.2514,
# so the candidates are near-ties, and a last-bit change in the head maps
# (at most 7.5e-9) changes which of them NMS keeps (4 of 1,021 rows at 128,
# 31 of 4,111 at 256). The yolov5s bytes did not change.
# So the two yolo-tla-s entries guard one host and one BLAS build only
# (recorded on OpenBLAS 0.3.31, DYNAMIC_ARCH, SkylakeX kernel; they match at
# 1 and 2 BLAS threads there): another sgemm kernel may sum in another
# order and reorder the near-ties. The yolov5s entries have survived the
# change from float64 to float32 accumulation.
INFER_DIGESTS = {
    ("yolov5s", 128):
        "ff8e80c702af19fffc85d80e93c729694a3f39597d5b7a33cb123d58a192e5ea",
    ("yolov5s", 256):
        "9fc33efa6b320e81028f27d59e5c4d72df28e83a04d94e97ff55af7aecac8840",
    ("yolo-tla-s", 128):
        "efd0355921be3aa05483d16c0d9548f807326a78ddedf501765050a9a570303a",
    ("yolo-tla-s", 256):
        "570cd740c97d1d1d4a0a98d58e9bb7f1a4710b6589e7fb05bdce699d0a1417ed",
}


class TestInferOutputGuard:

    @pytest.mark.parametrize("config, side", sorted(INFER_DIGESTS))
    def test_json_bytes_unchanged(self, workdir, capsys, config, side):
        code, out, _ = run(
            ["infer", "--config", config, "--image", str(workdir["image"]),
             "--input-size", str(side), "--json"], capsys)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == INFER_DIGESTS[config, side]


class TestEvalCommand:
    def test_report_covers_both_classes(self, workdir, capsys):
        code, out, _ = run(
            ["eval", "--gt", str(workdir["gt"]),
             "--results", str(workdir["results"])], capsys)
        assert code == 0
        assert "dog" in out and "cat" in out
        assert "mAP@0.5" in out
        assert "TN n/a" in out

    def test_json_report_fields(self, workdir, capsys):
        code, out, _ = run(
            ["eval", "--gt", str(workdir["gt"]),
             "--results", str(workdir["results"]), "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        for key in ("precision", "recall", "f1", "map50", "map50_95",
                    "per_class", "true_negatives"):
            assert key in doc
        assert doc["true_negatives"] == "n/a"
        assert 0.0 <= doc["map50_95"] <= doc["map50"] <= 1.0

    def test_pr_csv_is_written(self, workdir, capsys):
        csv_path = workdir["root"] / "curve.csv"
        code, _, _ = run(
            ["eval", "--gt", str(workdir["gt"]),
             "--results", str(workdir["results"]),
             "--pr-csv", str(csv_path)], capsys)
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "class,recall,precision"
        assert len(lines) > 1

    def test_unannotated_category_keeps_each_class_name(self, workdir,
                                                        capsys):
        # a class is its category's position among all listed ids, so a
        # category without boxes (5, between dog 3 and cat 7) moves cat
        # from class 1 to 2 and changes no name or figure
        doc = json.loads(workdir["gt"].read_text())
        doc["categories"].insert(0, {"id": 5, "name": "bird"})
        gt = workdir["root"] / "unannotated-category.json"
        gt.write_text(json.dumps(doc))
        csv_path = workdir["root"] / "curve.csv"
        texts, csvs = [], []
        for path in (workdir["gt"], gt):
            code, out, _ = run(
                ["eval", "--gt", str(path), "--results",
                 str(workdir["results"]), "--pr-csv", str(csv_path)], capsys)
            assert code == 0
            texts.append(out)
            csvs.append(csv_path.read_text().splitlines())
        assert texts[1] == texts[0]
        assert csvs[1] == [("2" + row[1:]) if row.startswith("1,") else row
                           for row in csvs[0]]

    def test_unwritable_pr_csv_exits_one(self, workdir, capsys):
        code, _, err = run(
            ["eval", "--gt", str(workdir["gt"]),
             "--results", str(workdir["results"]),
             "--pr-csv", str(workdir["root"] / "no-such-dir" / "c.csv")],
            capsys)
        assert_one_line_error(code, err)
        assert "cannot write" in err

    def test_malformed_results_exit_one(self, workdir, capsys):
        bad = workdir["root"] / "bad.json"
        bad.write_text(json.dumps([{"image_id": 1}]))
        code, _, err = run(
            ["eval", "--gt", str(workdir["gt"]), "--results", str(bad)],
            capsys)
        assert code == 1
        assert "malformed" in err

    @pytest.mark.parametrize("field, value", [
        ("score", math.nan), ("score", math.inf), ("bbox", math.nan),
        ("bbox", -math.inf)])
    def test_non_finite_result_exits_one(self, workdir, capsys, field,
                                         value):
        # Python's json reads the NaN and Infinity tokens it writes
        rows = json.loads(workdir["results"].read_text())
        if field == "score":
            rows[4]["score"] = value
        else:
            rows[4]["bbox"][1] = value
        bad = workdir["root"] / "non-finite-results.json"
        bad.write_text(json.dumps(rows))
        code, out, err = run(
            ["eval", "--gt", str(workdir["gt"]), "--results", str(bad)],
            capsys)
        assert_one_line_error(code, err)
        assert "results[4] has a non-finite" in err
        assert out == ""

    def test_non_finite_ground_truth_exits_one(self, workdir, capsys):
        bad = non_finite_dataset(workdir, math.nan)
        code, out, err = run(
            ["eval", "--gt", str(bad), "--results", str(workdir["results"])],
            capsys)
        assert_one_line_error(code, err)
        assert "annotations[2] has a non-finite bbox" in err
        assert out == ""

    @pytest.mark.parametrize("command,file,section,field", [
        ("eval", "gt", "images", "id"),
        ("eval", "gt", "images", "width"),
        ("eval", "gt", "categories", "id"),
        ("eval", "gt", "annotations", "image_id"),
        ("anchors", "gt", "images", "id"),
        ("eval", "results", None, "image_id"),
        ("eval", "results", None, "category_id"),
    ])
    def test_infinite_id_exits_one(self, workdir, capsys, command, file,
                                   section, field):
        # Python's json reads 1e400 as inf, and int(inf) raises OverflowError
        doc = json.loads(workdir[file].read_text())
        (doc if section is None else doc[section])[0][field] = "INF"
        bad = workdir["root"] / "infinite-id.json"
        bad.write_text(json.dumps(doc).replace('"INF"', "1e400"))
        paths = {**workdir, file: bad}
        argv = (["anchors", "--dataset", str(paths["gt"])]
                if command == "anchors" else
                ["eval", "--gt", str(paths["gt"]),
                 "--results", str(paths["results"])])
        code, out, err = run(argv, capsys)
        assert_one_line_error(code, err)
        assert f"{section or 'results'}[0] is malformed" in err
        assert out == ""

    def test_unknown_category_exits_one(self, workdir, capsys):
        bad = workdir["root"] / "badcat.json"
        bad.write_text(json.dumps([
            {"image_id": 1, "category_id": 999, "bbox": [1, 1, 5, 5],
             "score": 0.9}]))
        code, _, err = run(
            ["eval", "--gt", str(workdir["gt"]), "--results", str(bad)],
            capsys)
        assert code == 1
        assert "999" in err


# sha256 of what `anchors --k 9 --scales 80,40,20` writes on NINE_SIZES,
# whose fitted anchors have three decimals
NINE_DIGESTS = {
    "json": "d07dea54fc264cab032bd0accc84b939ad1d47ec6caf9e519114f422cd7d9020",
    "text": "5fb825a596631c13bbdb04a200db9c9d53ca71b5adc7426923e76862c38ae0ad",
    "patched-config":
        "004e1f2ef32fab10f41033ed705c9b15c35117900f641fe9bbe11cd3d7f1bff4",
}

# sha256 of what `eval` and `anchors` write on the workdir fixture
REPORT_DIGESTS = {
    "anchors-json-scales":
        "d04c73d40e46bf4f50956cd7835f3881f891fa480c9b691626a09484af2aa9cc",
    "eval-json":
        "48cf7aa6ce15950b6d9682870bd676c9550cfea18de1da3fd2a4577e59bd4908",
    "eval-pr-csv":
        "408ee80933bed1428eefe25f6a71805a7e02f8fb77e764db1f66f80d113af1d3",
    "eval-text":
        "6566bf128da6940157bd57f268b6508219fa0827cb2827737f807fe9757e99e3",
}


class TestReportOutputGuard:

    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_bytes_unchanged(self, workdir, capsys, name):
        gt, results = str(workdir["gt"]), str(workdir["results"])
        csv_path = workdir["root"] / "guard.csv"
        argv = {
            "eval-json": ["eval", "--gt", gt, "--results", results, "--json"],
            "eval-text": ["eval", "--gt", gt, "--results", results],
            "eval-pr-csv": ["eval", "--gt", gt, "--results", results,
                            "--json", "--pr-csv", str(csv_path)],
            "anchors-json-scales": ["anchors", "--dataset", gt, "--k", "12",
                                    "--scales", "160,80,40,20", "--json"],
        }[name]
        code, out, _ = run(argv, capsys)
        assert code == 0
        written = (csv_path.read_bytes() if name == "eval-pr-csv"
                   else out.encode())
        assert hashlib.sha256(written).hexdigest() == REPORT_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(NINE_DIGESTS))
    def test_anchors_bytes_with_three_decimals(self, tmp_path, capsys, name):
        # `scales` and the patched config print the `anchors` values:
        # 337.76, not 337.755
        path = sizes_dataset(tmp_path / "nine.json", NINE_SIZES)
        out_cfg = tmp_path / "patched.cfg"
        flags = {"json": ["--json"], "text": [], "patched-config": [
            "--patch-config", "yolov5s", "--out", str(out_cfg)]}[name]
        code, out, _ = run(["anchors", "--dataset", str(path), "--k", "9",
                            "--scales", "80,40,20", *flags], capsys)
        assert code == 0
        written = (out_cfg.read_bytes() if name == "patched-config"
                   else out.encode())
        assert hashlib.sha256(written).hexdigest() == NINE_DIGESTS[name]


class _HalfWriter:
    """A file whose first write stores half its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestOutputFiles:
    """Every output file is written whole or not at all, and a bad output
    path is refused before the command reads or computes anything."""

    def infer_argv(self, workdir, out):
        return ["infer", "--config", "yolov5s", "--image",
                str(workdir["image"]), "--input-size", "64", "--conf", "0.18",
                "--json", "--out", str(out)]

    def test_infer_refuses_a_missing_directory_before_the_forward(
            self, workdir, capsys, tmp_path):
        out = tmp_path / "no-such-dir" / "x.json"
        start = time.perf_counter()
        code, stdout, err = run(
            ["infer", "--config", "yolo-tla-s", "--image",
             str(workdir["image"]), "--out", str(out)], capsys)
        assert time.perf_counter() - start < 1.0   # the forward takes ~3 s
        assert (code, stdout) == (1, "")
        assert err == f"error: cannot write {out}: No such file or directory\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "--gt", "missing-gt.json", "--results", "missing.json",
         "--pr-csv"],
        ["anchors", "--dataset", "missing-gt.json", "--scales",
         "160,80,40,20", "--patch-config", "yolov5s-tiny", "--out"],
    ], ids=["eval", "anchors"])
    def test_refuses_a_missing_directory_before_reading(self, capsys,
                                                         tmp_path, argv):
        # the inputs are missing too: the output path is checked first
        out = tmp_path / "no-such-dir" / "x"
        code, stdout, err = run(argv + [str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_failed_write_leaves_the_old_file(self, workdir, capsys,
                                              tmp_path, monkeypatch):
        out = tmp_path / "dets.json"
        out.write_bytes(b"old results")
        def half_open(path, mode):   # the inputs' reads pass through
            fh = open(path, mode)
            return fh if "r" in mode else _HalfWriter(fh)
        monkeypatch.setattr(errors, "open", half_open, raising=False)
        code, stdout, err = run(self.infer_argv(workdir, out), capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: cannot write {out}: No space left on device\n"
        assert out.read_bytes() == b"old results"
        assert list(tmp_path.iterdir()) == [out]

    def test_replaced_file_is_a_new_file(self, workdir, capsys, tmp_path):
        out = tmp_path / "dets.json"
        out.write_bytes(b"old results")
        out.chmod(0o600)
        old_inode = out.stat().st_ino
        probe = tmp_path / "probe"
        probe.touch()   # the permission bits a new file gets
        code, stdout, _ = run(self.infer_argv(workdir, out), capsys)
        assert code == 0
        assert out.read_bytes() == stdout.encode()
        assert out.stat().st_ino != old_inode
        assert out.stat().st_mode == probe.stat().st_mode
        assert sorted(tmp_path.iterdir()) == [out, probe]

    def test_symlink_target_is_written_and_the_link_stays(
            self, workdir, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(b"old results")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code, stdout, _ = run(self.infer_argv(workdir, link), capsys)
        assert code == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == stdout.encode()
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_fifo_is_written_in_place(self, workdir, capsys, tmp_path):
        fifo = tmp_path / "results.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        # a write end of our own, closed last, ends the read however the
        # command treats the FIFO
        held = os.open(fifo, os.O_WRONLY)
        try:
            code, stdout, _ = run(self.infer_argv(workdir, fifo), capsys)
        finally:
            os.close(held)
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == 0
        assert got == [stdout.encode()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_anchors_out_without_patch_config_writes_nothing(
            self, workdir, capsys, tmp_path):
        out = tmp_path / "patched.cfg"
        code, _, _ = run(["anchors", "--dataset", str(workdir["gt"]),
                          "--k", "12", "--out", str(out)], capsys)
        assert code == 0
        assert list(tmp_path.iterdir()) == []


def edited_input(workdir, file, edit):
    """The workdir with its ground truth or results replaced by a copy
    whose parsed JSON went through ``edit``."""
    doc = json.loads(workdir[file].read_text())
    edit(doc)
    path = workdir["root"] / f"edited-{file}.json"
    path.write_text(json.dumps(doc))
    return {**workdir, file: path}


def set_field(section, index, field, value):
    def edit(doc):
        (doc if section is None else doc[section])[index][field] = value
    return edit


NON_INTEGER_IDS = [1.7, 1.0, "1", True]
ID_FIELDS = [("gt", "images", "id"), ("gt", "categories", "id"),
             ("gt", "annotations", "image_id"),
             ("gt", "annotations", "category_id"),
             ("results", None, "image_id"), ("results", None, "category_id")]
BAD_BOXES = ["1234", [1, "2", 3, 4], [1, 2, 3], [1, 2, 3, 4, 5],
             [1, True, 3, 4], None]


class TestCocoInputPolicy:
    """Ids are JSON integers, image and category ids are unique, a bbox is
    four JSON numbers and a score is a JSON number; anything else in either
    COCO file ends `eval` with a one-line error that names the record."""

    def eval_fails(self, paths, capsys):
        code, out, err = run(["eval", "--gt", str(paths["gt"]),
                              "--results", str(paths["results"])], capsys)
        assert_one_line_error(code, err)
        assert out == ""
        return err

    @pytest.mark.parametrize("value", NON_INTEGER_IDS, ids=repr)
    @pytest.mark.parametrize("file, section, field", ID_FIELDS)
    def test_non_integer_id_exits_one(self, workdir, capsys, file, section,
                                      field, value):
        paths = edited_input(workdir, file,
                             set_field(section, 0, field, value))
        err = self.eval_fails(paths, capsys)
        assert (f"{section or 'results'}[0] is malformed: '{field}' must be "
                f"an integer, got {value!r}") in err

    @pytest.mark.parametrize("value", BAD_BOXES, ids=repr)
    @pytest.mark.parametrize("file, section", [("gt", "annotations"),
                                               ("results", None)])
    def test_malformed_bbox_exits_one(self, workdir, capsys, file, section,
                                      value):
        paths = edited_input(workdir, file,
                             set_field(section, 0, "bbox", value))
        err = self.eval_fails(paths, capsys)
        assert (f"{section or 'results'}[0] is malformed: 'bbox' must be a "
                f"list of 4 numbers") in err

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5]], ids=repr)
    def test_non_numeric_score_exits_one(self, workdir, capsys, value):
        paths = edited_input(workdir, "results",
                             set_field(None, 0, "score", value))
        err = self.eval_fails(paths, capsys)
        assert "results[0] is malformed: 'score' must be a number" in err

    def test_result_on_unlisted_image_exits_one(self, workdir, capsys):
        # as an annotation may not, and as COCO's own results loader refuses
        paths = edited_input(workdir, "results",
                             set_field(None, 3, "image_id", 99999))
        err = self.eval_fails(paths, capsys)
        assert "results[3] references missing image 99999" in err

    @pytest.mark.parametrize("section", ["images", "categories"])
    def test_duplicate_id_exits_one(self, workdir, capsys, section):
        def repeat_first_id(doc):
            doc[section][1]["id"] = doc[section][0]["id"]
        paths = edited_input(workdir, "gt", repeat_first_id)
        err = self.eval_fails(paths, capsys)
        assert f"{section}[1] repeats id" in err

    def test_anchors_reads_the_same_policy(self, workdir, capsys):
        paths = edited_input(workdir, "gt",
                             set_field("images", 1, "id", 1.7))
        code, out, err = run(["anchors", "--dataset", str(paths["gt"])],
                             capsys)
        assert_one_line_error(code, err)
        assert "images[1] is malformed" in err


HOSTILE_JSON = pytest.mark.parametrize("raw", [
    b"[" * 100000 + b"]" * 100000,
    b'{"n": ' + b"1" * 5000 + b"}",
], ids=["nested-too-deep", "integer-past-digit-limit"])


class TestHostileJson:

    @HOSTILE_JSON
    @pytest.mark.parametrize("flag", ["--config", "--dataset", "--results"])
    def test_unreadable_json_exits_one(self, workdir, capsys, tmp_path, raw,
                                       flag):
        path = tmp_path / "hostile.json"
        path.write_bytes(raw)
        argv = {"--config": ["analyze", "--config", str(path)],
                "--dataset": ["anchors", "--dataset", str(path)],
                "--results": ["eval", "--gt", str(workdir["gt"]),
                              "--results", str(path)]}[flag]
        code, out, err = run(argv, capsys)
        assert_one_line_error(code, err)
        assert str(path) in err
        assert out == ""


class TestUnexpectedException:

    def test_internal_error_is_one_line_with_exit_two(self, capsys,
                                                      monkeypatch):
        def broken(args):
            raise RuntimeError("invariant broken\nsecond line")

        monkeypatch.setattr(cli, "cmd_configs", broken)
        code, out, err = run(["configs"], capsys)
        assert code == 2
        assert out == ""
        assert err == "internal error: RuntimeError: invariant broken " \
                      "second line\n"

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 84.0 GiB",
         "error: cannot allocate memory: Unable to allocate 84.0 GiB\n"),
        ("", "error: cannot allocate memory\n"),
    ], ids=["with-message", "bare"])
    def test_memory_error_is_one_line_with_exit_one(self, capsys, monkeypatch,
                                                    message, line):
        def exhausted(args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_configs", exhausted)
        code, out, err = run(["configs"], capsys)
        assert_one_line_error(code, err)
        assert (out, err) == ("", line)


class TestOracleCheckCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(["oracle-check", "--cases", "25"], capsys)
        assert code == 0
        assert "conv oracle: 25/25" in out
        assert "cost parity: 13/13" in out
        assert "ap oracle: 25/25" in out
        assert "result: ok" in out

    def test_json_outcome(self, capsys):
        code, out, _ = run(
            ["oracle-check", "--cases", "10", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "conv oracle", "cost parity", "ap oracle"}


    def test_miscounted_kernel_fails_with_exit_two(self, capsys, monkeypatch):
        # 7x7 convs exist only inside GAM, never among the random conv
        # cases, so only cost parity's per-unit check can see this
        priced = meter.conv_cost

        def off_by_one_at_7x7(n, cout, cin_g, kh, kw, oh, ow, bias):
            macs, flops = priced(n, cout, cin_g, kh, kw, oh, ow, bias)
            return (macs + 1, flops) if (kh, kw) == (7, 7) else (macs, flops)

        monkeypatch.setattr(meter, "conv_cost", off_by_one_at_7x7)
        code, out, _ = run(["oracle-check", "--cases", "10"], capsys)
        assert code == 2
        assert "conv oracle: 10/10" in out
        assert "cost parity: 12/13" in out
        assert "result: FAIL" in out
        code, out, _ = run(["oracle-check", "--cases", "10", "--json"], capsys)
        assert code == 2
        assert json.loads(out)["ok"] is False

    def test_one_case_is_enough(self, capsys):
        code, out, _ = run(["oracle-check", "--cases", "1"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "conv oracle: 1/1"

    def test_negative_case_count_exits_one(self, capsys):
        code, out, err = run(["oracle-check", "--cases", "-1"], capsys)
        assert_one_line_error(code, err)
        assert "--cases" in err
        assert "result" not in out

    def test_negative_seed_exits_one(self, capsys):
        code, out, err = run(["oracle-check", "--seed", "-1"], capsys)
        assert_one_line_error(code, err)
        assert "--seed must be non-negative, got -1" in err
        assert "result" not in out


def run_process(argv, timeout, stdout=subprocess.PIPE, **env):
    """Run argv in a child interpreter that imports the package from this
    checkout's `src/`, ahead of any PYTHONPATH already set, with ``env``
    added to the environment."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path, **env))


class TestProcessLevelInvocation:
    def test_module_entry_point_is_deterministic(self):
        argv = [sys.executable, "-m", "yolotla.cli", "configs", "--json"]
        first = run_process(argv, timeout=300)
        second = run_process(argv, timeout=300)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("unbuffered", ["1", ""],
                             ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_one_in_silence(self, unbuffered):
        # a reader that leaves early (`| head -1`) is no fault of this
        # program; its read end is closed first, so the first write fails,
        # whether at a print or at the flush before exit
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_process(
                [sys.executable, "-m", "yolotla.cli", "configs", "--json"],
                timeout=60, stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_no_command_exits_one(self):
        proc = run_process([sys.executable, "-m", "yolotla.cli"], timeout=60)
        assert proc.returncode == 1

    # runs the CLI with its address space capped at 3 GiB, so a command
    # that tries to allocate a huge model fails instead of the host
    CAPPED_CLI = ("import resource, runpy, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                  "runpy.run_module('yolotla.cli', run_name='__main__')")

    def test_wide_config_analyzes_without_allocating_weights(self, workdir,
                                                             tmp_path):
        doc = {"name": "wide", "nc": 1,
               "depth_multiple": 1.0, "width_multiple": 1.0,
               "anchors": [[[10, 13], [16, 30], [33, 23]]],
               "layers": [[-1, 1, "ConvBNAct", {"out": 65536, "k": 3, "s": 2}],
                          [-1, 1, "ConvBNAct", {"out": 65536, "k": 3, "s": 2}]],
               "detect_from": [1]}
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(json.dumps(doc))
        capped = [sys.executable, "-c", self.CAPPED_CLI]
        proc = run_process(
            capped + ["analyze", "--config", str(cfg), "--json"], timeout=120)
        assert proc.returncode == 0, proc.stderr
        count = json.loads(proc.stdout)["report"]["total_params"]
        assert count > 65536 ** 2 * 9
        proc = run_process(
            capped + ["infer", "--config", str(cfg), "--image",
                      str(workdir["image"]), "--input-size", "64"],
            timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.decode() == (
            f"error: cannot allocate {count} parameters "
            f"({4 * count} bytes of float32)\n")

    @pytest.mark.parametrize("repeats", [3034, 10 ** 7])
    def test_repeat_count_above_the_bound_exits_one(self, repeats, tmp_path):
        # at depth 0.33, 3034 scales to 1001, one above MAX_REPEATS; the
        # timeout fails a build that tries to make millions of bottlenecks
        doc = json.loads(find_config("yolov5s").read_text())
        doc["layers"][2][1] = repeats
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(json.dumps(doc))
        proc = run_process(
            [sys.executable, "-c", self.CAPPED_CLI, "analyze", "--config",
             str(cfg)], timeout=20)
        err = proc.stderr.decode()
        assert_one_line_error(proc.returncode, err)
        assert err.startswith(f"error: layer 2 (C3): repeats {repeats} ")
        assert "above the limit of 1000" in err

    def test_input_size_too_large_to_allocate_exits_one(self, workdir):
        # the 64x48 image letterboxes to 100000x75000x3 float32, 84 GiB
        proc = run_process(
            [sys.executable, "-c", self.CAPPED_CLI, "infer", "--config",
             "yolov5s", "--image", str(workdir["image"]),
             "--input-size", "100000"],
            timeout=120)
        err = proc.stderr.decode()
        assert_one_line_error(proc.returncode, err)
        assert err.startswith("error: cannot allocate memory: ")
        assert proc.stdout == b""
