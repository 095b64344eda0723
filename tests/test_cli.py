"""End-to-end checks of the command-line interface.

Each subcommand runs through cli.main with real files in a temp
directory. Output determinism matters as much as correctness here: the
same invocation must print the same bytes, so JSON output can be
golden-file tested downstream.
"""
import hashlib
import json
import logging
import math
import subprocess
import sys

import numpy as np
import pytest

from yolotla import meter
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
        assert "+2,098,143 params" in out

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

    def test_patch_config_needs_scales(self, workdir, capsys):
        code, _, err = run(
            ["anchors", "--dataset", str(workdir["gt"]), "--k", "12",
             "--patch-config", "yolov5s-tiny",
             "--out", str(workdir["root"] / "x.cfg")], capsys)
        assert code == 1
        assert "--scales" in err

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
            code, out, err = run(
                ["infer", "--config", "yolov5s", "--image",
                 str(workdir["image"]), "--input-size", "64", "--conf",
                 "0.18", "--out", str(out_json)] + mode + extra, capsys)
            assert code == 0
            outs.append((out.replace(str(out_json), "OUT"),
                         out_json.read_bytes()))
        assert outs[0] == outs[1]
        assert [line.split()[:2] for line in err.splitlines()] == [
            ["timing", stage] for stage in ("load", "letterbox", "forward",
                                            "decode", "nms", "serialize")]
        assert all(line.endswith(" s") for line in err.splitlines())

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
        code, _, err = run(
            ["infer", "--config", "yolov5s", "--image",
             str(workdir["root"] / "missing.ppm")], capsys)
        assert code == 1
        assert err.startswith("error:")


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


class TestProcessLevelInvocation:
    def test_module_entry_point_is_deterministic(self):
        argv = [sys.executable, "-m", "yolotla.cli", "configs", "--json"]
        first = subprocess.run(argv, capture_output=True, timeout=300)
        second = subprocess.run(argv, capture_output=True, timeout=300)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_no_command_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "yolotla.cli"],
            capture_output=True, timeout=60)
        assert proc.returncode == 1
