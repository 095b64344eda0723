"""Command-line entry point.

Subcommands: analyze (cost report), anchors (k-means fitting), infer
(single-image pipeline), eval (metric report), oracle-check (self-test of
the numeric kernels), configs (bundled variant listing). Exit codes: 0
success, 1 validation or usage error or a request too large to allocate,
2 internal oracle failure or an unexpected exception, which ends in one
stderr line, `internal error: <Type>: <message>`, not a traceback.

Everything is driven by flags. Each `cmd_*` returns (exit code, JSON
document, text lines), and `main` alone writes stdout: one document per
run, JSON with `--json` and text otherwise. Timings, logs and errors go to
stderr; `infer --timings` gives each stage's wall seconds and the process
peak RSS after it. Identical invocations with identical seeds print
identical bytes for one BLAS build, whatever `OPENBLAS_NUM_THREADS` says
(README "Determinism"). JSON output is sorted and carries no timestamps so
it can be golden-file tested. An output file is written whole or not at all.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np

from . import meter
from .anchors import _check_k, _check_split, assign_to_scales, fit_anchors
from .blocks import BLOCKS
from .costs import (CONVENTION, analyze, closed_form_cross,
                    closed_form_standard)
from .data import load_coco, load_image, load_results, read_json
from .errors import ConfigError, YoloTlaError, writing
from .graph import (build_model, bundled_config_names, find_config,
                    parse_config)
from .metrics import ap_from_ranking, evaluate, exact_envelope_ap
from .postprocess import (DEFAULT_CONF_THRESHOLD, DEFAULT_IOU_THRESHOLD,
                          results_json)
from .tensor import ConvSpec, Tensor, conv2d, conv2d_naive

log = logging.getLogger("yolotla")

NON_REPRODUCIBILITY_NOTE = (
    "Accuracy metrics (precision, recall, mAP) of these architectures "
    "depend on trained weights. This toolkit ships no trained weights, so "
    "those figures are not reproducible here and are deliberately excluded; "
    "seeded random weights exist only to exercise the pipeline. Parameter "
    "counts and GFLOPs are the reproducible reference quantities instead.")

FORMULA_NOTE = (
    "Single-layer estimates only: at k=3, W=8, C=3 the factored pair "
    "estimates 2160 FLOPs against the square layer's 1728 even though its "
    "parameter estimate is 1.5x smaller. That inversion is preserved as "
    "published. Whole-model totals come from the first-principles counter, "
    "never from these formulas.")

REFERENCE_FORMULA_KS = (1, 3, 5, 7)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- analyze -----------------------------------------------------------------

def _formula_rows():
    rows = []
    for k in REFERENCE_FORMULA_KS:
        sf, sp = closed_form_standard(8, k, 3, 1, k // 2)
        cf, cp = closed_form_cross(8, k, 3, 1, k // 2)
        rows.append({"k": k,
                     "standard": {"flops": sf, "params": sp},
                     "cross": {"flops": cf, "params": cp},
                     "param_ratio": sp / cp})
    return rows


def _render_report_text(rep) -> list[str]:
    lines = [f"model: {rep.name}   input: "
             f"{rep.input_shape[2]}x{rep.input_shape[3]}"]
    lines.append(f"{'idx':>4} {'kind':<14} {'output':>20} {'params':>12} "
                 f"{'MACs':>14} {'FLOPs':>14}")
    for r in [*rep.layers, rep.head]:
        shape = "x".join(str(v) for v in r.out_shape)
        lines.append(f"{r.index:>4} {r.kind:<14} {shape:>20} "
                     f"{r.params:>12,} {r.macs:>14,} {r.flops:>14,}")
    lines.append(f"totals: {rep.total_params:,} params "
                 f"({rep.mparams:.3f}M), {rep.total_macs:,} MACs, "
                 f"{rep.gflops:.3f} GFLOPs")
    lines.append(f"convention: {rep.convention}")
    return lines


def cmd_analyze(args) -> tuple[int, dict, list[str]]:
    model = build_model(find_config(args.config))
    rep = analyze(model, (args.input_size, args.input_size))
    doc = {"report": rep.to_dict()}
    lines = _render_report_text(rep)
    if args.diff:
        other = build_model(find_config(args.diff))
        orep = analyze(other, (args.input_size, args.input_size))
        doc["diff"] = {
            "name": orep.name,
            "total_params": orep.total_params,
            "gflops": orep.gflops,
            "param_delta": rep.total_params - orep.total_params,
            "gflops_delta": rep.gflops - orep.gflops,
        }
        lines.append(
            f"diff vs {orep.name}: {orep.total_params:,} params "
            f"({orep.gflops:.3f} GFLOPs); delta "
            f"{rep.total_params - orep.total_params:+,} params, "
            f"{rep.gflops - orep.gflops:+.3f} GFLOPs")
    if args.formulas:
        doc["formulas"] = {"rows": _formula_rows(), "note": FORMULA_NOTE}
        lines.append("single-layer closed-form estimates (W=8, C=3, s=1):")
        for row in doc["formulas"]["rows"]:
            lines.append(
                f"  k={row['k']}: standard {row['standard']['flops']:.0f} "
                f"FLOPs / {row['standard']['params']} params; cross "
                f"{row['cross']['flops']:.0f} FLOPs / "
                f"{row['cross']['params']} params; param ratio "
                f"{row['param_ratio']:.2f}")
        lines.append(FORMULA_NOTE)
    return 0, doc, lines


# -- anchors -----------------------------------------------------------------

def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")


def _anchor_text(anchors) -> str:
    """'(w,h)' pairs; a side of 1e6 px or more prints in short exponent
    form, so one huge fitted box cannot stretch the line."""
    side = lambda v: f"{v:.1f}" if v < 1e6 else f"{v:.3g}"
    return " ".join(f"({side(w)},{side(h)})" for w, h in anchors)


def _printed(anchors) -> list:
    """(w, h) rows as `--json` and `--patch-config` print them: two decimals
    by numpy's rule, which rounds through a x100 that overflows past
    ~1.8e306, so such a side is printed as fitted."""
    arr = np.asarray(anchors)
    with np.errstate(over="ignore"):
        rounded = np.round(arr, 2)
    return np.where(np.isfinite(rounded), rounded, arr).tolist()


def cmd_anchors(args) -> tuple[int, dict, list[str]]:
    _check_seed(args.seed)
    _check_k(args.k)   # k and the split are refused before the dataset is read
    sizes = None
    if args.scales:
        try:
            sizes = [int(s) for s in args.scales.split(",") if s]
        except ValueError:
            raise ConfigError(f"--scales must be comma-separated "
                              f"integers, got {args.scales!r}") from None
        _check_split(args.k, sizes)
    if args.patch_config:   # refused before the dataset is read
        if sizes is None:
            raise ConfigError("--patch-config requires --scales")
        if not args.out:
            raise ConfigError("--patch-config requires --out")
        cfg_doc = read_json(find_config(args.patch_config), "config", dict)
        cfg = parse_config(cfg_doc)   # and again once patched
        if len(cfg.detect_from) != len(sizes):
            raise ConfigError(
                f"config {cfg.name} detects on {len(cfg.detect_from)} "
                f"scales, --scales names {len(sizes)}")
    # --out names the patched config, so without --patch-config no file
    with writing(args.out) if args.patch_config else nullcontext() as fh:
        ds = load_coco(args.dataset)
        boxes = [(ann.bbox[2], ann.bbox[3]) for ann in ds.annotations]
        anchors = fit_anchors(boxes, k=args.k, seed=args.seed)
        doc = {"k": args.k, "seed": args.seed, "anchors": _printed(anchors)}
        lines = [f"fitted {args.k} anchors over {len(boxes)} boxes (seed "
                 f"{args.seed}):", "  " + _anchor_text(anchors)]
        if sizes is not None:
            anchor_set = assign_to_scales(anchors, sizes)
            doc["scales"] = [{"map": size, "anchors": _printed(triple)}
                             for size, triple in anchor_set.scales]
            for size, triple in anchor_set.scales:
                lines.append(f"  map {size:>4}: " + _anchor_text(triple))
        if fh:
            cfg_doc["anchors"] = [row["anchors"] for row in doc["scales"]]
            parse_config(cfg_doc)
            fh.write((json.dumps(cfg_doc, indent=2) + "\n").encode())
            lines.append(f"wrote patched config to {args.out}")
            doc["patched"] = str(args.out)
    return 0, doc, lines


# -- infer -------------------------------------------------------------------

def cmd_infer(args) -> tuple[int, str | None, list[str]]:
    _check_seed(args.seed)
    for flag, value in (("--conf", args.conf), ("--iou", args.iou)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{flag} must be within [0, 1], got {value}")
    clock = [("start", time.perf_counter(), 0.0)]

    def mark(stage: str) -> None:   # ru_maxrss: KiB on Linux, bytes on macOS
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        clock.append((stage, time.perf_counter(),
                      rss / (1 << 20 if sys.platform == "darwin" else 1024)))

    with writing(args.out) if args.out else nullcontext() as fh:
        model = build_model(find_config(args.config), seed=args.seed)
        if args.weights:
            model.load_weight_file(args.weights)
        model.params   # binds the seeded weights here, not in "forward"
        img = load_image(args.image)
        mark("load")
        restored = model.infer(img, args.input_size, stretch=args.stretch,
                               conf=args.conf, iou=args.iou, mark=mark)
        payload = (results_json(restored, args.image_id)
                   if args.json or fh else None)
        if fh:
            fh.write((payload + "\n").encode())
    if args.json:
        lines = []   # main prints the payload, not one text row per box
    else:
        lines = [f"{len(restored)} detection(s) from {args.image} "
                 f"(conf>={args.conf}, nms iou {args.iou})"]
        if not args.weights:
            lines.append(f"weights: random init, seed {args.seed}; "
                         f"detection quality is meaningless, this mode "
                         f"exercises the pipeline only")
        for d in restored:
            x1, y1, x2, y2 = d.box
            lines.append(f"  class {d.class_id:>3} conf {d.confidence:.4f} "
                         f"box ({x1:.1f}, {y1:.1f}, {x2:.1f}, {y2:.1f})")
        if args.out:
            lines.append(f"wrote results to {args.out}")
    mark("serialize")
    if args.timings:
        for (_, begin, _), (stage, end, peak) in zip(clock, clock[1:]):
            print(f"timing {stage:<9} {end - begin:.4f} s  "
                  f"peak_rss {peak:.1f} MB", file=sys.stderr)
    return 0, payload, lines


# -- eval --------------------------------------------------------------------

def cmd_eval(args) -> tuple[int, dict, list[str]]:
    with writing(args.pr_csv) if args.pr_csv else nullcontext() as fh:
        ds = load_coco(args.gt)
        dets = load_results(args.results, ds)
        rep = evaluate(ds.gt_by_image(), dets)
        if fh:
            fh.write(("class,recall,precision\n" + "".join(
                f"{cls},{r:.6f},{p:.6f}\n" for cls in rep.classes
                for r, p in rep.pr_curves[cls])).encode())
    names = [name for _, name in ds.categories]   # a class is its position
    lines = [f"{'class':<16} {'P':>7} {'R':>7} {'AP@0.5':>8} "
             f"{'AP@0.5:0.95':>12}"]
    for cls in rep.classes:
        r = rep.per_class[cls]
        lines.append(f"{names[cls]:<16} {r.precision:>7.4f} "
                     f"{r.recall:>7.4f} {r.ap50:>8.4f} {r.ap_range:>12.4f}")
    lines.append(f"macro: P {rep.precision:.4f}  R {rep.recall:.4f}  "
                 f"F1 {rep.f1:.4f}")
    lines.append(f"mAP@0.5 {rep.map50:.4f}  mAP@0.5:0.95 {rep.map_range:.4f}"
                 f"  TN {rep.tn}")
    if args.pr_csv:
        lines.append(f"wrote P-R curve samples to {args.pr_csv}")
    return 0, rep.to_dict(), lines


# -- oracle-check ------------------------------------------------------------

def _uniform(rng, shape, bound: float = 1.0) -> np.ndarray:
    return rng.uniform(-bound, bound, shape).astype(np.float32)


def conv_agrees(x: Tensor, spec: ConvSpec, weight: Tensor, bias=None) -> bool:
    """conv2d against the loop-nest conv2d_naive: values within criterion
    4's rtol=1e-5, atol=1e-6, and the same recorded (macs, flops), which
    the loop nest tallies as executed instead of reading the price table."""
    with meter.CostMeter() as fast_m:
        fast = conv2d(x, spec, weight, bias)
    with meter.CostMeter() as slow_m:
        slow = conv2d_naive(x, spec, weight, bias)
    return ((fast_m.macs, fast_m.flops) == (slow_m.macs, slow_m.flops)
            and np.allclose(fast.data, slow.data, rtol=1e-5, atol=1e-6))


def _conv_oracle(cases: int, rng) -> tuple[int, int]:
    passed = 0
    for _ in range(cases):
        groups = int(rng.choice([1, 1, 1, 2]))
        cin = groups * int(rng.integers(1, 4))
        cout = groups * int(rng.integers(1, 4))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h = int(rng.integers(kh, 8))   # h >= kh keeps the output non-empty
        w = int(rng.integers(kw, 8))
        spec = ConvSpec(cin, cout, kh, kw,
                        stride_h=int(rng.integers(1, 3)),
                        stride_w=int(rng.integers(1, 3)),
                        pad_h=int(rng.integers(0, 2)),
                        pad_w=int(rng.integers(0, 2)),
                        groups=groups, has_bias=bool(rng.integers(0, 2)))
        x = Tensor(_uniform(rng, (1, cin, h, w)))
        wgt = Tensor(_uniform(rng, spec.weight_shape()))
        bias = _uniform(rng, cout) if spec.has_bias else None
        passed += conv_agrees(x, spec, wgt, bias)
    return passed, cases


# (kind, in_channels, args, shape of each input); the tests share it
PARITY_CASES = [
    ("ConvBNAct", [6], {"out": 8, "k": 3, "s": 2}, (1, 6, 12, 12)),
    ("Bottleneck", [8], {"out": 8}, (1, 8, 9, 9)),
    ("C3", [8], {"out": 8, "n": 2}, (1, 8, 8, 8)),
    ("CrossConv", [8], {"out": 8, "shortcut": True}, (1, 8, 8, 8)),
    ("C3CrossConv", [8], {"out": 8, "n": 2}, (1, 8, 8, 8)),
    ("GhostConv", [8], {"out": 12}, (1, 8, 8, 8)),
    ("GhostBottleneck", [12], {"out": 12}, (1, 12, 8, 8)),
    ("GhostBottleneck", [12], {"out": 16, "s": 2}, (1, 12, 8, 8)),
    ("C3Ghost", [16], {"out": 16, "n": 1}, (1, 16, 8, 8)),
    ("GAM", [16], {}, (1, 16, 8, 8)),
    ("SPPF", [8], {"out": 8}, (1, 8, 8, 8)),
    ("Upsample", [4], {}, (1, 4, 6, 6)),
    ("Concat", [4, 4], {}, (1, 4, 6, 6)),
]


def _cost_parity_oracle(rng) -> tuple[int, int]:
    """Per block: its meta-derived cost equals a metered real forward, and
    each of its conv units passes `conv_agrees` at the block's input side,
    so every conv spec a block builds is priced as a loop nest executes."""
    passed = 0
    for kind, cins, kwargs, shape in PARITY_CASES:
        block = BLOCKS[kind](cins, dict(kwargs))
        weights = {path: _uniform(rng, shp, 0.5)
                   for path, shp in block.param_specs("b")}
        block.load(weights.__getitem__, "b")
        ins = [Tensor(_uniform(rng, shape)) for _ in cins]
        _, m = block.metered(ins)
        metered = (m.macs, m.flops) == block.cost([shape] * len(cins))
        side = shape[2:]
        passed += metered and all(
            conv_agrees(Tensor(_uniform(rng, (1, u.spec.in_channels, *side))),
                        u.spec, u.weight, u.bias) for u in block.units())
    return passed, len(PARITY_CASES)


def _ap_oracle(cases: int, rng) -> tuple[int, int]:
    passed = 0
    for _ in range(cases):
        n_gt = int(rng.integers(1, 8))
        flags = (rng.uniform(size=int(rng.integers(1, 20))) < 0.5)
        while flags.sum() > n_gt:
            flags[np.argmax(flags)] = False
        ap, _ = ap_from_ranking(flags.tolist(), n_gt)
        if abs(ap - exact_envelope_ap(flags.tolist(), n_gt)) < 0.01:
            passed += 1
    return passed, cases


def cmd_oracle_check(args) -> tuple[int, dict, list[str]]:
    if args.cases < 1:
        raise ConfigError(f"--cases must be at least 1, got {args.cases}")
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    checks = [("conv oracle", *_conv_oracle(args.cases, rng)),
              ("cost parity", *_cost_parity_oracle(rng)),
              ("ap oracle", *_ap_oracle(args.cases, rng))]
    failed = any(ok != n for _, ok, n in checks)
    doc = {"ok": not failed, "checks": [
        {"name": name, "passed": ok, "total": n} for name, ok, n in checks]}
    lines = [f"{name}: {ok}/{n}" for name, ok, n in checks]
    lines.append(f"result: {'FAIL' if failed else 'ok'}")
    return 2 if failed else 0, doc, lines


# -- configs -----------------------------------------------------------------

def cmd_configs(args) -> tuple[int, dict, list[str]]:
    rows = []
    for name in bundled_config_names():
        model = build_model(find_config(name))
        rep = analyze(model)
        rows.append({"name": name, "scales": len(model.strides),
                     "params": rep.total_params,
                     "mparams": round(rep.mparams, 3),
                     "gflops": round(rep.gflops, 3)})
    doc = {"configs": rows, "note": NON_REPRODUCIBILITY_NOTE,
           "convention": CONVENTION}
    lines = [f"{'config':<14} {'scales':>6} {'params':>12} {'GFLOPs@640':>11}"]
    for r in rows:
        lines.append(f"{r['name']:<14} {r['scales']:>6} "
                     f"{r['params']:>12,} {r['gflops']:>11.3f}")
    lines.append(f"convention: {CONVENTION}")
    lines.append(NON_REPRODUCIBILITY_NOTE)
    return 0, doc, lines


# -- wiring ------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="yolotla", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    a = sub.add_parser("analyze", help="symbolic parameter/FLOP report")
    a.add_argument("--config", required=True,
                   help="bundled config name or path to a .cfg file")
    a.add_argument("--input-size", type=int, default=640,
                   help="square input side (default 640)")
    a.add_argument("--formulas", action="store_true",
                   help="also print the closed-form single-layer estimates")
    a.add_argument("--diff", metavar="CONFIG",
                   help="compare totals against a second config")
    a.set_defaults(fn=cmd_analyze)

    an = sub.add_parser("anchors", help="fit anchors with k-means")
    an.add_argument("--dataset", required=True,
                    help="COCO instances JSON with the boxes to cluster")
    an.add_argument("--k", type=int, default=12)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--scales",
                    help="comma-separated map sides, e.g. 160,80,40,20")
    an.add_argument("--patch-config", metavar="CONFIG",
                    help="config whose anchors to replace (needs --scales "
                         "and --out)")
    an.add_argument("--out", help="where to write the patched config")
    an.set_defaults(fn=cmd_anchors)

    inf = sub.add_parser("infer", help="run the pipeline on one image")
    inf.add_argument("--config", required=True)
    inf.add_argument("--image", required=True, help=".ppm (P6) or .tns")
    inf.add_argument("--weights", help="weight file; omitted = seeded init")
    inf.add_argument("--seed", type=int, default=0)
    inf.add_argument("--conf", type=float, default=DEFAULT_CONF_THRESHOLD)
    inf.add_argument("--iou", type=float, default=DEFAULT_IOU_THRESHOLD)
    inf.add_argument("--input-size", type=int, default=640)
    inf.add_argument("--stretch", action="store_true",
                     help="plain resize instead of letterbox")
    inf.add_argument("--image-id", type=int, default=0)
    inf.add_argument("--out", help="write COCO-style results JSON here")
    inf.add_argument("--timings", action="store_true",
                     help="write each stage's wall seconds to stderr")
    inf.set_defaults(fn=cmd_infer)

    ev = sub.add_parser("eval", help="score results against ground truth")
    ev.add_argument("--gt", required=True, help="COCO instances JSON")
    ev.add_argument("--results", required=True, help="COCO results JSON")
    ev.add_argument("--pr-csv", help="write P-R curve samples as CSV")
    ev.set_defaults(fn=cmd_eval)

    oc = sub.add_parser("oracle-check", help="self-test the numeric kernels")
    oc.add_argument("--cases", type=int, default=100)
    oc.add_argument("--seed", type=int, default=0)
    oc.set_defaults(fn=cmd_oracle_check)

    cf = sub.add_parser("configs", help="list bundled variants and costs")
    cf.set_defaults(fn=cmd_configs)
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true",
                             help="print one JSON document instead of text")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, doc, lines = args.fn(args)
        if args.json and not isinstance(doc, str):   # infer's is JSON already
            doc = json.dumps(doc, sort_keys=True, indent=2)
        print(doc if args.json else "\n".join(lines))
        sys.stdout.flush()   # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:   # the reader left early; the exit flush goes nowhere
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except YoloTlaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print("error: cannot allocate memory" + (f": {e}" if str(e) else ""),
              file=sys.stderr)
        return 1
    except Exception as e:   # a fault of this program, not of its input
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(e).__name__}: "
              + " ".join(str(e).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
