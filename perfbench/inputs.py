"""Seeded input generation: PPM images, `.tlaw` weight files, COCO JSON.

Everything here is a pure function of its seed, so two runs with the same
seed hand the program byte-identical files. None of it is timed: input
generation is excluded from every metric, set-up time included.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from yolotla import Detection, build_model, find_config

# Detect-head logit offsets written into the sparse weight files. Random-init
# heads emit almost exactly their bias (the deeper layers wash the image
# signal out to ~1e-3), so these margins dwarf anything a last-bit change in
# the forward pass could do.
PASS_LOGIT = 4.0       # sigmoid(4)^2 ~ 0.96 confidence, far above 0.25
BLOCK_LOGIT = -12.0    # sigmoid(-12) ~ 6e-6, far below 0.25


def write_ppm(path: Path, seed: int, width: int, height: int) -> None:
    """A binary P6 image of seeded uniform noise."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    path.write_bytes(b"P6\n%d %d\n255\n" % (width, height) + pixels.tobytes())


def coarsest_scale(model) -> int:
    return int(np.argmax(model.strides))


def write_sparse_weights(path: Path, config: str, seed: int) -> None:
    """The seeded init of ``config`` with Detect biases rewritten so that
    only the coarsest scale passes the confidence threshold, and every
    anchor of it votes for one fixed class (anchor a -> class a)."""
    model = build_model(find_config(config), seed=seed)
    per = 5 + model.nc
    keep = coarsest_scale(model)
    for si in range(len(model.strides)):
        bias = model.params[f"detect.m{si}.conv.bias"].reshape(3, per)
        bias[:, 4] = PASS_LOGIT if si == keep else BLOCK_LOGIT
        bias[:, 5:] = BLOCK_LOGIT
        if si == keep:
            for a in range(3):
                bias[a, 5 + a] = PASS_LOGIT
    model.save_weight_file(path)


def synthetic_coco(seed: int, n_images: int, gt_per_image: int,
                   dets_per_image: int, n_classes: int,
                   width: int = 640, height: int = 480):
    """A COCO instances document plus matching detections.

    Returns (doc, dets_by_image). Detections are in class-index space, as
    ``evaluate`` takes them; a quarter of them are jittered copies of ground
    truth so that every IOU threshold sees both hits and misses.
    """
    rng = np.random.default_rng(seed)
    category_ids = [3 * i + 1 for i in range(n_classes)]   # non-contiguous ids
    images, annotations = [], []
    dets_by_image: dict[int, list[Detection]] = {}
    for img_id in range(1, n_images + 1):
        images.append({"id": img_id, "file_name": f"{img_id:06d}.ppm",
                       "width": width, "height": height})
        gts = []
        for _ in range(gt_per_image):
            w, h = (float(v) for v in np.exp(rng.uniform(np.log(6.0),
                                                         np.log(240.0), 2)))
            x = float(rng.uniform(0, width - w))
            y = float(rng.uniform(0, height - h))
            cls = int(rng.integers(n_classes))
            gts.append((x, y, w, h, cls))
            annotations.append({"id": len(annotations) + 1, "image_id": img_id,
                                "category_id": category_ids[cls],
                                "bbox": [x, y, w, h], "area": w * h,
                                "iscrowd": 0})
        dets = []
        for di in range(dets_per_image):
            if di < dets_per_image // 4:
                x, y, w, h, cls = gts[di % len(gts)]
                jitter = rng.normal(0.0, 0.08, 4) * np.array([w, h, w, h])
                x1, y1 = x + jitter[0], y + jitter[1]
                x2, y2 = x + w + jitter[2], y + h + jitter[3]
                if rng.random() < 0.1:
                    cls = int(rng.integers(n_classes))
            else:
                w, h = (float(v) for v in np.exp(rng.uniform(np.log(6.0),
                                                             np.log(240.0), 2)))
                x1 = float(rng.uniform(0, width - w))
                y1 = float(rng.uniform(0, height - h))
                x2, y2 = x1 + w, y1 + h
                cls = int(rng.integers(n_classes))
            dets.append(Detection(box=(float(x1), float(y1), float(x2),
                                       float(y2)),
                                  class_id=cls,
                                  confidence=float(rng.uniform(0.05, 1.0))))
        dets_by_image[img_id] = dets
    doc = {"images": images, "annotations": annotations,
           "categories": [{"id": cid, "name": f"class{cid}"}
                          for cid in category_ids]}
    return doc, dets_by_image
