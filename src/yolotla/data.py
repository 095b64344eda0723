"""Dataset ingestion and input standardization.

Annotations use the COCO instances layout (images / annotations /
categories arrays; only the documented field subset is read, extra
fields are ignored). Images load from binary PPM ("P6", 8-bit) or the
".tns" tensor format; richer codecs are out of scope to keep the
dependency surface flat.

Letterboxing preserves aspect ratio: nearest-neighbor resize so the
longer side hits the target, then center padding with 114/255 gray. The
returned (scale, pads) affine maps detections back to source pixels.
Nearest neighbor is chosen for bit-for-bit determinism everywhere.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .tensor import Tensor, load_tns

log = logging.getLogger("yolotla")

PAD_VALUE = 114.0 / 255.0
TARGET_SIDE = 640


@dataclass(frozen=True)
class ImageInfo:
    id: int
    file_name: str
    width: int
    height: int


@dataclass(frozen=True)
class Annotation:
    image_id: int
    category_id: int
    bbox: tuple[float, float, float, float]   # x, y, w, h in pixels


@dataclass(frozen=True)
class Dataset:
    images: tuple[ImageInfo, ...]
    annotations: tuple[Annotation, ...]
    categories: tuple[tuple[int, str], ...]   # (id, name), ascending by id

    def category_ids(self) -> list[int]:
        return [cid for cid, _ in self.categories]

    def class_index(self, category_id: int) -> int:
        """Contiguous class index of a category id (position in the
        ascending id list); `eval` reads result rows through it too."""
        ids = self.category_ids()
        try:
            return ids.index(category_id)
        except ValueError:
            raise ParseError(f"unknown category id {category_id}") from None

    def gt_by_image(self) -> dict[int, list]:
        """Ground truth as {image_id: [((x1, y1, x2, y2), class_index)]}."""
        out: dict[int, list] = {img.id: [] for img in self.images}
        for ann in self.annotations:
            x, y, w, h = ann.bbox
            out[ann.image_id].append(
                ((x, y, x + w, y + h), self.class_index(ann.category_id)))
        return out


def load_coco(path) -> Dataset:
    """Read a COCO instances JSON; degenerate boxes are dropped, counted,
    and reported through the package logger."""
    try:
        doc = json.loads(open(path, "rb").read().decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read annotations from {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: annotation root must be an object")
    for key in ("images", "annotations", "categories"):
        if key not in doc or not isinstance(doc[key], list):
            raise ParseError(f"{path}: missing or invalid '{key}' array")
    images = []
    for i, rec in enumerate(doc["images"]):
        try:
            images.append(ImageInfo(int(rec["id"]), str(rec["file_name"]),
                                    int(rec["width"]), int(rec["height"])))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"{path}: images[{i}] is malformed: {e}") from e
    image_ids = {im.id for im in images}
    categories = []
    for i, rec in enumerate(doc["categories"]):
        try:
            categories.append((int(rec["id"]), str(rec.get("name", ""))))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ParseError(
                f"{path}: categories[{i}] is malformed: {e}") from e
    categories.sort()
    category_ids = {cid for cid, _ in categories}
    annotations = []
    dropped = 0
    for i, rec in enumerate(doc["annotations"]):
        try:
            img = int(rec["image_id"])
            cat = int(rec["category_id"])
            x, y, w, h = (float(v) for v in rec["bbox"])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ParseError(
                f"{path}: annotations[{i}] is malformed: {e}") from e
        if not all(map(math.isfinite, (x, y, w, h))):
            raise ParseError(f"{path}: annotations[{i}] has a non-finite "
                             f"bbox {rec['bbox']}")
        if img not in image_ids:
            raise ParseError(
                f"{path}: annotations[{i}] references missing image {img}")
        if cat not in category_ids:
            raise ParseError(
                f"{path}: annotations[{i}] references missing category {cat}")
        if w <= 0 or h <= 0:
            dropped += 1
            continue
        annotations.append(Annotation(img, cat, (x, y, w, h)))
    if dropped:
        log.warning("%s: dropped %d annotation(s) with non-positive size",
                    path, dropped)
    return Dataset(tuple(images), tuple(annotations), tuple(categories))


def _parse_ppm(blob: bytes, path) -> Tensor:
    # header: P6, whitespace-separated width/height/maxval, one whitespace,
    # then raw RGB triples; '#' starts a comment anywhere in the header
    if blob[:2] != b"P6":
        raise ParseError(f"{path}: not a binary PPM (magic {blob[:2]!r})")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: truncated PPM header")
        fields.append(blob[start:pos])
    pos += 1   # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise ParseError(f"{path}: non-numeric PPM header fields "
                         f"{fields}") from None
    if width < 1 or height < 1:
        raise ParseError(
            f"{path}: PPM dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise ParseError(f"{path}: only 8-bit PPM supported, maxval {maxval}")
    need = width * height * 3
    payload = blob[pos:pos + need]
    if len(payload) < need:
        raise ParseError(
            f"{path}: PPM payload holds {len(payload)} bytes, needs {need}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    chw = arr.astype(np.float32).transpose(2, 0, 1) / 255.0
    return Tensor(chw[None])


def load_image(path) -> Tensor:
    """Load an image as a (1, 3, H, W) tensor with values in [0, 1]."""
    name = str(path)
    if name.endswith(".tns"):
        try:
            t = load_tns(path)
        except OSError as e:
            raise ParseError(f"cannot read image {path}: {e}") from e
        if t.n != 1 or t.c != 3:
            raise ParseError(
                f"{path}: expected a (1, 3, H, W) tensor, got {t.shape}")
        if not np.isfinite(t.data).all():
            raise ParseError(f"{path}: pixel values must be finite")
        return t
    if name.endswith(".ppm"):
        try:
            blob = Path(path).read_bytes()
        except OSError as e:
            raise ParseError(f"cannot read image {path}: {e}") from e
        return _parse_ppm(blob, path)
    raise ParseError(
        f"{path}: unsupported image format (supported: .ppm P6, .tns)")


def resize_nearest(img: Tensor, new_h: int, new_w: int) -> Tensor:
    """Nearest-neighbor resize; source index = center-aligned floor map."""
    n, c, h, w = img.shape
    rows = np.minimum(((np.arange(new_h) + 0.5) * h / new_h).astype(int),
                      h - 1)
    cols = np.minimum(((np.arange(new_w) + 0.5) * w / new_w).astype(int),
                      w - 1)
    return Tensor(img.data[:, :, rows[:, None], cols[None, :]])


def letterbox(img: Tensor, target: int = TARGET_SIDE, stretch: bool = False):
    """Standardize to target x target; returns (tensor, scale, (pad_x, pad_y)).

    With ``stretch`` the aspect ratio is not preserved and ``scale`` is a
    per-axis (scale_x, scale_y) pair with zero padding.
    """
    if target < 1:
        raise ConfigError(f"letterbox target side must be at least 1, "
                          f"got {target}")
    n, c, h, w = img.shape
    if stretch:
        out = resize_nearest(img, target, target)
        return out, (target / w, target / h), (0.0, 0.0)
    scale = min(target / h, target / w)
    new_h = max(1, int(round(h * scale)))
    new_w = max(1, int(round(w * scale)))
    resized = resize_nearest(img, new_h, new_w)
    canvas = np.full((n, c, target, target), PAD_VALUE, dtype=np.float32)
    pad_y = (target - new_h) // 2
    pad_x = (target - new_w) // 2
    canvas[:, :, pad_y:pad_y + new_h, pad_x:pad_x + new_w] = resized.data
    return Tensor(canvas), scale, (float(pad_x), float(pad_y))


def unletterbox_box(box, scale, pads, orig_hw):
    """Map a letterboxed-space box back to source pixels, clipped."""
    x1, y1, x2, y2 = box
    pad_x, pad_y = pads
    if isinstance(scale, tuple):
        sx, sy = scale
    else:
        sx = sy = scale
    h, w = orig_hw
    return (min(max((x1 - pad_x) / sx, 0.0), w),
            min(max((y1 - pad_y) / sy, 0.0), h),
            min(max((x2 - pad_x) / sx, 0.0), w),
            min(max((y2 - pad_y) / sy, 0.0), h))
