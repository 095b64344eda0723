"""Dataset ingestion and input standardization.

Annotations use the COCO instances layout (images / annotations /
categories arrays; only the documented field subset is read, extra
fields are ignored), and detections the COCO results layout. In both,
ids, widths and heights are JSON integers, a file name and a category
name are JSON strings (a missing name reads as ""), image and category ids
are unique, a bbox is four finite JSON numbers and a score one. Images load
from binary PPM ("P6", 8-bit) or the ".tns" tensor format; richer codecs
are out of scope to keep the dependency surface flat.

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
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, is_instance
from .postprocess import Detection
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

    @cached_property
    def _class_of(self) -> dict[int, int]:
        return {cid: i for i, (cid, _) in enumerate(self.categories)}

    def class_index(self, category_id: int) -> int:
        """Contiguous class index of a category id (position in the
        ascending id list); `eval` reads result rows through it too."""
        try:
            return self._class_of[category_id]
        except KeyError:
            raise ParseError(f"unknown category id {category_id}") from None

    def gt_by_image(self) -> dict[int, list]:
        """Ground truth as {image_id: [((x1, y1, x2, y2), class_index)]}."""
        out: dict[int, list] = {img.id: [] for img in self.images}
        for ann in self.annotations:
            x, y, w, h = ann.bbox
            out[ann.image_id].append(
                ((x, y, x + w, y + h), self.class_index(ann.category_id)))
        return out


_NUMBER = frozenset((int, float))   # json.loads types; type(True) is bool


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except (OSError, ValueError, RecursionError) as e:
        # also an integer past Python's digit limit, or nesting too deep
        raise ParseError(f"cannot read {what} from {path}: {e}") from e


def _records(path, section: str, rows: list, parse) -> list:
    """``parse`` of each COCO record, failures named after the record."""
    out = []
    for i, rec in enumerate(rows):
        try:
            out.append(parse(rec))
        except ParseError as e:
            raise ParseError(f"{path}: {section}[{i}] {e}") from None
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ParseError(
                f"{path}: {section}[{i}] is malformed: {e}") from e
    return out


def _integer(rec: dict, key: str, unique: set | None = None) -> int:
    """``rec[key]``, a JSON integer; with ``unique``, one not in it yet."""
    if not is_instance(value := rec[key], int):
        raise TypeError(f"'{key}' must be an integer, got {value!r}")
    if unique is not None:
        if value in unique:
            raise ParseError(f"repeats id {value}")
        unique.add(value)
    return value


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"'{key}' must be a string, got {value!r}")
    return value


def _bbox(rec: dict) -> tuple[float, float, float, float]:
    if not (type(v := rec["bbox"]) is list and len(v) == 4
            and {type(v[0]), type(v[1]), type(v[2]), type(v[3])} <= _NUMBER):
        raise TypeError(f"'bbox' must be a list of 4 numbers, got {v!r}")
    box = (float(v[0]), float(v[1]), float(v[2]), float(v[3]))
    if not all(map(math.isfinite, box)):
        raise ParseError(f"has a non-finite bbox {v}")
    return box


def load_coco(path) -> Dataset:
    """Read a COCO instances JSON; degenerate boxes are dropped, counted,
    and reported through the package logger."""
    doc = _read_json(path, "annotations")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: annotation root must be an object")
    for key in ("images", "annotations", "categories"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"{path}: missing or invalid '{key}' array")
    image_ids, category_ids = set(), set()
    images = _records(path, "images", doc["images"], lambda rec: ImageInfo(
        _integer(rec, "id", image_ids), _string(rec["file_name"], "file_name"),
        _integer(rec, "width"), _integer(rec, "height")))
    categories = _records(path, "categories", doc["categories"], lambda rec: (
        _integer(rec, "id", category_ids), _string(rec.get("name", ""), "name")))

    def annotation(rec):
        img, cat = _integer(rec, "image_id"), _integer(rec, "category_id")
        if img not in image_ids:
            raise ParseError(f"references missing image {img}")
        if cat not in category_ids:
            raise ParseError(f"references missing category {cat}")
        return Annotation(img, cat, _bbox(rec))

    parsed = _records(path, "annotations", doc["annotations"], annotation)
    annotations = [a for a in parsed if a.bbox[2] > 0 and a.bbox[3] > 0]
    if len(annotations) < len(parsed):
        log.warning("%s: dropped %d annotation(s) with non-positive size",
                    path, len(parsed) - len(annotations))
    return Dataset(tuple(images), tuple(annotations),
                   tuple(sorted(categories)))


def load_results(path, ds: Dataset) -> dict[int, list[Detection]]:
    """Read COCO results as {image_id: [Detection]} in ``ds``'s classes."""
    rows = _read_json(path, "results")
    if not isinstance(rows, list):
        raise ParseError(f"{path}: results root must be a list")
    dets: dict[int, list[Detection]] = {}

    def detection(rec):
        img, cat = _integer(rec, "image_id"), _integer(rec, "category_id")
        x, y, w, h = _bbox(rec)
        if not is_instance(score := rec["score"], int, float):
            raise TypeError(f"'score' must be a number, got {score!r}")
        if not math.isfinite(score):
            raise ParseError(f"has a non-finite score {score}")
        dets.setdefault(img, []).append(Detection(
            (x, y, x + w, y + h), ds.class_index(cat), float(score)))

    _records(path, "results", rows, detection)
    return dets


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
