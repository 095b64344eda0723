"""Dataset ingestion and input standardization.

Annotations use the COCO instances layout (images / annotations /
categories arrays; only the documented field subset is read, extra
fields are ignored), and detections the COCO results layout. In both,
ids, widths and heights are JSON integers, a file name and a category
name are JSON strings (a missing name reads as ""), image and category ids
are unique, an annotation or a result names a listed image and a listed
category, a bbox is four finite JSON numbers and a score one. Images load
from binary PPM ("P6", 8-bit) or the ".tns" tensor format; richer codecs
are out of scope to keep the dependency surface flat.

Letterboxing preserves aspect ratio: `tensor.resize_nearest` (nearest
neighbor, chosen for bit-for-bit determinism) so the longer side hits the
target, then center padding with 114/255 gray by `tensor._padded`. The
returned per-axis ((scale_x, scale_y), pads) affine maps detections back
to source pixels; ``stretch`` is the same affine with unequal scales.
"""
from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ParseError, is_instance, reading
from .postprocess import Detection
from .tensor import Tensor, _padded, _parse_tns, resize_nearest

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
        """Category id -> class: its position in ``categories``."""
        return {cid: i for i, (cid, _) in enumerate(self.categories)}

    def gt_by_image(self) -> dict[int, list]:
        """Ground truth as {image_id: [((x1, y1, x2, y2), class)]}."""
        out: dict[int, list] = {img.id: [] for img in self.images}
        for ann in self.annotations:
            x, y, w, h = ann.bbox
            out[ann.image_id].append(
                ((x, y, x + w, y + h), self._class_of[ann.category_id]))
        return out


_NUMBER = frozenset((int, float))   # json.loads types; type(True) is bool


def read_json(path, what: str, root: type):
    """The JSON document in the file at path, whose root must be a ``root``
    (dict or list); `what` names it in errors."""
    try:
        with reading(path, what) as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"{what} {path} is not UTF-8 text: {e}") from e
    except (ValueError, RecursionError) as e:
        # bad JSON, an integer past Python's digit limit, or deep nesting
        raise ParseError(f"{what} {path} is not valid JSON: {e}") from e
    if not isinstance(doc, root):
        raise ParseError(f"{what} {path}: root must be "
                         f"{'an object' if root is dict else 'a list'}")
    return doc


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


def _references(rec: dict, image_ids, category_ids) -> tuple[int, int]:
    """``rec``'s image_id and category_id, each one the ground truth lists."""
    img, cat = _integer(rec, "image_id"), _integer(rec, "category_id")
    if img not in image_ids:
        raise ParseError(f"references missing image {img}")
    if cat not in category_ids:
        raise ParseError(f"references missing category {cat}")
    return img, cat


def load_coco(path) -> Dataset:
    """Read a COCO instances JSON; degenerate boxes are dropped, counted,
    and reported through the package logger."""
    doc = read_json(path, "annotations", dict)
    for key in ("images", "annotations", "categories"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"{path}: missing or invalid '{key}' array")
    image_ids, category_ids = set(), set()
    images = _records(path, "images", doc["images"], lambda rec: ImageInfo(
        _integer(rec, "id", image_ids), _string(rec["file_name"], "file_name"),
        _integer(rec, "width"), _integer(rec, "height")))
    categories = _records(path, "categories", doc["categories"], lambda rec: (
        _integer(rec, "id", category_ids), _string(rec.get("name", ""), "name")))
    parsed = _records(path, "annotations", doc["annotations"], lambda rec: (
        Annotation(*_references(rec, image_ids, category_ids), _bbox(rec))))
    annotations = [a for a in parsed if a.bbox[2] > 0 and a.bbox[3] > 0]
    if len(annotations) < len(parsed):
        log.warning("%s: dropped %d annotation(s) with non-positive size",
                    path, len(parsed) - len(annotations))
    return Dataset(tuple(images), tuple(annotations),
                   tuple(sorted(categories)))


def load_results(path, ds: Dataset) -> dict[int, list[Detection]]:
    """Read COCO results as {image_id: [Detection]} in ``ds``'s classes."""
    rows = read_json(path, "results", list)
    dets: dict[int, list[Detection]] = {}
    image_ids = {im.id for im in ds.images}

    def detection(rec):
        img, cat = _references(rec, image_ids, ds._class_of)
        x, y, w, h = _bbox(rec)
        if not is_instance(score := rec["score"], int, float):
            raise TypeError(f"'score' must be a number, got {score!r}")
        if not math.isfinite(score):
            raise ParseError(f"has a non-finite score {score}")
        dets.setdefault(img, []).append(
            Detection((x, y, x + w, y + h), ds._class_of[cat], float(score)))

    _records(path, "results", rows, detection)
    return dets


# a PPM header field after any whitespace and '#' comments (each to its LF)
_PPM_FIELD = rb"(?:\s|#[^\n]*)*(\S*)"
_PPM_HEADER = re.compile(rb"P6" + _PPM_FIELD * 3)
_PPM_INTEGER = re.compile(rb"-?[0-9]+")   # int() also takes '+' and '_'


def _parse_ppm(blob: bytes, path) -> Tensor:
    # header: P6, whitespace-separated decimal width/height/maxval, one
    # whitespace, then raw RGB triples; '#' starts a comment in the header
    if blob[:2] != b"P6":
        raise ParseError(f"{path}: not a binary PPM (magic {blob[:2]!r})")
    header = _PPM_HEADER.match(blob)
    fields = list(header.groups())
    if not all(fields):   # a field is empty only at the end of the file
        raise ParseError(f"{path}: truncated PPM header")
    pos = header.end() + 1   # single whitespace after maxval
    try:
        if not all(map(_PPM_INTEGER.fullmatch, fields)):
            raise ValueError
        width, height, maxval = map(int, fields)
    except ValueError:   # also a field past Python's integer digit limit
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
    suffix = str(path)[-4:]
    if suffix not in (".ppm", ".tns"):
        raise ParseError(
            f"{path}: unsupported image format (supported: .ppm P6, .tns)")
    with reading(path, "image") as fh:
        blob = fh.read()
    if suffix == ".ppm":
        return _parse_ppm(blob, path)
    t = _parse_tns(blob, path)
    if t.n != 1 or t.c != 3:
        raise ParseError(
            f"{path}: expected a (1, 3, H, W) tensor, got {t.shape}")
    if not np.isfinite(t.data).all():
        raise ParseError(f"{path}: pixel values must be finite")
    return t


def letterbox(img: Tensor, target: int = TARGET_SIDE, stretch: bool = False):
    """Standardize to target x target; returns (tensor, (scale_x, scale_y),
    (pad_x, pad_y)).

    The scales are equal, fitting the longer side to the target, unless
    ``stretch`` fits each side on its own (the aspect ratio is then lost
    and both pads are zero).
    """
    if target < 1:
        raise ConfigError(f"letterbox target side must be at least 1, "
                          f"got {target}")
    h, w = img.h, img.w
    if stretch:
        sx, sy = target / w, target / h
    else:
        sx = sy = min(target / h, target / w)
    new_h = max(1, int(round(h * sy)))
    new_w = max(1, int(round(w * sx)))
    pad_y = (target - new_h) // 2
    pad_x = (target - new_w) // 2
    canvas = _padded(resize_nearest(img, new_h, new_w),
                     (pad_y, target - new_h - pad_y),
                     (pad_x, target - new_w - pad_x), PAD_VALUE)
    return Tensor(canvas), (sx, sy), (float(pad_x), float(pad_y))


def unletterbox_box(box, scale, pads, orig_hw):
    """Map a letterboxed-space box back to source pixels, clipped."""
    x1, y1, x2, y2 = box
    sx, sy = scale
    pad_x, pad_y = pads
    h, w = orig_hw
    return (min(max((x1 - pad_x) / sx, 0.0), w),
            min(max((y1 - pad_y) / sy, 0.0), h),
            min(max((x2 - pad_x) / sx, 0.0), w),
            min(max((y2 - pad_y) / sy, 0.0), h))
