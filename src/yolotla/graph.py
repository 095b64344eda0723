"""Model assembly: config parsing, scaling, init, weight files, execution.

A model config is a JSON document with extension ``.cfg``::

    {
      "name": "...",
      "nc": 80,
      "depth_multiple": 0.33,
      "width_multiple": 0.50,
      "anchors": [[[w, h], [w, h], [w, h]], ...],   one row per detect scale
      "layers": [[from, repeats, kind, {args}], ...],
      "detect_from": [i, j, k]
    }

Channel args in ``layers`` are base widths; the build multiplies them by
``width_multiple`` and rounds up to a multiple of 8. ``repeats`` is scaled
by ``depth_multiple`` for the C3 family, to at most ``MAX_REPEATS``, and
must stay 1 elsewhere; it is a C3 block's only repeat count, so an ``n``
arg is refused. The prediction head is not a layer row: it is assembled
from ``detect_from``, ``nc`` and the anchor table, one 1x1 conv per scale,
and it runs as the last of `Model.nodes`, at index ``len(layers)``.

The build is one shape-only pass over the nodes at a REFERENCE_SIDE
square input. Each block is built from its sources' widths, then its
meta forward gives its output shape. The next nodes read their widths
from those shapes, and the detect layers' row counts give the strides.

Parameters live in a flat dict keyed by path ("layers.4.cv1.conv.weight",
"detect.m0.conv.bias"). The build allocates none: a model binds its
weights on first use (see `Model`). Initialization draws from a single
seeded generator in manifest order, so a rebuild with the same seed is
bit-identical. The weight file stores exactly those arrays and nothing
else, so the file's float count always equals the reported parameter
count.
"""
from __future__ import annotations

import logging
import math
import os
import struct
import threading
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import blocks as _blocks
from . import meter
from .data import letterbox, read_json, unletterbox_box
from .errors import (ConfigError, ParseError, ShapeError, WeightError,
                     is_instance, reading, writing)
from .postprocess import (DEFAULT_CONF_THRESHOLD, DEFAULT_IOU_THRESHOLD,
                          Detection, decode, nms)
from .tensor import Tensor

log = logging.getLogger("yolotla")

WEIGHT_MAGIC = b"TLAW"
WEIGHT_VERSION = 1
INPUT_CHANNELS = 3
REFERENCE_SIDE = 640
# a scaled repeat takes ~80 us to build on a 2-core host; the bundled
# configs scale to at most 6
MAX_REPEATS = 1000


def scale_channels(base: int, width_multiple: float) -> int:
    """Width scaling: multiply, then round up to a multiple of 8."""
    if not is_instance(base, int) or base < 1:
        raise ConfigError(
            f"base channel count must be a positive integer, got {base!r}")
    if base % 8:
        raise ConfigError(f"base channel count {base} is not a multiple of 8")
    try:
        return max(8, math.ceil(base * width_multiple / 8) * 8)
    except (OverflowError, ValueError):   # the product is not a finite float
        raise ConfigError(f"base channel count times width_multiple "
                          f"{width_multiple} is not finite") from None


def scale_repeats(base: int, depth_multiple: float) -> int:
    """Depth scaling: multiply and round, never below one repeat and never
    above MAX_REPEATS."""
    if base <= 1:
        return base
    try:
        n = max(1, round(base * depth_multiple))
    except (OverflowError, ValueError):   # the product is not a finite float
        raise ConfigError(f"repeats {base} times depth_multiple "
                          f"{depth_multiple} is not finite") from None
    if n > MAX_REPEATS:
        raise ConfigError(f"repeats {base} times depth_multiple "
                          f"{depth_multiple} is {n}, above the limit of "
                          f"{MAX_REPEATS}")
    return n


@dataclass(frozen=True)
class LayerSpec:
    index: int
    sources: tuple[int, ...]   # absolute indices; -1 resolved at parse time
    repeats: int
    kind: str
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ModelConfig:
    name: str
    nc: int
    depth_multiple: float
    width_multiple: float
    anchors: tuple[tuple[tuple[float, float], ...], ...]
    layers: tuple[LayerSpec, ...]
    detect_from: tuple[int, ...]


_TOP_FIELDS = {"name", "nc", "depth_multiple", "width_multiple", "anchors",
               "layers", "detect_from"}


def _positive_finite(v) -> bool:
    """A JSON number that is finite and above 0 as a float."""
    try:
        return is_instance(v, int, float) and 0 < float(v) < math.inf
    except OverflowError:   # an int too large for a float
        return False


def _parse_anchors(raw) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("anchors must be a non-empty list of scale rows")
    scales = []
    for si, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != 3:
            raise ConfigError(
                f"anchors row {si} must hold exactly 3 (w, h) pairs")
        pairs = []
        for pair in row:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(_positive_finite(v) for v in pair)):
                raise ConfigError(
                    f"anchors row {si} entry {pair!r} is not a finite "
                    f"positive (w, h) pair")
            pairs.append((float(pair[0]), float(pair[1])))
        scales.append(tuple(pairs))
    return tuple(scales)


def _parse_layer(index: int, row) -> LayerSpec:
    if not isinstance(row, list) or len(row) != 4:
        raise ConfigError(
            f"layer {index} must be [from, repeats, kind, args]")
    frm, repeats, kind, args = row
    sources = frm if isinstance(frm, list) else [frm]
    resolved = []
    for s in sources:
        if not is_instance(s, int):
            raise ConfigError(f"layer {index} source {s!r} is not an index")
        if index == 0:
            if s != -1:
                raise ConfigError(
                    "layer 0 must read the model input (from: -1), "
                    f"got {s}")
            resolved.append(-1)
            continue
        abs_s = index + s if s < 0 else s
        if not 0 <= abs_s < index:
            raise ConfigError(
                f"layer {index} references layer {s}, which does not "
                f"precede it")
        resolved.append(abs_s)
    if not is_instance(repeats, int) or repeats < 1:
        raise ConfigError(f"layer {index} repeats must be a positive integer")
    if kind == "Detect":
        raise ConfigError(
            "Detect is assembled from detect_from, not listed as a layer")
    if not isinstance(kind, str) or kind not in _blocks.BLOCKS:
        raise ConfigError(f"unknown block kind {kind!r} at layer {index}")
    if repeats > 1 and kind not in _blocks.C3_FAMILY:
        raise ConfigError(
            f"layer {index}: repeats apply only to the C3 family, not {kind}")
    if not isinstance(args, dict):
        raise ConfigError(f"layer {index} args must be an object")
    return LayerSpec(index, tuple(resolved), repeats, kind, dict(args))


def parse_config(source) -> ModelConfig:
    """Parse and validate a model config from a path or an already-read dict."""
    doc = (source if isinstance(source, dict)
           else read_json(source, "config", dict))
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise ConfigError(f"config is missing fields: {sorted(missing)}")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"config has unknown fields: {sorted(unknown)}")
    nc = doc["nc"]
    if not is_instance(nc, int) or nc < 1:
        raise ConfigError(f"nc must be a positive integer, got {nc!r}")
    for fld in ("depth_multiple", "width_multiple"):
        v = doc[fld]
        if not _positive_finite(v):
            raise ConfigError(
                f"{fld} must be a finite positive number, got {v!r}")
    anchors = _parse_anchors(doc["anchors"])
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise ConfigError("layers must be a non-empty list")
    layers = tuple(_parse_layer(i, row) for i, row in enumerate(doc["layers"]))
    df = doc["detect_from"]
    if (not isinstance(df, list)
            or not all(is_instance(i, int) for i in df)):
        raise ConfigError("detect_from must be a list of layer indices")
    if len(df) != len(anchors):
        raise ConfigError(
            f"detect_from lists {len(df)} scales but anchors lists "
            f"{len(anchors)}")
    for i in df:
        if not 0 <= i < len(layers):
            raise ConfigError(f"detect_from references missing layer {i}")
    return ModelConfig(
        name=str(doc["name"]), nc=nc,
        depth_multiple=float(doc["depth_multiple"]),
        width_multiple=float(doc["width_multiple"]),
        anchors=anchors, layers=layers, detect_from=tuple(df))


def bundled_config_names() -> list[str]:
    """Names of the configs shipped inside the package, without extension."""
    root = resources.files("yolotla.configs")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def find_config(name_or_path) -> Path:
    """Resolve a config argument: an existing path wins, else a bundled name."""
    p = Path(name_or_path)
    if p.exists():
        return p
    stem = p.name if p.name.endswith(".cfg") else p.name + ".cfg"
    bundled = resources.files("yolotla.configs") / stem
    with resources.as_file(bundled) as real:
        if real.exists():
            return real
    raise ConfigError(
        f"no config file at {name_or_path!r} and no bundled config named "
        f"{stem!r} (bundled: {', '.join(bundled_config_names())})")


def init_params(specs, seed: int) -> dict[str, np.ndarray]:
    """Fresh parameters: norm affines are identity, the rest uniform.

    Weights draw from U(-b, b) with b = 1/sqrt(fan_in); a bias reuses the
    bound of the weight preceding it in the manifest. One generator,
    manifest order, so the result is a pure function of (manifest, seed).
    """
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    bound = 1.0
    for path, shape in specs:
        if path in out:
            raise ConfigError(f"duplicate parameter path {path}")
        if path.endswith("norm.scale"):
            out[path] = np.ones(shape, dtype=np.float32)
        elif path.endswith("norm.shift"):
            out[path] = np.zeros(shape, dtype=np.float32)
        else:
            if path.endswith(".weight"):
                fan_in = math.prod(shape[1:])
                bound = 1.0 / math.sqrt(fan_in)
            out[path] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return out


def _forward_step(index: int, block: _blocks.Block, ins: list[Tensor]):
    return block.forward(ins)


def _detect_strides(detect_from, shapes, side: int) -> tuple[int, ...]:
    """Each detect map's stride, from its row count at a side x side input."""
    strides = []
    for i in detect_from:
        h = shapes[i][2]
        if side % h:
            raise ConfigError(
                f"detect layer {i} produces a {h}-row map at input "
                f"{side}; stride is not integral")
        strides.append(side // h)
    if len(set(strides)) != len(strides):
        raise ConfigError(f"detect scales share a stride: {strides}")
    return tuple(strides)


def _release_after(nodes) -> tuple[tuple[int, ...], ...]:
    """For each node, the cached outputs (-1 is the input) that no later
    node reads once it has run. An output nothing reads dies where it is
    made."""
    last = {}
    for spec in nodes:
        last[spec.index] = spec.index
        last.update(dict.fromkeys(spec.sources, spec.index))
    dead: list[list[int]] = [[] for _ in nodes]
    for i, j in last.items():
        dead[j].append(i)
    return tuple(map(tuple, dead))


class Model:
    """An executable layer graph plus its parameter store.

    Building runs only the shape-only pass and allocates no parameter.
    The seeded weights, `init_params(self.param_specs(), seed)`, are drawn
    and bound once, under a lock, on first use: a `walk` over real data
    (`forward`), a read of `params`, or `save_weight_file`. A
    `load_weight_file` before that binds the file and draws nothing.
    Calling a block's `forward` directly needs bound weights; before
    first use a block holds shape-only meta weights, so go through `walk`.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.nc = config.nc
        self.nodes = (*config.layers,
                      LayerSpec(len(config.layers), config.detect_from, 1,
                                "Detect", {"nc": config.nc}))
        built: list[_blocks.Block] = []
        side = REFERENCE_SIDE
        shapes = {-1: (1, INPUT_CHANNELS, side, side)}
        for spec in self.nodes:
            ins = [shapes[s] for s in spec.sources]
            args = dict(spec.args)
            try:
                if spec.kind in _blocks.C3_FAMILY:
                    if "n" in args:
                        raise ConfigError(
                            "argument 'n' is not accepted; set the repeat "
                            "count in the layer's repeats field")
                    args["n"] = scale_repeats(spec.repeats, config.depth_multiple)
                if "out" in args:
                    args["out"] = scale_channels(args["out"],
                                                 config.width_multiple)
                block = _blocks.BLOCKS[spec.kind]([s[1] for s in ins], args)
                shapes[spec.index] = block.out_shape(ins)
            except (ConfigError, ShapeError) as e:
                raise type(e)(f"layer {spec.index} ({spec.kind}): {e}") from e
            built.append(block)
        *self.blocks, self.detect = built
        self.detect_from = config.detect_from
        self.strides = _detect_strides(config.detect_from, shapes, side)
        self._release_after = _release_after(self.nodes)
        self.anchors = [np.array(row, dtype=np.float64)
                        for row in config.anchors]
        self._seed = seed
        self._params: dict[str, np.ndarray] | None = None
        self._bind_lock = threading.Lock()

    # -- structure ---------------------------------------------------------

    def head_shapes(self, input_shape) -> list[tuple[int, int, int, int]]:
        with meter.CostMeter():
            return [t.shape for t in self.walk(Tensor.meta(input_shape))]

    def _leaves(self):
        """(path, unit) for every conv unit, layers first, in manifest order."""
        for i, block in enumerate(self.blocks):
            yield from block.leaves(f"layers.{i}")
        yield from self.detect.leaves("detect")

    def param_specs(self) -> list[tuple[str, tuple[int, ...]]]:
        return [spec for path, unit in self._leaves()
                for spec in unit.param_specs(path)]

    def param_count(self) -> int:
        return sum(math.prod(s) for _, s in self.param_specs())

    @property
    def params(self) -> dict[str, np.ndarray]:
        """The bound parameters; the first read binds the seeded weights.
        Every later read returns the same dict."""
        if self._params is None:
            with self._bind_lock:
                if self._params is None:
                    try:
                        self._bind(init_params(self.param_specs(), self._seed))
                    except MemoryError:
                        count = self.param_count()
                        raise WeightError(
                            f"cannot allocate {count} parameters "
                            f"({4 * count} bytes of float32)") from None
        return self._params

    def _bind(self, params: dict[str, np.ndarray]) -> None:
        """Check params against the manifest, then load them into the blocks.

        The one way weights enter the model; a rejected dict changes nothing.
        The dict is published last, so a thread that sees it bound also
        sees the loaded blocks. Callers hold `_bind_lock`.
        """
        expected = dict(self.param_specs())
        missing = sorted(set(expected) - set(params))
        if missing:
            raise WeightError(f"missing parameter {missing[0]} "
                              f"({len(missing)} missing in total)")
        extra = sorted(set(params) - set(expected))
        if extra:
            raise WeightError(f"unexpected parameter {extra[0]} "
                              f"({len(extra)} unexpected in total)")
        for path, shape in expected.items():
            got = tuple(params[path].shape)
            if got != shape:
                raise WeightError(
                    f"parameter {path} has shape {got}, expected {shape}")
        for path, unit in self._leaves():
            unit.load(params.__getitem__, path)
        self._params = params

    # -- execution ---------------------------------------------------------

    def walk(self, x: Tensor, upto: int | None = None, step=_forward_step):
        """The one graph traversal: runs nodes [0, upto), upto in 1..layers,
        and returns the last one's output (the head's maps if upto is None).
        A meta x makes it shape-only; a real x binds the seeded weights on
        first use. `step(index, block, ins)` runs each node in place of
        `block.forward(ins)`; the head's index is len(self.blocks).
        The walk holds a node's output only until its last consumer has
        run (buffer liveness as planned once in `__init__`), so a forward
        keeps the live outputs, not every output, in memory."""
        if upto is not None and not 1 <= upto <= len(self.blocks):
            raise ConfigError(
                f"truncate must be within 1..{len(self.blocks)}, got {upto}")
        n, c, h, w = x.shape
        if c != INPUT_CHANNELS:
            raise ShapeError(
                f"model expects {INPUT_CHANNELS} input channels, got {c}")
        max_stride = max(self.strides)
        if h % max_stride or w % max_stride:
            raise ShapeError(
                f"input {h}x{w} must be divisible by the largest stride "
                f"{max_stride}")
        if not x.is_meta:
            self.params   # binds on first use
        cache: dict[int, Tensor] = {-1: x}
        # inf and NaN from a float32 overflow reach decode's head map check
        with np.errstate(over="ignore", invalid="ignore"):
            for spec, block in zip(self.nodes[:upto], (*self.blocks, self.detect)):
                out = cache[spec.index] = step(
                    spec.index, block, [cache[s] for s in spec.sources])
                for i in self._release_after[spec.index]:
                    del cache[i]
        return out

    def forward(self, x: Tensor) -> list[Tensor]:
        """Run the graph; returns one raw prediction map per detect scale."""
        return self.walk(x)

    def infer(self, img: Tensor, input_size: int, *, stretch: bool = False,
              conf=DEFAULT_CONF_THRESHOLD, iou=DEFAULT_IOU_THRESHOLD,
              mark=lambda stage: None) -> list[Detection]:
        """Runs letterbox (to ``input_size``), forward, decode (at ``conf``)
        and nms (at ``iou``) on ``img``, calling ``mark`` with each stage's
        name as it ends; returns the kept detections in ``img``'s pixels."""
        boxed, scale, pads = letterbox(img, target=input_size, stretch=stretch)
        mark("letterbox")
        maps = self.forward(boxed)
        mark("forward")
        candidates = decode(maps, self.anchors, self.strides, conf)
        mark("decode")
        dets = nms(candidates, iou)
        mark("nms")
        found = len(candidates)
        del candidates   # only the kept detections outlive NMS
        log.debug("infer: %d candidates at conf>=%s, %d kept by nms, "
                  "%d suppressed", found, conf, len(dets), found - len(dets))
        return [Detection(unletterbox_box(d.box, scale, pads, (img.h, img.w)),
                          d.class_id, d.confidence) for d in dets]

    # -- weight files ------------------------------------------------------

    def save_weight_file(self, path) -> None:
        save_weights(path, self.params)

    def load_weight_file(self, path) -> None:
        """Bind a weight file. An entry holding a NaN or an infinity is
        refused. Entries are stored at rank 4; each one stored at its
        manifest shape padded with trailing 1s (as `save_weights` writes
        it) takes that shape, and `_bind` rejects every other shape."""
        expected = dict(self.param_specs())
        params = {}
        for name, arr in load_weights(path).items():
            if not np.isfinite(arr).all():
                raise WeightError(f"parameter {name} holds a non-finite value")
            want = expected.get(name)
            if want is not None and arr.shape == _pad4(want):
                arr = arr.reshape(want)
            params[name] = arr
        with self._bind_lock:
            self._bind(params)


def build_model(config_source, seed: int = 0) -> Model:
    cfg = (config_source if isinstance(config_source, ModelConfig)
           else parse_config(config_source))
    return Model(cfg, seed=seed)


def _pad4(shape: tuple[int, ...]) -> tuple[int, int, int, int]:
    if len(shape) > 4:
        raise WeightError(f"cannot store rank-{len(shape)} parameter")
    return tuple(list(shape) + [1] * (4 - len(shape)))


def save_weights(path, params: dict[str, np.ndarray]) -> None:
    """Write a weight file: entries sorted by path, shapes padded to rank 4."""
    with writing(path) as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(struct.pack("<B", WEIGHT_VERSION))
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<4I", *_pad4(arr.shape)))
            fh.write(arr.tobytes())


def load_weights(path) -> dict[str, np.ndarray]:
    """Read a weight file back into {path: rank-4 float32 array}, each
    payload straight from the file into its own array once the file is
    known to hold it."""
    with reading(path, "weights") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(9)
        if head[:4] != WEIGHT_MAGIC:
            raise ParseError(
                f"{path} is not a weight file (magic {head[:4]!r})")
        if len(head) < 9:
            raise ParseError(f"{path} is truncated before the entry count")
        version = head[4]
        if version != WEIGHT_VERSION:
            raise ParseError(f"{path} has unsupported version {version}")
        (count,) = struct.unpack_from("<I", head, 5)
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            raw = fh.read(4)
            if len(raw) < 4:
                raise ParseError(f"{path} is truncated inside an entry header")
            (plen,) = struct.unpack("<I", raw)
            try:
                name = fh.read(min(plen, size - fh.tell())).decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(
                    f"{path} has a parameter name that is not UTF-8") from None
            raw = fh.read(16)
            if len(raw) < 16:
                raise ParseError(f"{path} is truncated in dims of {name}")
            if out and name <= last:
                raise ParseError(f"{path} lists {name} out of order "
                                 f"(names are unique and sorted)")
            last = name
            dims = struct.unpack("<4I", raw)
            # math.prod is exact; np.prod wraps in int64
            if 4 * math.prod(dims) > size - fh.tell():
                raise ParseError(f"{path} is truncated in payload of {name}")
            arr = out[name] = np.empty(dims, dtype="<f4")
            if fh.readinto(arr) != arr.nbytes:   # the file shrank meanwhile
                raise ParseError(f"{path} is truncated in payload of {name}")
        if fh.tell() != size:
            raise ParseError(f"{path} has {size - fh.tell()} trailing bytes")
    return out
