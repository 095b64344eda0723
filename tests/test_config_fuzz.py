"""Fuzzer for whole `.cfg` documents.

Each example starts from a small well-formed config that uses eight of
the layer kinds, then replaces, drops or adds top-level fields, layer
rows, layer fields, block arguments, anchor rows and detect indices with
arbitrary JSON values and with numbers near the edges that matter
(negative, zero, huge, non-finite). The document goes through `parse_config`, then
`build_model` and `analyze` at a small side. Whatever the document, the
only exception that may escape is a `YoloTlaError`.
"""
import copy

from hypothesis import example, given, settings
from hypothesis import strategies as st

from yolotla.blocks import BLOCKS
from yolotla.costs import analyze
from yolotla.errors import YoloTlaError
from yolotla.graph import build_model, parse_config

FUZZ = settings(max_examples=300)
SIDE = 64

BASE = {
    "name": "fuzz", "nc": 3,
    "depth_multiple": 0.33, "width_multiple": 0.5,
    "anchors": [[[10, 13], [16, 30], [33, 23]],
                [[30, 61], [62, 45], [59, 119]]],
    "layers": [
        [-1, 1, "ConvBNAct", {"out": 16, "k": 6, "s": 2, "p": 2}],
        [-1, 1, "ConvBNAct", {"out": 32, "k": 3, "s": 2}],
        [-1, 3, "C3", {"out": 32}],
        [-1, 1, "GAM", {"ratio": 4}],
        [-1, 1, "ConvBNAct", {"out": 64, "k": 3, "s": 2}],
        [-1, 3, "C3CrossConv", {"out": 64}],
        [-1, 1, "SPPF", {"out": 64, "k": 5}],
        [-1, 1, "Upsample", {"factor": 2}],
        [[-1, 3], 1, "Concat", {}],
        [-1, 3, "C3Ghost", {"out": 32, "shortcut": False}],
        [-1, 1, "ConvBNAct", {"out": 32, "k": 3, "s": 2}],
        [[-1, 6], 1, "Concat", {}],
        [-1, 1, "C3", {"out": 64, "shortcut": False}],
    ],
    "detect_from": [9, 12],
}

ARG_NAMES = ["out", "k", "s", "p", "g", "act", "n", "e", "shortcut",
             "ratio", "residual", "spatial_groups", "factor", "nc", "zz"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
edge_numbers = st.sampled_from(
    [0, -1, 1, 2, 7, 8, 9, 1000, 3034, 2 ** 31, 2 ** 64, 10 ** 100,
     0.5, 1e-300, 1e308, float("inf"), float("nan"), -0.0])
small = st.integers(-2, 70) | edge_numbers
index = st.integers(-15, 15)
anchor_rows = st.lists(
    st.lists(st.lists(st.integers(1, 99) | edge_numbers,
                      min_size=2, max_size=2), min_size=3, max_size=3),
    min_size=1, max_size=3)


def pick(draw, plausible):
    """Mostly a plausible value; one time in eight, any JSON value."""
    return draw(json_values if draw(st.integers(0, 7)) == 0 else plausible)


@st.composite
def mutation(draw, doc):
    """Change one part of doc in place."""
    what = draw(st.sampled_from(
        ["top", "multiple", "row", "source", "source", "repeats", "kind",
         "arg", "arg", "arg", "args", "anchors", "detect"]))
    layers = doc.get("layers")
    if what == "top":
        key = draw(st.sampled_from(sorted(doc)) | st.text(max_size=4))
        if draw(st.booleans()) and key in doc:
            del doc[key]
        else:
            doc[key] = draw(json_values)
    elif what == "multiple":
        doc[draw(st.sampled_from(["depth_multiple", "width_multiple"]))] = (
            pick(draw, st.floats(0.05, 4) | edge_numbers))
    elif what == "anchors":
        doc["anchors"] = pick(draw, anchor_rows)
    elif what == "detect":
        doc["detect_from"] = pick(draw, st.lists(index, max_size=4))
    elif not isinstance(layers, list) or not layers:
        doc["layers"] = draw(st.lists(json_values, max_size=3))
    elif what == "row":
        layers[draw(st.integers(0, len(layers) - 1))] = draw(json_values)
    else:
        row = layers[draw(st.integers(0, len(layers) - 1))]
        if not isinstance(row, list) or len(row) != 4:
            return
        if what == "source":
            row[0] = pick(draw, index | st.lists(index, max_size=3))
        elif what == "repeats":
            row[1] = pick(draw, st.integers(-1, 4000) | edge_numbers)
        elif what == "kind":
            row[2] = pick(draw, st.sampled_from(sorted(BLOCKS) + ["c3"]))
        elif what == "args":
            row[3] = pick(draw, st.dictionaries(st.sampled_from(ARG_NAMES),
                                                small, max_size=3))
        elif isinstance(row[3], dict):
            row[3][draw(st.sampled_from(ARG_NAMES))] = pick(draw, small)


@st.composite
def documents(draw):
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 2))):
        draw(mutation(doc))
    return doc


def check_document(doc) -> None:
    try:
        analyze(build_model(parse_config(doc)), (SIDE, SIDE))
    except YoloTlaError:
        pass


def test_base_document_builds_and_analyzes():
    report = analyze(build_model(parse_config(copy.deepcopy(BASE))),
                     (SIDE, SIDE))
    assert len(report.layers) == len(BASE["layers"])


@FUZZ
@given(documents())
@example({**BASE, "width_multiple": 1e308})
@example({**BASE, "depth_multiple": float("nan")})
@example({**BASE, "detect_from": [9, 9]})
@example({**BASE, "layers": [[-1, 1, ["C3"], {}]]})   # an unhashable kind
def test_only_package_errors_escape(doc):
    check_document(doc)

