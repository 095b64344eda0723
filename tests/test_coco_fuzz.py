"""Fuzzers for the two COCO readers, `load_coco` and `load_results`.

Each example is a well-formed document with up to two of its values
replaced by another JSON type or deleted: fractional, string and bool ids,
strings and lists in a bbox or a score, NaN, the infinities (Python's json
writes and reads them; `1e400` reads as an infinity) and integers past
float range. Whatever the input, the only exception that may escape is a
`YoloTlaError`, and an accepted document holds only integer ids, string
file and category names, four-number boxes and numeric scores, and gives
back exactly those ids and names.
"""
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yolotla.data import load_coco, load_results
from yolotla.errors import YoloTlaError

FUZZ = settings(max_examples=150)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
small_ids = st.integers(0, 4)
numbers = st.integers(-2, 50) | st.floats(-2, 50)
boxes = st.lists(numbers, min_size=4, max_size=4)
names = st.text(max_size=3)
hostile = st.one_of(
    small_ids,   # repeats an id or points at a missing one
    st.sampled_from([1.7, 1.0, "1", True, False, None, "1234", math.nan,
                     math.inf, -math.inf, 10 ** 400]),
    st.lists(numbers | st.sampled_from(["2", True, None, 10 ** 400]),
             min_size=3, max_size=5),
    json_values)
FIELDS = {"id", "image_id", "category_id", "bbox", "score", "file_name",
          "name"}


@st.composite
def ground_truths(draw):
    images = draw(st.lists(
        st.fixed_dictionaries({"id": small_ids, "file_name": names,
                               "width": small_ids, "height": small_ids}),
        min_size=1, max_size=3, unique_by=lambda rec: rec["id"]))
    categories = draw(st.lists(
        st.fixed_dictionaries({"id": small_ids, "name": names}),
        min_size=1, max_size=3, unique_by=lambda rec: rec["id"]))
    annotations = draw(st.lists(st.fixed_dictionaries({
        "image_id": st.sampled_from([rec["id"] for rec in images]),
        "category_id": st.sampled_from([rec["id"] for rec in categories]),
        "bbox": boxes}), min_size=1, max_size=4))
    return {"images": images, "annotations": annotations,
            "categories": categories}


results = st.lists(st.fixed_dictionaries({
    "image_id": small_ids, "category_id": st.sampled_from([1, 3]),
    "bbox": boxes, "score": st.floats(0, 1) | st.integers(0, 1)}),
    min_size=1, max_size=4)


def slots(node):
    """Every (container, key) pair below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield node, key
        yield from slots(value)


@st.composite
def mutated(draw, documents):
    """A document from ``documents`` with up to two values replaced by a
    hostile one or deleted, half of the time an id, a bbox or a score; now
    and then the whole root is replaced."""
    doc = draw(documents)
    for _ in range(draw(st.integers(0, 2))):
        places = list(slots(doc))
        if not places or draw(st.integers(0, 9)) == 0:
            return draw(hostile)
        fields = [(node, key) for node, key in places if key in FIELDS]
        if fields and draw(st.booleans()):
            places = fields
        node, key = draw(st.sampled_from(places))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(hostile)
    return doc


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("coco-fuzz")


def written(folder, doc, name):
    path = folder / name
    path.write_text(json.dumps(doc))
    return path


def exact_int(value) -> bool:
    return type(value) is int


def four_numbers(value) -> bool:
    return (type(value) is list and len(value) == 4
            and all(type(v) in (int, float) for v in value))


@FUZZ
@given(doc=mutated(ground_truths()))
@example(doc={   # int() once read every id here as 1
    "images": [{"id": 1.7, "file_name": "a", "width": 4, "height": 4}],
    "annotations": [{"image_id": "1", "category_id": 1.2,
                     "bbox": [0, 0, 1, 1]}],
    "categories": [{"id": True}]})
@example(doc={"images": [{"id": 2, "file_name": "a", "width": 4, "height": 4},
                         {"id": 2, "file_name": "b", "width": 4, "height": 4}],
              "annotations": [], "categories": [{"id": 1}]})
@example(doc={"images": [], "annotations": [],
              "categories": [{"id": 1, "name": "a"}, {"id": 1, "name": "b"}]})
@example(doc={   # str() once read these as "None" and "{'a': [1]}"
    "images": [{"id": 1, "file_name": None, "width": 4, "height": 4}],
    "annotations": [], "categories": [{"id": 1, "name": {"a": [1]}}]})
def test_ground_truth_reader_refuses_or_keeps_ids(folder, doc):
    try:
        ds = load_coco(written(folder, doc, "gt.json"))
    except YoloTlaError:
        return
    image_ids = [rec["id"] for rec in doc["images"]]
    category_ids = [rec["id"] for rec in doc["categories"]]
    assert all(map(exact_int, image_ids + category_ids))
    assert len(set(image_ids)) == len(image_ids)
    assert len(set(category_ids)) == len(category_ids)
    assert [im.id for im in ds.images] == image_ids
    assert [cid for cid, _ in ds.categories] == sorted(category_ids)
    assert [im.file_name for im in ds.images] == [
        rec["file_name"] for rec in doc["images"]]
    assert ds.categories == tuple(sorted(
        (rec["id"], rec.get("name", "")) for rec in doc["categories"]))
    assert all(type(name) is str for _, name in ds.categories)
    assert all(exact_int(rec["image_id"]) and exact_int(rec["category_id"])
               and four_numbers(rec["bbox"]) for rec in doc["annotations"])
    assert [(a.image_id, a.category_id, a.bbox) for a in ds.annotations] == [
        (rec["image_id"], rec["category_id"], tuple(map(float, rec["bbox"])))
        for rec in doc["annotations"]
        if rec["bbox"][2] > 0 and rec["bbox"][3] > 0]


@pytest.fixture(scope="module")
def dataset(folder):
    doc = {"images": [{"id": i, "file_name": f"{i}.ppm", "width": 64,
                       "height": 48} for i in (1, 2)],
           "annotations": [],
           "categories": [{"id": 3, "name": "dog"}, {"id": 1, "name": "cat"}]}
    return load_coco(written(folder, doc, "fixed-gt.json"))


@FUZZ
@given(rows=mutated(results))
@example(rows=[{"image_id": 1.9, "category_id": "1", "bbox": "1234",
                "score": 1}])
def test_results_reader_refuses_or_keeps_ids(folder, dataset, rows):
    try:
        dets = load_results(written(folder, rows, "results.json"), dataset)
    except YoloTlaError:
        return
    assert all(exact_int(row["image_id"]) and exact_int(row["category_id"])
               and four_numbers(row["bbox"])
               and type(row["score"]) in (int, float) for row in rows)
    assert all(map(exact_int, dets))
    got = sorted((img, d.class_id, d.confidence)
                 for img, found in dets.items() for d in found)
    assert got == sorted((row["image_id"], {1: 0, 3: 1}[row["category_id"]],
                          float(row["score"])) for row in rows)
