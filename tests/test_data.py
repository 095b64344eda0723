"""Annotation ingestion, image loading, and letterbox geometry."""
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yolotla.data import (Dataset, ImageInfo, letterbox, load_coco,
                          load_image, load_results, resize_nearest,
                          unletterbox_box, PAD_VALUE)
from yolotla.errors import ConfigError, ParseError
from yolotla.graph import parse_config
from yolotla.tensor import Tensor, save_tns


def coco_doc():
    return {
        "images": [
            {"id": 1, "file_name": "a.ppm", "width": 64, "height": 48},
            {"id": 2, "file_name": "b.ppm", "width": 32, "height": 32},
        ],
        "annotations": [
            {"image_id": 1, "category_id": 3, "bbox": [1, 2, 10, 12]},
            {"image_id": 1, "category_id": 7, "bbox": [5, 5, 8, 8]},
            {"image_id": 2, "category_id": 3, "bbox": [0, 0, 16, 16]},
        ],
        "categories": [{"id": 7, "name": "cat"}, {"id": 3, "name": "dog"}],
    }


def write_doc(tmp_path, doc, name="gt.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def ppm_bytes(pixels, width, height, header_comment=False):
    head = b"P6\n"
    if header_comment:
        head += b"# fixture\n"
    head += f"{width} {height}\n255\n".encode()
    return head + bytes(pixels)


class TestLoadCoco:

    def test_fixture_counts(self, tmp_path):
        ds = load_coco(write_doc(tmp_path, coco_doc()))
        assert len(ds.images) == 2
        assert len(ds.annotations) == 3
        assert len(ds.categories) == 2

    def test_categories_sorted_and_indexed(self, tmp_path):
        ds = load_coco(write_doc(tmp_path, coco_doc()))
        assert ds.categories == ((3, "dog"), (7, "cat"))
        # image 1 holds one box of category 3, then one of category 7
        assert [cls for _, cls in ds.gt_by_image()[1]] == [0, 1]

    def test_gt_by_image_converts_to_corners(self, tmp_path):
        ds = load_coco(write_doc(tmp_path, coco_doc()))
        by_img = ds.gt_by_image()
        assert by_img[1][0] == ((1, 2, 11, 14), 0)
        assert by_img[2] == [((0, 0, 16, 16), 0)]

    def test_degenerate_boxes_dropped_with_warning(self, tmp_path, caplog):
        doc = coco_doc()
        doc["annotations"].append(
            {"image_id": 1, "category_id": 3, "bbox": [0, 0, 0, 5]})
        with caplog.at_level(logging.WARNING, logger="yolotla"):
            ds = load_coco(write_doc(tmp_path, doc))
        assert len(ds.annotations) == 3
        assert "dropped 1" in caplog.text

    def test_no_warning_when_no_box_is_dropped(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="yolotla"):
            load_coco(write_doc(tmp_path, coco_doc()))
        assert caplog.records == []

    def test_bbox_may_mix_integers_and_floats(self, tmp_path):
        doc = coco_doc()
        doc["annotations"][0]["bbox"] = [1, 2.5, 10, 12.25]
        ds = load_coco(write_doc(tmp_path, doc))
        assert ds.annotations[0].bbox == (1.0, 2.5, 10.0, 12.25)

    def test_empty_annotations_fine(self, tmp_path):
        doc = coco_doc()
        doc["annotations"] = []
        ds = load_coco(write_doc(tmp_path, doc))
        assert ds.annotations == ()

    def test_missing_array_names_path(self, tmp_path):
        doc = coco_doc()
        del doc["categories"]
        p = write_doc(tmp_path, doc)
        with pytest.raises(ParseError, match="categories"):
            load_coco(p)

    def test_bad_json_names_path(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{")
        with pytest.raises(ParseError, match="broken.json"):
            load_coco(p)

    def test_dangling_image_reference(self, tmp_path):
        doc = coco_doc()
        doc["annotations"][0]["image_id"] = 42
        with pytest.raises(ParseError, match="image 42"):
            load_coco(write_doc(tmp_path, doc))

    def test_dangling_category_reference(self, tmp_path):
        doc = coco_doc()
        doc["annotations"][0]["category_id"] = 42
        with pytest.raises(ParseError,
                           match=r"annotations\[0\] references missing "
                                 r"category 42"):
            load_coco(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("value", ["1", True, None], ids=repr)
    def test_each_bbox_entry_must_be_a_number(self, tmp_path, position, value):
        doc = coco_doc()
        doc["annotations"][2]["bbox"][position] = value
        p = write_doc(tmp_path, doc)
        with pytest.raises(ParseError) as info:
            load_coco(p)
        assert str(info.value).startswith(
            f"{p}: annotations[2] is malformed: 'bbox' must be a list of 4 "
            f"numbers")

    def test_unknown_extra_fields_ignored(self, tmp_path):
        doc = coco_doc()
        doc["info"] = {"year": 2024}
        doc["images"][0]["license"] = 4
        ds = load_coco(write_doc(tmp_path, doc))
        assert len(ds.images) == 2

    @pytest.mark.parametrize("value", [None, 3, ["a.ppm"], {"a": [1]}])
    def test_file_name_must_be_a_string(self, tmp_path, value):
        doc = coco_doc()
        doc["images"][1]["file_name"] = value
        with pytest.raises(ParseError) as info:
            load_coco(write_doc(tmp_path, doc))
        assert str(info.value).endswith(
            f"images[1] is malformed: 'file_name' must be a string, "
            f"got {value!r}")

    @pytest.mark.parametrize("value", [None, 7, True, {"a": [1]}])
    def test_category_name_must_be_a_string(self, tmp_path, value):
        doc = coco_doc()
        doc["categories"][0]["name"] = value
        with pytest.raises(ParseError) as info:
            load_coco(write_doc(tmp_path, doc))
        assert str(info.value).endswith(
            f"categories[0] is malformed: 'name' must be a string, "
            f"got {value!r}")

    def test_missing_category_name_reads_empty(self, tmp_path):
        doc = coco_doc()
        del doc["categories"][0]["name"]
        ds = load_coco(write_doc(tmp_path, doc))
        assert ds.categories == ((3, "dog"), (7, ""))


# coco_doc's images and categories, for the results reader
GT = Dataset((ImageInfo(1, "a.ppm", 64, 48), ImageInfo(2, "b.ppm", 32, 32)),
             (), ((3, "dog"), (7, "cat")))


def read_results(path):
    return load_results(path, GT)


def results_rows():
    return [{"image_id": img, "category_id": cat, "bbox": [0, 0, 4, 4],
             "score": 0.5} for img, cat in ((1, 3), (2, 7))]


# every JSON document's reader and the root type it must have
DOCUMENTS = {"config": (parse_config, dict), "annotations": (load_coco, dict),
             "results": (read_results, list)}


class TestDocumentRules:
    """The root-type rule of `read_json`, as every reader meets it, and the
    reference rule of `load_coco` as `load_results` meets it."""

    @pytest.mark.parametrize("what, text", [
        (what, text) for what, (_, root) in DOCUMENTS.items()
        for text in ("[]", "{}", "null", "3", '"text"')
        if type(json.loads(text)) is not root])
    def test_a_wrong_root_is_refused(self, tmp_path, what, text):
        read, root = DOCUMENTS[what]
        p = tmp_path / "doc.json"
        p.write_text(text)
        with pytest.raises(ParseError) as info:
            read(p)
        assert str(info.value) == (f"{what} {p}: root must be "
                                   + ("an object" if root is dict else "a list"))

    @pytest.mark.parametrize("fields, missing", [
        (("image_id",), "image"),
        (("category_id",), "category"),
        (("image_id", "category_id"), "image"),   # an image is checked first
    ], ids=["image", "category", "both"])
    def test_a_result_with_an_unlisted_reference_is_refused(
            self, tmp_path, fields, missing):
        # as an annotation is (TestLoadCoco's dangling-reference tests)
        rows = results_rows()
        for field in fields:
            rows[1][field] = 99
        p = write_doc(tmp_path, rows, "results.json")
        with pytest.raises(ParseError) as info:
            read_results(p)
        assert str(info.value) == (
            f"{p}: results[1] references missing {missing} 99")


class TestLoadImage:

    def test_white_ppm_is_ones(self, tmp_path):
        p = tmp_path / "white.ppm"
        p.write_bytes(ppm_bytes([255] * 12, 2, 2))
        t = load_image(p)
        assert t.shape == (1, 3, 2, 2)
        np.testing.assert_array_equal(t.data, np.ones((1, 3, 2, 2)))

    def test_red_pixel_channel_order(self, tmp_path):
        p = tmp_path / "red.ppm"
        p.write_bytes(ppm_bytes([255, 0, 0], 1, 1))
        t = load_image(p)
        np.testing.assert_allclose(t.data[0, :, 0, 0], [1.0, 0.0, 0.0])

    def test_header_comment_skipped(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(ppm_bytes([0, 255, 0], 1, 1, header_comment=True))
        np.testing.assert_allclose(load_image(p).data[0, :, 0, 0],
                                   [0.0, 1.0, 0.0])

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.ppm"
        p.write_bytes(ppm_bytes([255] * 9, 2, 2))
        with pytest.raises(ParseError, match="needs 12"):
            load_image(p)

    def test_wide_maxval_rejected(self, tmp_path):
        p = tmp_path / "deep.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + b"\0" * 6)
        with pytest.raises(ParseError, match="8-bit"):
            load_image(p)

    @pytest.mark.parametrize("dims", ["-1 -1", "0 4", "4 -2"])
    def test_non_positive_dimensions_rejected(self, tmp_path, dims):
        p = tmp_path / "neg.ppm"
        p.write_bytes(f"P6\n{dims}\n255\n".encode() + b"\0" * 12)
        with pytest.raises(ParseError, match="must be positive"):
            load_image(p)

    @pytest.mark.parametrize("header", [
        b"P6 +1 1_0 2_55\n", b"P6 +1 10 255\n", b"P6 1 1_0 255\n",
        b"P6 1 10 +255\n", b"P6 1 10 0x1\n", b"P6 1 10 --255\n"])
    def test_header_fields_are_decimal_digits(self, tmp_path, header):
        p = tmp_path / "signed.ppm"
        p.write_bytes(header + b"\0" * 30)
        with pytest.raises(ParseError, match="non-numeric PPM header fields"):
            load_image(p)

    def test_tns_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        t = Tensor(rng.uniform(0, 1, (1, 3, 5, 4)).astype(np.float32))
        p = tmp_path / "img.tns"
        save_tns(t, p)
        np.testing.assert_array_equal(load_image(p).data, t.data)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_tns_pixel_that_is_not_finite_rejected(self, tmp_path, value):
        pixels = np.zeros((1, 3, 2, 2), np.float32)
        pixels[0, 1, 1, 0] = value
        p = tmp_path / "odd.tns"
        save_tns(Tensor(pixels), p)
        with pytest.raises(ParseError, match="pixel values must be finite"):
            load_image(p)

    def test_tns_wrong_layout(self, tmp_path):
        p = tmp_path / "mono.tns"
        save_tns(Tensor(np.zeros((1, 1, 4, 4), np.float32)), p)
        with pytest.raises(ParseError, match="1, 3"):
            load_image(p)

    def test_unsupported_format_names_supported(self, tmp_path):
        p = tmp_path / "img.jpg"
        p.write_bytes(b"\xff\xd8\xff")
        with pytest.raises(ParseError, match="ppm"):
            load_image(p)


class TestResize:

    def test_block_upsample(self):
        t = Tensor(np.array([[1, 2], [3, 4]], np.float32).reshape(1, 1, 2, 2))
        out = resize_nearest(t, 4, 4)
        np.testing.assert_array_equal(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_same_size_identity(self):
        rng = np.random.default_rng(1)
        t = Tensor(rng.uniform(size=(1, 3, 7, 9)).astype(np.float32))
        np.testing.assert_array_equal(resize_nearest(t, 7, 9).data, t.data)

    def test_downsample_picks_centers(self):
        t = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = resize_nearest(t, 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])


class TestLetterbox:

    @pytest.mark.parametrize("h, w", [(1, 96), (96, 1)])
    def test_a_side_that_rounds_to_zero_keeps_one_pixel(self, h, w):
        # 1 * 8 / 96 rounds to 0 pixels; the image still shows as one line
        out, _, _ = letterbox(Tensor(np.ones((1, 3, h, w), np.float32)), 8)
        assert np.count_nonzero(out.data == 1.0) == 3 * 8

    def test_square_at_target_unchanged(self):
        rng = np.random.default_rng(2)
        t = Tensor(rng.uniform(size=(1, 3, 640, 640)).astype(np.float32))
        out, scale, pads = letterbox(t)
        assert scale == (1.0, 1.0) and pads == (0.0, 0.0)
        np.testing.assert_array_equal(out.data, t.data)

    def test_half_height_pads_vertically(self):
        t = Tensor(np.zeros((1, 3, 320, 640), np.float32))
        out, scale, (pad_x, pad_y) = letterbox(t)
        assert scale == (1.0, 1.0) and (pad_x, pad_y) == (0.0, 160.0)
        assert out.shape == (1, 3, 640, 640)
        assert np.all(out.data[:, :, :160] == np.float32(PAD_VALUE))
        assert np.all(out.data[:, :, 480:] == np.float32(PAD_VALUE))
        assert np.all(out.data[:, :, 160:480] == 0.0)

    def test_scale_shrinks_long_side_to_target(self):
        t = Tensor(np.zeros((1, 3, 480, 1280), np.float32))
        out, scale, (pad_x, pad_y) = letterbox(t)
        assert scale == (0.5, 0.5)
        assert pad_x == 0.0 and pad_y == (640 - 240) // 2
        assert out.shape == (1, 3, 640, 640)

    def test_box_round_trip_within_one_pixel(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            h = int(rng.integers(40, 900))
            w = int(rng.integers(40, 900))
            img = Tensor(np.zeros((1, 3, h, w), np.float32))
            _, scale, pads = letterbox(img)
            sx, sy = scale
            x1, y1 = rng.uniform(0, w * 0.5), rng.uniform(0, h * 0.5)
            x2 = rng.uniform(x1 + 1, w)
            y2 = rng.uniform(y1 + 1, h)
            boxed = (x1 * sx + pads[0], y1 * sy + pads[1],
                     x2 * sx + pads[0], y2 * sy + pads[1])
            back = unletterbox_box(boxed, scale, pads, (h, w))
            for got, want in zip(back, (x1, y1, x2, y2)):
                assert abs(got - want) <= 1.0

    def test_stretch_mode(self):
        t = Tensor(np.zeros((1, 3, 320, 160), np.float32))
        out, scale, pads = letterbox(t, stretch=True)
        assert out.shape == (1, 3, 640, 640)
        assert scale == (4.0, 2.0)
        assert pads == (0.0, 0.0)
        back = unletterbox_box((0, 0, 640, 640), scale, pads, (320, 160))
        assert back == (0.0, 0.0, 160.0, 320.0)


def letterbox_reference(img: Tensor, target: int = 640, stretch: bool = False):
    """The two-path letterbox that `letterbox`'s one per-axis path replaced:
    a float scale when letterboxing, an (sx, sy) pair under ``stretch``."""
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


@settings(max_examples=300)
@given(h=st.integers(1, 96), w=st.integers(1, 96), target=st.integers(1, 128),
       stretch=st.booleans())
def test_letterbox_matches_two_path_reference(h, w, target, stretch):
    pixels = np.arange(3 * h * w, dtype=np.float32).reshape(1, 3, h, w)
    img = Tensor(pixels / pixels.size)
    out, scale, pads = letterbox(img, target, stretch)
    want, want_scale, want_pads = letterbox_reference(img, target, stretch)
    assert out.data.tobytes() == want.data.tobytes()
    assert pads == want_pads
    assert scale == (want_scale if stretch else (want_scale, want_scale))
