"""Annotation ingestion, image loading, and letterbox geometry."""
import json
import logging

import numpy as np
import pytest

from yolotla.data import (Dataset, letterbox, load_coco, load_image,
                          resize_nearest, unletterbox_box, PAD_VALUE)
from yolotla.errors import ParseError
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
        assert ds.class_index(3) == 0
        assert ds.class_index(7) == 1
        with pytest.raises(ParseError, match="99"):
            ds.class_index(99)

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

    def test_tns_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        t = Tensor(rng.uniform(0, 1, (1, 3, 5, 4)).astype(np.float32))
        p = tmp_path / "img.tns"
        save_tns(t, p)
        np.testing.assert_array_equal(load_image(p).data, t.data)

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

    def test_square_at_target_unchanged(self):
        rng = np.random.default_rng(2)
        t = Tensor(rng.uniform(size=(1, 3, 640, 640)).astype(np.float32))
        out, scale, pads = letterbox(t)
        assert scale == 1.0 and pads == (0.0, 0.0)
        np.testing.assert_array_equal(out.data, t.data)

    def test_half_height_pads_vertically(self):
        t = Tensor(np.zeros((1, 3, 320, 640), np.float32))
        out, scale, (pad_x, pad_y) = letterbox(t)
        assert scale == 1.0 and (pad_x, pad_y) == (0.0, 160.0)
        assert out.shape == (1, 3, 640, 640)
        assert np.all(out.data[:, :, :160] == np.float32(PAD_VALUE))
        assert np.all(out.data[:, :, 480:] == np.float32(PAD_VALUE))
        assert np.all(out.data[:, :, 160:480] == 0.0)

    def test_scale_shrinks_long_side_to_target(self):
        t = Tensor(np.zeros((1, 3, 480, 1280), np.float32))
        out, scale, (pad_x, pad_y) = letterbox(t)
        assert scale == 0.5
        assert pad_x == 0.0 and pad_y == (640 - 240) // 2
        assert out.shape == (1, 3, 640, 640)

    def test_box_round_trip_within_one_pixel(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            h = int(rng.integers(40, 900))
            w = int(rng.integers(40, 900))
            img = Tensor(np.zeros((1, 3, h, w), np.float32))
            _, scale, pads = letterbox(img)
            x1, y1 = rng.uniform(0, w * 0.5), rng.uniform(0, h * 0.5)
            x2 = rng.uniform(x1 + 1, w)
            y2 = rng.uniform(y1 + 1, h)
            boxed = (x1 * scale + pads[0], y1 * scale + pads[1],
                     x2 * scale + pads[0], y2 * scale + pads[1])
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
