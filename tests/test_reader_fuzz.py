"""Fuzzers for the binary readers: `.tlaw` weights, `.tns` tensors and the
PPM header.

Each example starts from a small well-formed file and truncates it,
overwrites a few of its bytes, or rewrites an entry's dims with arbitrary
u32 values; the PPM fuzzer also builds headers from a small alphabet of
digits, signs, whitespace and comment marks. Whatever the input, the only
exception that may escape is a `YoloTlaError`, and a file the reader
accepts is written back byte for byte by its writer.
"""
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yolotla.data import load_image
from yolotla.errors import ParseError, YoloTlaError
from yolotla.graph import load_weights, save_weights
from yolotla.tensor import Tensor, load_tns, save_tns

FUZZ = settings(max_examples=200)


def test_profile_is_deterministic():
    """tests/conftest.py's profile is the default for every test here."""
    current = settings()
    assert current.derandomize and current.database is None
    assert current.deadline is None


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("reader-fuzz")


@pytest.fixture(scope="module")
def toy_tlaw(folder):
    path = folder / "toy.tlaw"
    save_weights(path, {
        "a.conv.weight": np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2),
        "a.norm.scale": np.array([1.0, np.nan], np.float32),
        "b.bias": np.array([-0.0, np.inf, 3.5], np.float32)})
    return path.read_bytes()


@pytest.fixture(scope="module")
def toy_tns(folder):
    path = folder / "toy.tns"
    save_tns(Tensor(np.linspace(0, 1, 24, dtype=np.float32)
                    .reshape(1, 3, 2, 4)), path)
    return path.read_bytes()


def dims_offsets(blob: bytes) -> list[int]:
    """Byte offset of each entry's dims in a well-formed `.tlaw` blob."""
    (count,) = struct.unpack_from("<I", blob, 5)
    off, out = 9, []
    for _ in range(count):
        (plen,) = struct.unpack_from("<I", blob, off)
        off += 4 + plen
        out.append(off)
        off += 16 + 4 * int(np.prod(struct.unpack_from("<4I", blob, off)))
    return out


@st.composite
def damaged(draw, blob: bytes, dims_at: list[int] = ()):
    """``blob`` truncated, with up to four bytes overwritten, with one
    entry's dims replaced, or with bytes appended."""
    how = draw(st.sampled_from(["truncate", "overwrite", "dims", "append"]
                               if dims_at else
                               ["truncate", "overwrite", "append"]))
    if how == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if how == "append":
        return blob + draw(st.binary(min_size=1, max_size=12))
    out = bytearray(blob)
    if how == "dims":
        off = draw(st.sampled_from(dims_at))
        dims = draw(st.lists(st.integers(0, 2 ** 32 - 1)
                             | st.integers(0, 4), min_size=4, max_size=4))
        out[off:off + 16] = struct.pack("<4I", *dims)
        return bytes(out)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@FUZZ
@given(data=st.data())
def test_weight_reader_refuses_or_round_trips(folder, toy_tlaw, data):
    blob = data.draw(damaged(toy_tlaw, dims_offsets(toy_tlaw)))
    path = folder / "fuzz.tlaw"
    path.write_bytes(blob)
    try:
        params = load_weights(path)
    except YoloTlaError:
        return
    assert all(a.dtype == np.float32 and a.ndim == 4 and a.flags.writeable
               and a.flags.aligned for a in params.values())
    again = folder / "again.tlaw"
    save_weights(again, params)
    assert again.read_bytes() == blob


@pytest.mark.parametrize("names", [["w", "w"], ["b", "a"]])
def test_weight_reader_refuses_names_out_of_order(folder, names):
    entry = struct.pack("<4I", 1, 1, 1, 1) + bytes(4)
    blob = b"TLAW\x01" + struct.pack("<I", len(names)) + b"".join(
        struct.pack("<I", len(n)) + n.encode() + entry for n in names)
    path = folder / "order.tlaw"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=f"{names[1]} out of order"):
        load_weights(path)


@FUZZ
@given(data=st.data())
def test_tensor_reader_refuses_or_round_trips(folder, toy_tns, data):
    blob = data.draw(damaged(toy_tns, [4]))
    path = folder / "fuzz.tns"
    path.write_bytes(blob)
    try:
        t = load_tns(path)
    except YoloTlaError:
        return
    again = folder / "again.tns"
    save_tns(t, again)
    assert again.read_bytes() == blob
    try:
        load_image(path)
    except YoloTlaError:
        pass


HEADER_BYTES = st.sampled_from(list(b"0123456789+-_ \t\n\r#xP6"))


@st.composite
def ppm_files(draw):
    """A P6 file whose header fields are drawn, so that half of them are
    small valid numbers, followed by a short payload."""
    if draw(st.booleans()):
        w, h = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
        maxval = draw(st.sampled_from([b"255", b"0", b"65535", b"9" * 5000]))
        sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# c\n", b"#"]))
        head = sep.join([b"P6", b"%d" % w, b"%d" % h, maxval]) + b"\n"
    else:
        head = b"P6" + bytes(draw(st.lists(HEADER_BYTES, max_size=24)))
    return head + draw(st.binary(max_size=40))


@FUZZ
@given(blob=ppm_files())
@example(blob=b"P6 1 1 255\n\x00\x80\xff")
@example(blob=b"P6 99999999999 99999999999 255\n")
def test_ppm_reader_refuses_or_reads(folder, blob):
    path = folder / "fuzz.ppm"
    path.write_bytes(blob)
    try:
        t = load_image(path)
    except YoloTlaError:
        return
    assert t.n == 1 and t.c == 3
    assert float(t.data.min()) >= 0.0 and float(t.data.max()) <= 1.0
