"""The one reader, `errors.reading`, as each of the package's four readers
meets it: a path that cannot be opened and a read that fails after the
open both end in one `ParseError` that names what was read and where."""
import pytest

from yolotla.data import load_image
from yolotla.errors import ParseError
from yolotla.graph import load_weights, parse_config
from yolotla.tensor import load_tns

READERS = pytest.mark.parametrize("what, read, name", [
    ("config", parse_config, "x.cfg"),   # through data.read_json
    ("image", load_image, "x.ppm"),
    ("tensor", load_tns, "x.tns"),
    ("weights", load_weights, "x.tlaw"),
], ids=["config", "image", "tensor", "weights"])


@READERS
def test_a_read_that_fails_after_the_open_is_a_parse_error(
        what, read, name, tmp_path, fail_reads_of):
    path = tmp_path / name
    path.write_bytes(b"bytes that never arrive")
    fail_reads_of(path)
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == f"cannot read {what} {path}: Input/output error"


@READERS
@pytest.mark.parametrize("cause, strerror", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
])
def test_a_path_that_cannot_be_opened_is_a_parse_error(
        what, read, name, cause, strerror, tmp_path):
    path = tmp_path / name
    if cause == "directory":
        path.mkdir()
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == f"cannot read {what} {path}: {strerror}"
