"""Exception types raised across the package, the one type test that
config readers share, and the one reader and the one writer of every file.

Every error message names the offending thing (dimension, field, parameter
path) so failures in larger pipelines stay diagnosable.
"""
import os
import stat
from contextlib import contextmanager


class YoloTlaError(Exception):
    """Base class for all package errors."""


class ShapeError(YoloTlaError):
    """A tensor or weight has an incompatible dimension."""


class ConfigError(YoloTlaError):
    """A model configuration or operation argument is invalid."""


class ParseError(YoloTlaError):
    """A file (config, dataset, image, weights) could not be parsed."""


class WeightError(YoloTlaError):
    """A parameter is missing, unexpected, or mis-shaped."""


def is_instance(value, *types: type) -> bool:
    """`isinstance(value, types)`, except that a bool passes only where bool
    is named: a JSON `true` is never a count, a width or an index."""
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types)


@contextmanager
def reading(path, what: str):
    """Yield the file at `path` opened "rb". Every OSError in the block, the
    open's or a later read's, ends as one ParseError naming `what`."""
    try:   # fspath: an int would name an open descriptor
        with open(os.fspath(path), "rb") as fh:
            yield fh
    except OSError as e:
        raise ParseError(f"cannot read {what} {path}: {e.strerror or e}") from e


@contextmanager
def writing(path):
    """Yield a binary file whose bytes land at `path` whole or not at all:
    a new file beside the target (a symlink's target; the link stays)
    replaces it when the block ends cleanly and is removed on any exception.
    An existing target that is not a regular file (a FIFO, a device) is
    written in place. Every OSError, the block's own included, ends as one
    ConfigError, so a bad path fails on entry, before the block's work."""
    try:
        try:   # stat follows links, /dev/stdout's included
            in_place = not stat.S_ISREG(os.stat(path).st_mode)
        except FileNotFoundError:
            in_place = False
        if in_place:
            with open(path, "wb") as fh:
                yield fh
            return
        target = os.path.realpath(path)
        temp = f"{target}.{os.urandom(8).hex()}.tmp"
        fh = open(temp, "xb")   # a new file's permission bits, unlike mkstemp
        try:
            with fh:
                yield fh
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e
