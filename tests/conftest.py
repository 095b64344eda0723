"""One hypothesis profile for every test in this folder, the package
imported from the checkout's `src/`, and a file whose reads fail.

Examples are drawn from a fixed seed derived from each test, with no
example database and no per-example deadline, so a run does not depend
on earlier runs or on the host's speed. A test states only its
`max_examples`.
"""
import errno
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


class _FailingReads:
    """An open file whose reads fail with EIO, as a bad sector's would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):   # fileno, tell
        return getattr(self.fh, name)

    def read(self, *args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    readinto = read


@pytest.fixture
def fail_reads_of(monkeypatch):
    """Call it with a path: every later read of that file fails after the
    file has opened. The package's one reader opens files through
    `errors.open`."""
    from yolotla import errors

    def arm(path):
        def patched(name, mode):
            fh = open(name, mode)
            return _FailingReads(fh) if name == os.fspath(path) else fh
        monkeypatch.setattr(errors, "open", patched, raising=False)
    return arm
