"""One hypothesis profile for every test in this folder, and the package
imported from the checkout's `src/`.

Examples are drawn from a fixed seed derived from each test, with no
example database and no per-example deadline, so a run does not depend
on earlier runs or on the host's speed. A test states only its
`max_examples`.
"""
import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
