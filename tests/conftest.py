"""One hypothesis profile for every test in this folder.

Examples are drawn from a fixed seed derived from each test, with no
example database and no per-example deadline, so a run does not depend
on earlier runs or on the host's speed. A test states only its
`max_examples`.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
