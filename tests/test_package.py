"""Guards over the package source as a whole."""
import ast
from pathlib import Path

import yolotla

SRC = Path(yolotla.__file__).parent


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_unittest():
    # the package checks itself through explicit oracles; a patch of a
    # module attribute at run time would reach every thread in the process
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "cli.py" in paths
    offenders = [f"{path.relative_to(SRC)}: {name}"
                 for path in paths
                 for name in imported_modules(ast.parse(path.read_text(), str(path)))
                 if name == "unittest" or name.startswith("unittest.")]
    assert offenders == []
