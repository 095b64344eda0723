"""Guards over the package source as a whole."""
import ast
import sys
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


def test_numpy_is_the_only_third_party_import():
    # pyproject.toml's dependencies list numpy alone
    top_level = {name.partition(".")[0]
                 for path in SRC.rglob("*.py")
                 for name in imported_modules(
                     ast.parse(path.read_text(), str(path)))}
    assert top_level - sys.stdlib_module_names == {"numpy"}


# the readers `tests/test_reader_fuzz.py` and `tests/test_coco_fuzz.py` fuzz
FUZZED_READERS = {"data.read_json", "data.load_image", "tensor.load_tns",
                  "graph.load_weights"}


def opens_for_reading(call: ast.Call) -> bool:
    """`open` with a read mode (or none written out), `read_bytes` or
    `read_text`."""
    func = call.func
    name = (func.attr if isinstance(func, ast.Attribute)
            else getattr(func, "id", None))
    if name in ("read_bytes", "read_text"):
        return True
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[1] if len(call.args) > 1 else None)
    writes = (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
              and not {"r", "+"} & set(mode.value))
    return name == "open" and not writes


def calling_scopes(tree, scope, matches):
    """The qualified name (module.function) of each function holding a call
    that ``matches``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and matches(node):
            yield scope
        named = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from calling_scopes(
            node, f"{scope}.{node.name}" if named else scope, matches)


def package_calling_scopes(matches) -> set[str]:
    return {name for path in SRC.rglob("*.py")
            for name in calling_scopes(ast.parse(path.read_text(), str(path)),
                                       path.stem, matches)}


def test_only_the_fuzzed_readers_read_files():
    # every input byte enters through a reader whose refusals are fuzzed
    assert package_calling_scopes(opens_for_reading) == FUZZED_READERS


def calls_np_pad(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "pad"
            and getattr(func.value, "id", None) in ("np", "numpy"))


def test_only_tensor_padded_pads():
    # conv and max pool borders come from one helper, each with its fill
    assert package_calling_scopes(calls_np_pad) == {"tensor._padded"}
