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


# the inference stages after load; `Model.infer` runs them for every caller
INFER_STAGE_FUNCTIONS = {"letterbox", "decode", "nms", "unletterbox_box"}


def calls_an_infer_stage(call: ast.Call) -> bool:
    # a bare name: `bytes.decode` is an attribute call and no stage
    return getattr(call.func, "id", None) in INFER_STAGE_FUNCTIONS


def test_only_model_infer_runs_the_infer_stages():
    # a change to the stages after load has one home, not one per caller
    assert package_calling_scopes(calls_an_infer_stage) == {"graph.Model.infer"}


# definitions that no code in the package names, each with why it stays
UNREFERENCED = {
    "metrics.match_image": "the acceptance tests match one image with it",
    "graph.Model.head_shapes": "perfbench reads the head map shapes with it",
    "postprocess.to_coco_results": "perfbench writes its results rows with it",
    "graph.Model.save_weight_file": "README's way to write a .tlaw file",
    "postprocess.nms_reference": "the oracle the NMS tests compare with",
    "anchors.iou_wh": "the oracle the anchor distance tests compare with",
    "cli._Parser.error": "argparse calls this override by name",
}


def definitions(tree, module):
    """(qualified name, name) of each top-level function and class and of
    each method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, defs))


def test_every_definition_is_reached():
    # src/ holds only what the package itself or its public API reaches;
    # Python calls the dunder methods
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in SRC.rglob("*.py")}
    named = set(yolotla.__all__) | {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))}
    unreached = {qualified for module, tree in trees.items()
                 for qualified, name in definitions(tree, module)
                 if name not in named
                 and not (name.startswith("__") and name.endswith("__"))}
    assert unreached == set(UNREFERENCED)
