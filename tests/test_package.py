"""Guards over the package source as a whole."""
import argparse
import ast
import subprocess
import sys
from pathlib import Path

import yolotla
from yolotla import cli

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


def name_and_mode(call: ast.Call):
    """The called name and the `mode` argument (None if not written out)."""
    func = call.func
    name = (func.attr if isinstance(func, ast.Attribute)
            else getattr(func, "id", None))
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[1] if len(call.args) > 1 else None)
    return name, mode


def opens_for_reading(call: ast.Call) -> bool:
    """`open` with a read mode (or none written out), `read_bytes` or
    `read_text`."""
    name, mode = name_and_mode(call)
    if name in ("read_bytes", "read_text"):
        return True
    writes = (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
              and not {"r", "+"} & set(mode.value))
    return name == "open" and not writes


def calling_scopes(tree, scope, matches, kind=ast.Call):
    """The qualified name (module.function) of each function holding a
    node of ``kind`` (by default a call) that ``matches``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, kind) and matches(node):
            yield scope
        named = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from calling_scopes(
            node, f"{scope}.{node.name}" if named else scope, matches, kind)


def package_calling_scopes(matches, kind=ast.Call) -> set[str]:
    return {name for path in SRC.rglob("*.py")
            for name in calling_scopes(ast.parse(path.read_text(), str(path)),
                                       path.stem, matches, kind)}


def calls_reading(call: ast.Call) -> bool:
    return name_and_mode(call)[0] == "reading"


def test_only_the_fuzzed_readers_read_files():
    # every input byte enters through one reader, `errors.reading`, and
    # only the readers whose refusals are fuzzed call it
    assert package_calling_scopes(opens_for_reading) == {"errors.reading"}
    assert package_calling_scopes(calls_reading) == FUZZED_READERS


def opens_for_writing(call: ast.Call) -> bool:
    """`open` with a mode that writes (or one not written as a constant),
    `write_bytes` or `write_text`."""
    name, mode = name_and_mode(call)
    if name in ("write_bytes", "write_text"):
        return True
    reads = mode is None or (isinstance(mode, ast.Constant)
                             and isinstance(mode.value, str)
                             and not set("wax+") & set(mode.value))
    return name == "open" and not reads


def test_only_errors_writing_writes_files():
    # every output file is written whole or not at all by one writer; the
    # other site sends stdout to /dev/null once a reader has left
    assert package_calling_scopes(opens_for_writing) == {"errors.writing",
                                                         "cli.main"}


def prints_to_stdout(call: ast.Call) -> bool:
    """`print` without a `file=` keyword."""
    return (getattr(call.func, "id", None) == "print"
            and all(kw.arg != "file" for kw in call.keywords))


def writes_sys_stdout(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "write"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "stdout"
            and getattr(func.value.value, "id", None) == "sys")


def test_only_main_writes_stdout():
    # one stdout policy: each subcommand returns its report, and `main`
    # prints one document, JSON with --json and text otherwise
    assert package_calling_scopes(prints_to_stdout) == {"cli.main"}
    assert package_calling_scopes(writes_sys_stdout) == set()
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert {name: [option for action in parser._actions
                   for option in action.option_strings].count("--json")
            for name, parser in commands.items()} == dict.fromkeys(
        ["analyze", "anchors", "infer", "eval", "oracle-check", "configs"], 1)


def calls_numpy(name: str):
    """A matcher of calls to ``np.<name>``."""
    def matches(call: ast.Call) -> bool:
        func = call.func
        return (isinstance(func, ast.Attribute) and func.attr == name
                and getattr(func.value, "id", None) in ("np", "numpy"))
    return matches


def test_only_tensor_padded_pads():
    # conv, max pool and letterbox borders come from one helper, each with
    # its fill
    assert package_calling_scopes(calls_numpy("pad")) == {"tensor._padded"}


def calls_json_load(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
            and getattr(func.value, "id", None) == "json")


def test_only_data_read_json_parses_json():
    # configs, annotations and results all meet its one root-type rule
    assert package_calling_scopes(calls_json_load) == {"data.read_json"}


def test_only_tensor_logistic_calls_exp():
    # sigmoid, silu and sigmoid64 share one logistic and its overflow rule
    assert package_calling_scopes(calls_numpy("exp")) == {"tensor._logistic"}


def test_only_conv2d_hands_work_to_the_pool():
    # the worker pool serves conv bands alone; every other kernel is one
    # pass on the caller
    def calls_run_items(call: ast.Call) -> bool:
        return getattr(call.func, "id", None) == "_run_items"
    assert package_calling_scopes(calls_run_items) == {"tensor.conv2d"}


def names_ctypes(node: ast.AST) -> bool:
    """An import of ctypes, the name `ctypes`, or an array's `.ctypes`."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = ([alias.name for alias in node.names]
                   if isinstance(node, ast.Import) else [node.module or ""])
        return any(m.partition(".")[0] == "ctypes" for m in modules)
    return (getattr(node, "id", None) == "ctypes"
            or getattr(node, "attr", None) == "ctypes")


def test_only_tensor_one_blas_thread_makes_foreign_calls():
    # one home for calls into C: the pin that sets numpy's BLAS to one
    # thread
    assert package_calling_scopes(names_ctypes, ast.AST) == {
        "tensor._one_blas_thread"}


# the inference stages after load; `Model.infer` runs them for every caller
INFER_STAGE_FUNCTIONS = {"letterbox", "decode", "nms", "unletterbox_box"}


def calls_an_infer_stage(call: ast.Call) -> bool:
    # a bare name: `bytes.decode` is an attribute call and no stage
    return getattr(call.func, "id", None) in INFER_STAGE_FUNCTIONS


def test_only_model_infer_runs_the_infer_stages():
    # a change to the stages after load has one home, not one per caller
    assert package_calling_scopes(calls_an_infer_stage) == {"graph.Model.infer"}


# Build and analyze every bundled config in a fresh interpreter; argv[1]
# is the package's parent. Prints the threads alive and which of the
# conv pool's modules were imported.
IDLE_PROBE = """
import sys, threading
sys.path.insert(0, sys.argv[1])
from yolotla import analyze, build_model, bundled_config_names, find_config
for name in bundled_config_names():
    analyze(build_model(find_config(name)), (640, 640))
print([t.name for t in threading.enumerate()],
      sorted({"concurrent.futures", "queue"} & set(sys.modules)))
"""


def test_build_and_analyze_start_no_thread():
    # shape-only forwards never split, so `reports` and every set-up
    # neither start the pool nor import its modules
    done = subprocess.run([sys.executable, "-c", IDLE_PROBE, str(SRC.parent)],
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout) == (0, "['MainThread'] []\n"), \
        done.stderr


# definitions that no code in the package names, each with why it stays
UNREFERENCED = {
    "metrics.match_image": "the acceptance tests match one image with it",
    "graph.Model.head_shapes": "perfbench reads the head map shapes with it",
    "postprocess.to_coco_results": "perfbench writes its results rows with it",
    "graph.Model.save_weight_file": "README's way to write a .tlaw file",
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


def names_used(tree):
    """Every name and attribute the module reads, less the attributes of
    modules it imports whole, so `np.zeros` marks no method `zeros` as
    used."""
    modules = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if getattr(root, "id", None) not in modules:
                yield node.attr


def test_every_definition_is_reached():
    # src/ holds only what the package itself or its public API reaches;
    # Python calls the dunder methods
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in SRC.rglob("*.py")}
    named = set(yolotla.__all__).union(*map(names_used, trees.values()))
    unreached = {qualified for module, tree in trees.items()
                 for qualified, name in definitions(tree, module)
                 if name not in named
                 and not (name.startswith("__") and name.endswith("__"))}
    assert unreached == set(UNREFERENCED)
