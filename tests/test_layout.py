"""Package layering: modules use only each other's public names, the CLI
leaves error typing to the library, only fileio's publisher writes files and
only its opener opens them for reading, only network.init_params draws
initial weights, and every exported name and every option of an exported
function has a caller outside tests."""

import ast
import inspect
from pathlib import Path

import pytest

import covert_decode

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "covert_decode"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_from_sibling_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _value_error_handlers(node):
    return [
        handler.lineno
        for handler in ast.walk(node)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        and any(isinstance(n, ast.Name) and n.id == "ValueError" for n in ast.walk(handler.type))
    ]


def test_cli_does_not_translate_value_errors():
    # the library raises ConfigError or DataError where it checks; the CLI
    # maps errors to exit codes only in main, and parses no value itself
    assert _value_error_handlers(ast.parse((PACKAGE / "cli.py").read_text())) == []


WRITE_MODE = set("wax+")


def _file_writes(tree):
    """(line, what) for each way ``tree`` writes to the file system by itself:
    a write-mode ``open``, ``write_text``, ``write_bytes``, ``mkdir`` or
    ``makedirs``, and any import of ``csv``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import csv") for a in node.names if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append((node.lineno, "from csv import"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
                found.append((node.lineno, name))
            elif name == "open":
                # open(path, mode) or path.open(mode)
                args = node.args[1:] if isinstance(func, ast.Name) else node.args
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            args[0] if args else None)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and not WRITE_MODE & set(mode.value)):
                    found.append((node.lineno, "open for writing"))
    return found


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "fileio.py"}),
                         ids=lambda p: p.name)
def test_only_fileio_writes_files(path):
    # how a file reaches disk is decided once, in fileio's publisher
    assert _file_writes(ast.parse(path.read_text(), filename=str(path))) == []


def test_fileio_writes_only_through_its_publisher():
    tree = ast.parse((PACKAGE / "fileio.py").read_text())
    (publish,) = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_publish"]
    inside = _file_writes(publish)
    assert sorted(what for _, what in inside) == ["mkdir", "open for writing"]
    outside = [what for line, what in _file_writes(tree) if (line, what) not in inside]
    assert outside == ["import csv"]


def _file_reads(tree):
    """(line, what) for each call in ``tree`` that opens or reads a file by
    itself: ``open``, or an ``open``, ``read_text`` or ``read_bytes`` method
    of anything but ``fileio``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append((node.lineno, "open"))
            elif (isinstance(func, ast.Attribute)
                  and func.attr in ("open", "read_text", "read_bytes")
                  and not (isinstance(func.value, ast.Name) and func.value.id == "fileio")):
                found.append((node.lineno, func.attr))
    return found


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "fileio.py"}),
                         ids=lambda p: p.name)
def test_only_fileio_reads_files(path):
    # what an unreadable input means is decided once, in fileio's opener
    assert _file_reads(ast.parse(path.read_text(), filename=str(path))) == []


def test_fileio_reads_only_through_its_opener():
    tree = ast.parse((PACKAGE / "fileio.py").read_text())
    opens = {node.name: [what for _, what in _file_reads(node)] for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and _file_reads(node)}
    # the publisher's open is for writing (test_fileio_writes_only_through_its_publisher)
    assert opens == {"_open": ["open"], "_publish": ["open"]}


def test_cli_main_catches_only_package_errors():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    (main,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    handlers = [ast.unparse(node.type) for node in ast.walk(main)
                if isinstance(node, ast.ExceptHandler)]
    assert handlers == ["CovertDecodeError"]


WEIGHT_DRAWS = ("uniform", "qr", "_orthogonal")


def _weight_draws(path):
    """The top-level functions and classes of ``path`` that call ``uniform``,
    ``qr`` or ``_orthogonal``."""
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in WEIGHT_DRAWS:
                    found.add(getattr(top, "name", "<module>"))
    return found


def test_only_init_params_draws_weights():
    # every layer, the checkpoint loader and the re-drawn transfer head get
    # their initial weights from one place; synth draws signals, not weights
    draws = {path.name: _weight_draws(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "synth.py"}
    assert {name: found for name, found in draws.items() if found} == {
        "network.py": {"init_params"}}


def test_fileio_does_not_build_models():
    # a checkpoint's arrays come from the file, never from a drawn model
    tree = ast.parse((PACKAGE / "fileio.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"build_model", "init_params"}


REPO = PACKAGE.parent.parent


def _referenced_names(path):
    """Every name ``path`` imports, reads as a bare name or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    # a public name that only tests call is code kept for the tests alone
    exports = {alias.name: PACKAGE / f"{node.module}.py"
               for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names}
    assert set(covert_decode.__all__) == set(exports)
    callers = {path: _referenced_names(path)
               for path in [*PACKAGE.glob("*.py"), *(REPO / "demos").glob("*.py"),
                            *(REPO / "perfbench").glob("*.py")]
               if path != PACKAGE / "__init__.py"}
    unused = [name for name, home in sorted(exports.items())
              if not any(name in names for path, names in callers.items() if path != home)]
    assert unused == []


# defaulted parameters that only tests pass, each with its reason
TEST_ONLY_OPTIONS = {
    ("build_model", "dtype"): "the float64 gradcheck reference builds its models in float64",
}


def _passed_parameters(call, signature):
    """The parameters of ``signature`` that ``call`` passes; a ``*args`` or
    ``**kwargs`` argument counts as passing every parameter it could reach."""
    positional = [p.name for p in signature.parameters.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        passed = set(positional)
    else:
        passed = set(positional[: len(call.args)])
    for keyword in call.keywords:
        passed |= set(signature.parameters) if keyword.arg is None else {keyword.arg}
    return passed


def test_every_option_has_a_caller():
    # a default that every caller keeps is a constant with a parameter's cost
    signatures = {name: inspect.signature(getattr(covert_decode, name))
                  for name in covert_decode.__all__
                  if inspect.isfunction(getattr(covert_decode, name))}
    passed = {name: set() for name in signatures}
    for path in [*PACKAGE.glob("*.py"), *(REPO / "demos").glob("*.py"),
                 *(REPO / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in signatures:
                    passed[name] |= _passed_parameters(node, signatures[name])
    unpassed = {(name, param.name) for name, signature in signatures.items()
                for param in signature.parameters.values()
                if param.default is not param.empty and param.name not in passed[name]}
    assert unpassed == set(TEST_ONLY_OPTIONS)
