"""Package layering: modules use only each other's public names, and the CLI
leaves error typing to the library."""

import ast
from pathlib import Path

import pytest

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
    # maps errors to exit codes only in main. The one ValueError it catches
    # is int() on the COVERT_DECODE_SEED environment variable.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    (resolve_seed,) = [node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef) and node.name == "_resolve_seed"]
    allowed = _value_error_handlers(resolve_seed)
    assert len(allowed) == 1
    assert [line for line in _value_error_handlers(tree) if line not in allowed] == []
