"""The package's only runtime dependency is numpy; everything else it imports
comes from the standard library or from invlab itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "invlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "invlab"}


def imported_roots(path: Path) -> set[str]:
    """The top-level names of every absolute import in a module, wherever
    in the module it sits."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_invlab(path):
    assert imported_roots(path) - ALLOWED == set()


def test_foreign_import_is_caught(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os.path\nfrom . import x\ndef f():\n    from scipy import linalg\n")
    assert imported_roots(module) - ALLOWED == {"scipy"}
