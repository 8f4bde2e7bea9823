"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import rdomsim

PACKAGE = Path(rdomsim.__file__).resolve().parent


def _imported_packages(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_stdlib_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = {(path.name, name)
               for path in modules
               for name in _imported_packages(path)
               if name != "rdomsim" and name not in sys.stdlib_module_names}
    assert not foreign
