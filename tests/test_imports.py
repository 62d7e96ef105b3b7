"""Every name a library module imports is used in that module, and
importing the library generates no code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sympow

MODULES = sorted(
    p for p in Path(sympow.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "import json\nfrom .rings import Ring, Monomial\nx = Ring\n"
    assert unused_imports(source) == [(1, "json"), (2, "Monomial")]


def test_import_loads_no_code_generation():
    # the value records are slotted classes: nothing pulls in dataclasses or inspect
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(sympow.__file__).parent.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    code = "import sys, sympow, sympow.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
