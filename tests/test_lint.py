"""Source hygiene checked with the standard library's ast, so no linter is needed."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mpnflow").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def unread_private_names(source: str) -> list[str]:
    """Module-level functions and classes named with a leading underscore
    that the module never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{node.name} (line {node.lineno})" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and node.name not in read]


def test_unused_import_check_finds_a_leftover():
    source = "import os\nfrom dataclasses import asdict, dataclass\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["os (line 1)", "asdict (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.zeros(1)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unread_private_name_check_finds_an_orphan():
    source = ("def _orphan():\n    pass\n\ndef _helper():\n    return 1\n\n"
              "class _Base:\n    pass\n\nclass A(_Base):\n    x = _helper()\n\n"
              "def public():\n    pass\n")
    assert unread_private_names(source) == ["_orphan (line 1)"]
    # a name only assigned to is not read
    assert unread_private_names("def _f():\n    pass\n\n_f = None\n") == ["_f (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unread_module_level_private_functions_or_classes(path):
    assert unread_private_names(path.read_text()) == []
