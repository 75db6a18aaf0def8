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


def test_unused_import_check_finds_a_leftover():
    source = "import os\nfrom dataclasses import asdict, dataclass\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["os (line 1)", "asdict (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.zeros(1)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
