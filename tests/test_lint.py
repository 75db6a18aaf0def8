"""Source hygiene checked with the standard library's ast, so no linter is needed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mpnflow").glob("*.py"))
# the package and the benchmark, which drives it from outside; tests do not count
READERS = [p.read_text() for p in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))]


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


def read_names(source: str) -> set[str]:
    """Names the source reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)
               and isinstance(n.ctx, ast.Load)})


def unread_public_names(source: str, readers: list[str]) -> list[str]:
    """Module-level public functions, classes and assigned names in the
    source that none of the readers reads; list the source among the
    readers for its own reads to count."""
    read = set().union(*map(read_names, readers))
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [f"{name} (line {line})" for name, line in bound
            if not name.startswith("_") and name not in read]


def test_unread_public_name_check_finds_an_orphan():
    source = ("LIMIT = 3\nTABLE: dict = {}\nA, B = 1, 2\n_hidden = 4\n\n"
              "def used():\n    return LIMIT\n\ndef orphan():\n    pass\n\n"
              "class Kept:\n    pass\n")
    reader = "from mod import Kept, used\nimport mod\n\nused(mod.TABLE, mod.A, Kept)\n"
    assert unread_public_names(source, [source, reader]) == ["B (line 3)", "orphan (line 9)"]
    # a module's own reads count only when it is among the readers
    assert unread_public_names(source, [reader]) == ["LIMIT (line 1)", "B (line 3)",
                                                     "orphan (line 9)"]
    # an import alone is not a read
    assert "orphan (line 9)" in unread_public_names(source, ["from mod import orphan\n"])


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_level_public_name_unread_by_the_package_or_benchmark(path):
    assert unread_public_names(path.read_text(), READERS) == []


def scatter_adds(source: str) -> list[str]:
    """Reads of add.at, the unbuffered scatter-add, as np.add.at,
    numpy.add.at or a bare imported add.at."""
    found = [n for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Attribute) and n.attr == "at"
             and (isinstance(n.value, ast.Attribute) and n.value.attr == "add"
                  or isinstance(n.value, ast.Name) and n.value.id == "add")]
    return [f"{ast.unparse(n)} (line {n.lineno})" for n in sorted(found, key=lambda n: n.lineno)]


def test_scatter_add_check_finds_a_scatter():
    source = ("import numpy\nimport numpy as np\nfrom numpy import add\n\n"
              "np.add.at(out, idx, x)\nnp.maximum.at(m, idx, x)\n"
              "f = numpy.add.at\nadd.at(out, idx, x)\nnp.add.reduce(x)\n")
    assert scatter_adds(source) == ["np.add.at (line 5)", "numpy.add.at (line 7)",
                                    "add.at (line 8)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_scatter_add_in_the_package(path):
    # every sum by segment id goes through tensorkit.Segments
    assert scatter_adds(path.read_text()) == []


def package_imports(source: str) -> list[str]:
    """Modules of the mpnflow package that the source imports, by relative
    or absolute name, anywhere in the file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "mpnflow"
                                                 or node.module.startswith("mpnflow.")):
            inner = (node.module or "").removeprefix("mpnflow").lstrip(".")
            found += [inner.split(".")[0]] if inner else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            found += [a.name.split(".")[1] for a in node.names if a.name.startswith("mpnflow.")]
            found += ["mpnflow" for a in node.names if a.name == "mpnflow"]
    return found


def test_package_import_check_finds_every_spelling():
    source = ("import numpy as np\nfrom .errors import ShapeError\nfrom . import graph\n"
              "from .mpn import MpnState\nimport mpnflow.infer\nfrom mpnflow import train\n"
              "from mpnflow.synthdata import Detection\nimport mpnflow\n\n"
              "def f():\n    from .metrics import idf1\n")
    assert sorted(package_imports(source)) == sorted(
        ["errors", "graph", "mpn", "infer", "train", "synthdata", "mpnflow", "metrics"])


def test_tensorkit_imports_nothing_from_the_package_but_errors():
    source = (ROOT / "src" / "mpnflow" / "tensorkit.py").read_text()
    assert package_imports(source) == ["errors"]
