"""Source hygiene checked with the standard library's ast, so no linter is needed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mpnflow").glob("*.py"))
# the package and the benchmark, which drives it from outside; tests do not count
READERS = {p: p.read_text() for p in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))}


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


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module an import-from reads from: "x" for `from .x` or
    `from mpnflow.x`, "" for `from .` or `from mpnflow`, None outside the package."""
    name = node.module or ""
    if not node.level:
        if name != "mpnflow" and not name.startswith("mpnflow."):
            return None
        name = name.removeprefix("mpnflow").lstrip(".")
    return name.split(".")[0]


def reads_through(module: str, source: str) -> set[str]:
    """Names of the package module that another file reads: a name it
    imported from the module, or an attribute of the module, bound as
    `from . import module as m`, `import mpnflow.module as m` or spelled
    `mpnflow.module`.  A read of the same spelling reaching anything else
    (a local, another module's name) does not count."""
    nodes = list(ast.walk(ast.parse(source)))
    loaded = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imported, handles = set(), set()
    for n in nodes:
        if isinstance(n, ast.ImportFrom) and _package_module(n) == module:
            imported |= {a.name for a in n.names if (a.asname or a.name) in loaded}
        elif isinstance(n, ast.ImportFrom) and _package_module(n) == "":
            handles |= {a.asname or a.name for a in n.names if a.name == module}
        elif isinstance(n, ast.Import):
            handles |= {a.asname for a in n.names if a.asname and a.name == f"mpnflow.{module}"}
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
             and (isinstance(n.value, ast.Name) and n.value.id in handles
                  or ast.unparse(n.value) == f"mpnflow.{module}")}
    return imported | attrs


def unread_public_names(module: str, source: str, others: list[str]) -> list[str]:
    """Module-level public functions, classes and assigned names of the
    package module that neither its own source reads by name nor any of the
    other files reads through the module."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read = read.union(*(reads_through(module, other) for other in others))
    bound = []
    for node in tree.body:
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
    reader = "from .mod import Kept, used\nfrom . import mod\n\nused(mod.TABLE, mod.A, Kept)\n"
    assert unread_public_names("mod", source, [reader]) == ["B (line 3)", "orphan (line 9)"]
    # every spelling of a read through the module counts
    for other in ["from mpnflow.mod import orphan as o\no()\n",
                  "import mpnflow.mod as m\nm.orphan()\n",
                  "import mpnflow.mod\nmpnflow.mod.orphan()\n",
                  "from mpnflow import mod\nmod.orphan\n"]:
        assert unread_public_names("mod", source, [reader, other]) == ["B (line 3)"], other
    # an import alone is not a read, and neither is the same spelling reaching
    # a local, another module's name or another object's attribute
    for other in ["from .mod import orphan\n",
                  "def f(orphan):\n    return orphan\n",
                  "from .other import orphan\norphan()\n",
                  "from . import other\nother.orphan()\n",
                  "x.orphan()\n"]:
        assert "orphan (line 9)" in unread_public_names("mod", source, [reader, other]), other


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_level_public_name_unread_by_the_package_or_benchmark(path):
    others = [text for p, text in READERS.items() if p != path]
    assert unread_public_names(path.stem, READERS[path], others) == []


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


CACHES = ("lru_cache", "cache")


def hidden_caches(source: str) -> list[str]:
    """Uses of functools.lru_cache or functools.cache: an import of either
    name from functools, or an attribute read through a name bound to the
    functools module under any alias."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"from functools import {a.name} (line {node.lineno})")
                      for a in node.names if a.name in CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in CACHES \
                and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.append((node.lineno, f"{ast.unparse(node)} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_hidden_cache_check_finds_a_cache():
    source = ("import functools\nimport functools as ft\n"
              "from functools import cache as memo, reduce\n\n"
              "@functools.lru_cache(maxsize=None)\ndef f(n):\n    return n\n\n"
              "g = ft.cache(f)\nh = functools.reduce(max, [1, 2])\nother.cache(f)\n")
    assert hidden_caches(source) == ["from functools import cache (line 3)",
                                     "functools.lru_cache (line 5)", "ft.cache (line 9)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_hidden_cache_in_the_package(path):
    # state that outlives a call is held by an object its caller owns, such
    # as the per-pass tensorkit.ConvGrid, never by a module-level memo
    assert hidden_caches(path.read_text()) == []


def package_imports(source: str) -> list[str]:
    """Modules of the mpnflow package that the source imports, by relative
    or absolute name, anywhere in the file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _package_module(node) is not None:
            inner = _package_module(node)
            found += [inner] if inner else [a.name for a in node.names]
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


def imported_names(source: str) -> list[str]:
    """Names that the source imports from modules of the mpnflow package,
    by relative or absolute name, anywhere in the file."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and _package_module(node) is not None
            for a in node.names]


def test_imported_name_check_finds_every_spelling():
    source = ("from .synthdata import Box, Detection\nfrom numpy import array\n\n"
              "def f():\n    from mpnflow.synthdata import Scenario\n")
    assert imported_names(source) == ["Box", "Detection", "Scenario"]


@pytest.mark.parametrize("module", ["mpn", "train", "tensorkit"])
def test_model_and_training_code_never_sees_a_detection(module):
    # a window reaches them as a graph.NodeTable, built once per sequence
    source = (ROOT / "src" / "mpnflow" / f"{module}.py").read_text()
    assert "Detection" not in imported_names(source)


def test_inference_never_runs_a_whole_forward():
    # each window propagates from its rows of one union encoding; a per-window
    # mpn_forward would encode every node and edge again in every window
    source = (ROOT / "src" / "mpnflow" / "infer.py").read_text()
    attributes = [n.attr for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)]
    assert "mpn_forward" not in imported_names(source) + attributes


RANGE_PHRASES = ("must be >=", "must be in [", "must be in (")


def _literal_text(node: ast.expr) -> str:
    """The literal text of a string expression, {} for each formatted field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_literal_text(v) if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _literal_text(node.left) + _literal_text(node.right)
    return ""


def range_messages(source: str) -> list[str]:
    """Raises of ConfigError, bare or through a module, whose literal message
    spells a range rule that errors.check_at_least or errors.check_in owns."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        func = node.exc.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name != "ConfigError":
            continue
        text = "".join(map(_literal_text, node.exc.args))
        if any(phrase in text for phrase in RANGE_PHRASES):
            found.append((node.lineno, f"{text} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_range_message_check_finds_a_spelled_out_range():
    source = ("if k < 1:\n    raise ConfigError(f\"top_k must be >= 1, got {k}\")\n"
              "if not 0 < t < 1:\n    raise errors.ConfigError(\"tau must be in (0, 1), \"\n"
              "                             f\"got {t}\")\n"
              "raise ConfigError(\"p must be in \" + \"[0, 1]\")\n"
              "raise ConfigError(f\"threads must be 1, got {n}\")\n"
              "raise ParseError(\"frame must be >= 0\")\n"
              "raise ValueError(\"x must be in [0, 1]\")\n")
    assert range_messages(source) == ["top_k must be >= 1, got {} (line 2)",
                                      "tau must be in (0, 1), got {} (line 4)",
                                      "p must be in [0, 1] (line 6)"]


NOT_ERRORS = [p for p in SOURCES if p.name != "errors.py"]


@pytest.mark.parametrize("path", NOT_ERRORS, ids=[p.name for p in NOT_ERRORS])
def test_range_rules_are_spelled_only_in_errors(path):
    # every "must be >= k" and "must be in [a, b)" check calls the errors helpers
    assert range_messages(path.read_text()) == []


ROI_SIZE = ("roi_h", "roi_w")


def roi_size_reads(source: str) -> list[str]:
    """Reads of an attribute named roi_h or roi_w, dotted or through getattr
    with a literal name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ROI_SIZE \
                and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, f"{ast.unparse(node)} (line {node.lineno})"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr" \
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant) \
                and node.args[1].value in ROI_SIZE:
            found.append((node.lineno, f"{ast.unparse(node)} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_roi_size_read_check_finds_every_spelling():
    source = ("h = cfg.roi_h\nself.roi_w = 4\nw = getattr(config, 'roi_w')\n"
              "keys = ('roi_h', 'roi_w')\nshape = (params.config.roi_h, 8)\n")
    assert roi_size_reads(source) == ["cfg.roi_h (line 1)", "getattr(config, 'roi_w') (line 3)",
                                      "params.config.roi_h (line 5)"]


NOT_SYNTHDATA = [p for p in SOURCES if p.name != "synthdata.py"]


@pytest.mark.parametrize("path", NOT_SYNTHDATA, ids=[p.name for p in NOT_SYNTHDATA])
def test_only_synthdata_reads_a_roi_grid_size(path):
    # synthdata renders the grids at its config's size; every other module
    # reads the size from the grids themselves
    assert roi_size_reads(path.read_text()) == []
