"""Every top-level import of an rkdlab module is used in that module, imports
sit at the top level, and every private top-level name is read in the package.

A stdlib stand-in for a linter's unused-import rule: parse each module of
src/rkdlab (the package __init__, which re-exports, is exempt) and require
every name bound by a module-level import statement, other than
``from __future__``, to be read somewhere in the module.  No rkdlab module
imports another that imports it back, so an import inside a function guards
no cycle; the one left defers scipy.cluster.vq, which takes longer to import
than all of rkdlab.cli and only cluster-wise labels use.  A private name (one
leading underscore) that a module binds at its top level, by a def, a class or
an assignment, must be read as a name or an attribute in some module of the
package: one that nothing reads is dead code.
"""

import ast
from pathlib import Path

import pytest

import rkdlab

PACKAGE = sorted(Path(rkdlab.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def nested_imports(source: str) -> list:
    """(line, imported module) of each import statement below a module's top level."""
    tree = ast.parse(source)
    return [(node.lineno, node.module if isinstance(node, ast.ImportFrom) else node.names[0].name)
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]


def test_detector_flags_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport math\nfrom os import path as p\nmath.pi\n"
    assert unused_imports(source) == ["json (line 2)", "p (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_detector_finds_a_nested_import():
    source = "import json\ndef f():\n    import math\n    from .x import y\n"
    assert nested_imports(source) == [(3, "math"), (4, "x")]


def test_only_the_kmeans_import_is_nested():
    found = {path.name: [module for _, module in nested_imports(path.read_text())] for path in MODULES}
    assert {name: modules for name, modules in found.items() if modules} == {"ssl_harness.py": ["scipy.cluster.vq"]}


def private_names(source: str) -> dict:
    """{name: line} of each private name a module binds at its top level (dunder names are not private)."""
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        bound.update((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))
    return bound


def names_read(source: str) -> set:
    """Every name a module reads as a variable, and every attribute name it reads of anything."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def unread_private_names(sources: dict) -> list:
    """Each private top-level name of the sources ({file: text}) that none of them reads, as file: name (line N)."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(f"{file}: {name} (line {line})" for file, source in sources.items()
                  for name, line in private_names(source).items() if name not in read)


def test_detector_flags_an_unread_private_name():
    sources = {
        "a.py": "import math\n_SCALE = 2\n_left, _right = 1, 2\n__all__ = []\ndef _helper():\n    return _SCALE\n"
                "class _Dead:\n    pass\ndef _unused(): pass\n",
        "b.py": "from a import _helper\nimport a\n_helper()\nprint(a._left)\n",
    }
    assert unread_private_names(sources) == ["a.py: _Dead (line 7)", "a.py: _right (line 3)",
                                             "a.py: _unused (line 9)"]


def test_every_private_top_level_name_is_read():
    assert unread_private_names({path.name: path.read_text() for path in PACKAGE}) == []
