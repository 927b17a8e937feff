"""Every top-level import of an rkdlab module is used in that module, and
imports sit at the top level.

A stdlib stand-in for a linter's unused-import rule: parse each module of
src/rkdlab (the package __init__, which re-exports, is exempt) and require
every name bound by a module-level import statement, other than
``from __future__``, to be read somewhere in the module.  No rkdlab module
imports another that imports it back, so an import inside a function guards
no cycle; the one left defers scipy.cluster.vq, which takes longer to import
than all of rkdlab.cli and only cluster-wise labels use.
"""

import ast
from pathlib import Path

import pytest

import rkdlab

MODULES = sorted(p for p in Path(rkdlab.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
