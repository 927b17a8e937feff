"""Every top-level import of an rkdlab module is used in that module, imports
sit at the top level, every private top-level name is read in the package,
and every top-level name is reached from the command or the package exports.

A stdlib stand-in for a linter's unused-import rule: parse each module of
src/rkdlab (the package __init__, which re-exports, is exempt) and require
every name bound by a module-level import statement, other than
``from __future__``, to be read somewhere in the module.  No rkdlab module
imports another that imports it back, so an import inside a function guards
no cycle, and none is left.  A private name (one leading underscore) that a
module binds at its top level, by a def, a class or an assignment, must be
read as a name or an attribute in some module of the package: one that
nothing reads is dead code.  A stricter rule keeps the
package to what runs: each top-level name of a module must be reached from
`rkdlab.cli.main` (the `rkdlab` command) or from a name that the package
`__init__` imports (its library API), following the package names that each
reached definition reads.  Within a class, each method other than a dunder
must be read by name (as a variable or an attribute) somewhere in the package.
Code that only tests call lives in tests/.
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


def test_no_import_is_nested():
    found = {path.name: [module for _, module in nested_imports(path.read_text())] for path in MODULES}
    assert {name: modules for name, modules in found.items() if modules} == {}


def top_level_bindings(tree: ast.Module) -> dict:
    """{name: defining statement} of each name a module binds at its top level by a def, a class or an
    assignment, dunder names left out."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        bound.update((name, node) for name in names if not name.startswith("__"))
    return bound


def private_names(source: str) -> dict:
    """{name: line} of each private name a module binds at its top level (dunder names are not private)."""
    return {name: node.lineno for name, node in top_level_bindings(ast.parse(source)).items()
            if name.startswith("_")}


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


def unreached_names(sources: dict, entry: tuple) -> list:
    """Each top-level name of the modules in sources ({module: text}, the package's own "__init__" among them)
    that neither the entry (module, name) nor a name the __init__ imports reaches, as module: name (line N).

    A reached definition reaches each package name it reads: a name it binds at the top level or imports
    relatively (`from .m import n`, followed to the module that defines it) and an attribute of a package
    module it imports (`from . import m` then `m.n`).  A reached class reaches everything its body reads.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    bindings = {module: top_level_bindings(tree) for module, tree in trees.items()}
    imported = {module: {alias.asname or alias.name: (node.module or alias.name, node.module and alias.name)
                         for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                         for alias in node.names}
                for module, tree in trees.items()}

    def resolve(module: str, name: str):
        """(defining module, name), (module, None) for a package module, or None outside the package."""
        if name in bindings.get(module, {}):
            return module, name
        if name not in imported.get(module, {}):
            return None
        target, attr = imported[module][name]
        return (target, None) if attr is None else resolve(target, attr)

    def reads(module: str, node: ast.AST):
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                yield resolve(module, n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                held = resolve(module, n.value.id)
                if held and held[1] is None:
                    yield resolve(held[0], n.attr)

    todo = [entry, *(resolve("__init__", name) for name in imported.get("__init__", {}))]
    reached = set()
    while todo:
        key = todo.pop()
        if key and key[1] is not None and key not in reached:
            reached.add(key)
            todo.extend(reads(key[0], bindings[key[0]][key[1]]))
    return sorted(f"{module}: {name} (line {node.lineno})" for module, bound in bindings.items()
                  if module != "__init__" for name, node in bound.items() if (module, name) not in reached)


def test_detector_flags_an_unreached_name():
    sources = {
        "__init__": "from .b import exported\n",
        "cli": "from . import a\nfrom .a import helper as h\ndef main():\n    return h() + a.LIMIT\n",
        "a": "LIMIT = 1\ndef helper():\n    return _inner()\ndef _inner():\n    return 2\n"
             "def unused():\n    return helper()\nclass Dead:\n    pass\n",
        "b": "from .a import LIMIT\nimport numpy as np\ndef exported():\n    return np.ones(LIMIT)\n"
             "def orphan():\n    return exported()\n",
    }
    assert unreached_names(sources, ("cli", "main")) == ["a: Dead (line 8)", "a: unused (line 6)",
                                                        "b: orphan (line 5)"]


def test_detector_follows_aliases_and_re_exports_to_the_defining_module():
    sources = {
        "__init__": "from .b import shown as public\n",
        "cli": "from .b import relay\ndef main():\n    return relay()\n",
        "a": "def relay():\n    return 1\ndef shown():\n    return 2\ndef hidden():\n    return 3\n",
        "b": "from .a import relay, shown\nfrom .a import hidden as _h\n",
    }
    assert unreached_names(sources, ("cli", "main")) == ["a: hidden (line 5)"]


def test_detector_reaches_what_a_class_body_reads_and_nothing_outside_the_package():
    sources = {
        "__init__": "",
        "cli": "from . import a\nfrom numpy import helper\ndef main():\n    return a.Model().run() + helper()\n",
        "a": "from .b import scale\nclass Model:\n    def run(self):\n        return scale(_BASE)\n"
             "_BASE = 2\ndef helper():\n    return 0\n",
        "b": "def scale(x):\n    return x\nSTEP = 1\n",
    }
    assert unreached_names(sources, ("cli", "main")) == ["a: helper (line 6)", "b: STEP (line 3)"]


def test_every_top_level_name_is_reached_from_the_command_or_the_exports():
    assert unreached_names({path.stem: path.read_text() for path in PACKAGE}, ("cli", "main")) == []


def unread_methods(sources: dict) -> list:
    """Each method of a class in the sources ({file: text}), dunder methods left out, whose name none of them
    reads, as file: Class.method (line N)."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(f"{file}: {cls.name}.{node.name} (line {node.lineno})" for file, source in sources.items()
                  for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")) and node.name not in read)


def test_detector_flags_an_unread_method():
    sources = {
        "a.py": "class Model:\n    def __init__(self):\n        self.size = self.measure()\n"
                "    def measure(self):\n        return 1\n    @property\n    def area(self):\n        return 2\n"
                "    def unused(self):\n        return 3\n    class Inner:\n        def hidden(self):\n"
                "            return 4\n",
        "b.py": "from a import Model\nprint(Model().area)\n",
    }
    assert unread_methods(sources) == ["a.py: Inner.hidden (line 12)", "a.py: Model.unused (line 9)"]


def test_every_method_is_read_by_name():
    assert unread_methods({path.name: path.read_text() for path in PACKAGE}) == []
