"""No twodist module imports a name at module level that it never uses, and
no module-level private function is there for the tests alone."""

import ast
import pathlib
from collections import Counter

import pytest

import twodist

MODULES = sorted(pathlib.Path(twodist.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of ``source`` that the module
    never reads; a name listed in ``__all__`` counts as read (a re-export)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from typing import Optional, Tuple\nfrom . import a, b as c\n"
              "__all__ = ['a']\n\ndef f(x: Optional[int]) -> None:\n    return np.sum(x)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: Tuple", "line 5: c"]


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def unread_private_functions(sources: dict) -> list:
    """The module-level private functions of ``sources`` (file name -> source)
    whose name no code of any of them reads outside the function's own body."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return sorted(f"{name}: {fn.name}" for name, tree in trees.items() for fn in tree.body
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and fn.name.startswith("_") and not fn.name.startswith("__")
                  and reads[fn.name] == _reads(fn)[fn.name])


def test_every_private_function_has_a_caller_in_src():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_private_functions(sources) == []


def test_finds_an_unread_private_function():
    sources = {
        "a.py": ("def _local():\n    pass\n\ndef _remote():\n    pass\n\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                 "def _unread():\n    pass\n\ndef __getattr__(name):\n    pass\n\n"
                 "class C:\n    def _method(self):\n        pass\n\n"
                 "def public():\n    return _local()\n"),
        "b.py": "from . import a\n\ndef f():\n    return a._remote()\n",
    }
    assert unread_private_functions(sources) == ["a.py: _recursive", "a.py: _unread"]
