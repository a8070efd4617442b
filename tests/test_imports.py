"""No twodist module imports a name at module level that it never uses."""

import ast
import pathlib

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
