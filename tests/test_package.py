"""The package holds only what the program runs.

Every public top-level function, class or assignment of a ``botledger``
module must be referenced by other program code: a ``Name``, an
``Attribute`` or an ``ImportFrom`` outside its own definition, in any module
but ``__init__.py``.  Re-exports and docstrings do not count, so a name that
only tests call belongs in ``tests/``.
"""

import ast
from pathlib import Path

import botledger

MODULES = sorted(p for p in Path(botledger.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_public_names() -> list[str]:
    """``module.name`` for each public definition no program code references."""
    definitions = []
    referenced = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(node)
            definitions += [(path.stem, name) for name in own if not name.startswith("_")]
            referenced |= _referenced(node) - set(own)
    return [f"{module}.{name}" for module, name in definitions if name not in referenced]


def test_every_public_name_is_used_by_the_program() -> None:
    unused = unused_public_names()
    assert not unused, f"only tests use {', '.join(unused)}"
