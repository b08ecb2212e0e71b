"""Checks on the text of the qvar package's modules."""

import ast
from pathlib import Path

import qvar

PACKAGE = Path(qvar.__file__).resolve().parent


def _bound(statement) -> list[str]:
    """Names that a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read(statement) -> set[str]:
    """Names that a statement reads, as a name, an attribute or an import."""
    names = set()
    for n in ast.walk(statement):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_every_private_module_name_is_used():
    # a module-level _name that no other statement in the package reads is
    # a leftover: its users went and it stayed
    statements = [
        (path.name, statement)
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.parse(path.read_text()).body
    ]
    reads = [_read(statement) for _, statement in statements]
    unused = [
        f"{module}: {name}"
        for i, (module, statement) in enumerate(statements)
        for name in _bound(statement)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert unused == []
