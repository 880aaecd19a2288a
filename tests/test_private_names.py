"""Every private module-level name of the package is read somewhere in the package.

A private name (a function, class or constant whose name starts with
``_``) serves only the package, so one that nothing reads is dead code.
A read is a name loaded in any module, or an attribute of that name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "timefuse"
MODULES = sorted(SRC.glob("*.py"))


def private_names(tree: ast.Module) -> list:
    """The private names ``tree`` defines at module level, in order; dunder names are not private."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(tree: ast.Module) -> set:
    """The names ``tree`` loads, and the attribute names it reads."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def unread_private_names(sources: dict) -> list:
    """``module:name`` for each private module-level name no module of ``sources`` reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = set().union(*map(read_names, trees.values()))
    return [f"{m}:{n}" for m, tree in trees.items() for n in private_names(tree) if n not in reads]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": "_BITS = 1\n_USED, _SPARE = 2, 3\n__all__ = []\ndef _helper():\n    return _USED\n",
        "b.py": "from .a import _helper\nclass _Orphan:\n    pass\nx = _helper()\n",
        "c.py": "import a\ny = a._BITS\n",
    }
    assert unread_private_names(sources) == ["a.py:_SPARE", "b.py:_Orphan"]

