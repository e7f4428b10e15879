"""Every name a cnull module imports is used, every private definition is referenced,
and every function parameter is read.

The project carries no linter, so this walks each module's syntax
tree: an imported name that never appears as a name in the module is an
unused import, a private top-level function, class or constant that no
module of the package reads is dead code, and a parameter that its
function's body never reads is a dead knob.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cnull"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = (
        "import os\n"
        "import mpmath as mp\n"
        "from .errors import SchemaError, InvalidInput\n"
        "mp.mpf(1)\n"
        "raise InvalidInput\n"
    )
    assert unused_imports(source) == ["os", "SchemaError"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """module.name of each private top-level definition that no module reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = (n for n in names if n.startswith("_") and not n.startswith("__"))
            dead += [f"{module}.{n}" for n in private if n not in read]
    return dead


def test_checker_finds_an_unreferenced_private():
    sources = {
        "a": "_LIMIT = 3\ndef _used():\n    return _LIMIT\ndef _dead():\n    return 1\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n_used()\n",
    }
    assert unreferenced_privates(sources) == ["a._dead", "a._Gone"]


def test_no_unreferenced_private_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


# (function, parameter) pairs allowed to go unread, with the reason
UNREAD_ALLOWED = {
    # every step is exact or in double precision; kept for callers that pass prec=
    ("gradexp_report", "prec"),
}


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter its function's body never reads; dunders exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [(name, p.arg) for p in params if p is not None and p.arg not in read]
    return out


def test_checker_finds_an_unread_parameter():
    source = (
        "def f(a, b, *rest, c=1, **kw):\n"
        "    def inner(d):\n"
        "        return b\n"
        "    return inner, a, c\n"
        "class K:\n"
        "    def __init__(self, unused):\n"
        "        pass\n"
        "    def m(self, x):\n"
        "        return (lambda y: self)(x)\n"
    )
    assert unread_parameters(source) == [
        ("f", "rest"), ("f", "kw"), ("inner", "d"), ("<lambda>", "y"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = unread_parameters(path.read_text(encoding="utf-8"))
    assert [pair for pair in unread if pair not in UNREAD_ALLOWED] == []
