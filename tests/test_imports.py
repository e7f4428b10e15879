"""Every name a cnull module imports is used, every definition is referenced,
every function parameter is read, and the exact modules import no numerics.

The project carries no linter, so this walks each module's syntax
tree: an imported name that never appears as a name in the module is an
unused import, a private top-level function, class or constant that no
module of the package reads is dead code, and so is a public function or
class that nothing but itself and the tests reads, and so is a leaf
exception class that no raise names; a parameter that its function's
body never reads is a dead knob, and an import of mpmath or numroots in
an exact module crosses the numerics boundary.  polycore's one numeric
entry point, evaluator, imports mpmath lazily; nothing else in polycore
may.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cnull"
BENCH = Path(__file__).resolve().parents[1] / "bench"


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


# public functions and classes allowed to go unreferenced, with the reason
UNREFERENCED_PUBLIC_ALLOWED: dict[str, str] = {}


def _references(node: ast.AST) -> set[str]:
    """Names node reads: as a name, an attribute, or a string that is the name, as the bench tracer takes it."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def unreferenced_publics(sources: dict[str, str], readers: list[str]) -> list[str]:
    """module.name of each public top-level function or class of sources that nothing else reads.

    A definition counts as read when another top-level statement of sources
    reads it, or any of readers does; its own body does not count, so
    recursion alone keeps nothing alive.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    outside = set().union(*(_references(ast.parse(source)) for source in readers))
    statements = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            others = (read for stmt, read in statements if stmt is not node)
            if node.name not in outside and not any(node.name in read for read in others):
                dead.append(f"{module}.{node.name}")
    return dead


def test_checker_finds_an_unreferenced_public():
    sources = {
        "a": "def used():\n    return helper()\ndef helper():\n    return 1\ndef dead():\n    return dead()\n",
        "b": "from .a import used\nclass Gone:\n    pass\nclass Traced:\n    pass\nused()\n",
    }
    readers = ["TRACED = ('Traced',)\n"]
    assert unreferenced_publics(sources, readers) == ["a.dead", "b.Gone"]


def test_every_public_definition_is_referenced():
    # the benchmark counts as a reader: it names the functions it traces
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))]
    unreferenced = unreferenced_publics(sources, readers)
    assert [name for name in unreferenced if name not in UNREFERENCED_PUBLIC_ALLOWED] == []


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


# where each salted call takes its salt
SALT_ARGS = {"child_rng": 1}

# every salt in the package, as a literal or an f-string's literal prefix; a
# refactor keeps the salts of the code it keeps, so that reports stay byte-identical
SALTS = {
    "charpoly-grid", "charpoly-shear", "growth",  # charpoly
    "shells",  # gradexp
    "forms:", "cycle-point",  # nullcert
    "proper-shear", "shear", "graphproj:",  # propermaps
}


def salt_sites(source: str) -> list[str | None]:
    """The salt of each salted call: its literal, or the literal prefix of an f-string.

    None for a call that forwards its caller's salt parameter (as salt or
    f"{salt}:..."); any other salt comes back as its source text.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if name not in SALT_ARGS:
            continue
        pos = SALT_ARGS[name]
        arg = node.args[pos] if len(node.args) > pos else next(k.value for k in node.keywords if k.arg == "salt")
        if isinstance(arg, ast.JoinedStr):
            arg = arg.values[0]  # the literal prefix, or the first value put in
            if isinstance(arg, ast.FormattedValue):
                arg = arg.value
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(arg.value)
        else:
            text = ast.unparse(arg)
            out.append(None if text == "salt" else text)
    return out


def test_checker_reads_every_salt():
    source = (
        "child_rng(seed, 'a')\n"
        "_rng.child_rng(seed, f'b:{i}')\n"
        "child_rng(seed, salt=f'{salt}:{i}')\n"
    )
    assert salt_sites(source) == ["a", "b:", None]


def test_salts_are_distinct_and_pinned():
    sites = [s for path in sorted(SRC.glob("*.py")) for s in salt_sites(path.read_text(encoding="utf-8"))]
    salts = [s for s in sites if s is not None]
    assert sorted(s for s in set(salts) if salts.count(s) > 1) == []
    assert set(salts) == SALTS


# modules that import neither mpmath nor the numeric root layer: they compute exactly,
# or, as gradexp does when it samples its shells, in double-precision floats
EXACT_MODULES = ["cli", "errors", "gradexp", "nullcert", "rng", "variety"]
NUMERIC_MODULES = {"mpmath", "numroots"}


def numeric_import(node: ast.AST) -> str | None:
    """The text of node when it is an import statement naming mpmath or numroots as a module or a member."""
    if isinstance(node, ast.Import):
        parts = {part for alias in node.names for part in alias.name.split(".")}
    elif isinstance(node, ast.ImportFrom):
        parts = set((node.module or "").split(".")) | {alias.name for alias in node.names}
    else:
        return None
    return ast.unparse(node) if parts & NUMERIC_MODULES else None


def numeric_imports(source: str) -> list[str]:
    """Each import statement, at any depth, that names mpmath or numroots as a module or a member."""
    return [text for node in ast.walk(ast.parse(source)) if (text := numeric_import(node))]


def numeric_import_sites(source: str) -> list[tuple[str | None, str]]:
    """(innermost enclosing function, None at module level, import text) for each numeric import."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if text := numeric_import(child):
                out.append((function, text))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(ast.parse(source), None)
    return out


def test_checker_finds_a_numeric_import():
    source = (
        "import os\n"
        "import mpmath as mp\n"
        "from mpmath.libmp import to_str\n"
        "from .numroots import roots_from_coeffs\n"
        "from . import numroots, polycore\n"
        "from cnull import numroots as nr\n"
        "from .polycore import evaluate\n"
        "from .charpoly import mpmath_free\n"
        "def f():\n"
        "    import mpmath.libmp\n"
    )
    assert numeric_imports(source) == [
        "import mpmath as mp",
        "from mpmath.libmp import to_str",
        "from .numroots import roots_from_coeffs",
        "from . import numroots, polycore",
        "from cnull import numroots as nr",
        "import mpmath.libmp",
    ]


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_import_no_numerics(module):
    assert numeric_imports((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


def test_checker_finds_each_numeric_import_site():
    source = (
        "import mpmath\n"
        "def evaluator():\n"
        "    import mpmath as mp\n"
        "    def conv():\n"
        "        from .numroots import roots_from_coeffs\n"
        "class K:\n"
        "    def m(self):\n"
        "        import os, mpmath.libmp\n"
    )
    assert numeric_import_sites(source) == [
        (None, "import mpmath"),
        ("evaluator", "import mpmath as mp"),
        ("conv", "from .numroots import roots_from_coeffs"),
        ("m", "import os, mpmath.libmp"),
    ]


def test_polycore_imports_mpmath_only_lazily_in_evaluator():
    # the exact layer's one numeric entry point converts coefficients in mpmath only on request
    assert numeric_import_sites((SRC / "polycore.py").read_text(encoding="utf-8")) == [
        ("evaluator", "import mpmath as mp"),
    ]


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """Each leaf subclass of CnullError in errors_source that no raise statement in sources names."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }

    def is_error(name: str) -> bool:
        return name == "CnullError" or any(is_error(b) for b in bases.get(name, []))

    parents = {b for names in bases.values() for b in names}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [name for name in bases if is_error(name) and name not in parents and name not in raised]


def test_checker_finds_an_unraised_error():
    errors = (
        "class CnullError(Exception): pass\n"
        "class SchemaError(CnullError): pass\n"
        "class Raised(SchemaError): pass\n"
        "class Bare(SchemaError): pass\n"
        "class Unraised(SchemaError): pass\n"
        "class Plain(ValueError): pass\n"
    )
    source = "def f(x):\n    if x:\n        raise Raised('x')\n    raise Bare\n"
    assert unraised_errors(errors, [source]) == ["Unraised"]


def test_every_leaf_error_is_raised():
    # an error class outlives its last raise otherwise
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unraised_errors((SRC / "errors.py").read_text(encoding="utf-8"), sources) == []
