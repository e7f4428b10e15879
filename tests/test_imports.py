"""Every name a cnull module imports is used in that module.

The project carries no linter, so this walks each module's syntax
tree: an imported name that never appears as a name in the module is an
unused import.
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
