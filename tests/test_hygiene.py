"""Source hygiene: every name the package and the tests import is read.

An import that nothing reads hides which functions a module really
depends on, and which builders and fixtures a test module exercises.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/koszul_kit/*.py"), *ROOT.glob("tests/*.py")])


def _unused_imports(source):
    """(line, name) of every imported name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_flags_an_unread_import():
    src = "import os\nfrom sys import path, argv as args\nprint(path)\n"
    assert _unused_imports(src) == [(1, "os"), (2, "args")]


def test_no_unused_imports():
    assert {"linalg.py", "conftest.py"} <= {p.name for p in FILES}
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in FILES
              for line, name in _unused_imports(path.read_text())]
    assert unused == []
