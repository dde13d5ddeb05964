"""Source hygiene: every name the package and the tests import is read,
and every private module-level function or class of the package is named
somewhere besides its own definition.

An import that nothing reads hides which functions a module really
depends on, and which builders and fixtures a test module exercises; a
private helper that nothing calls is dead code.
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


def _named(node):
    """The identifier a node names, if any: a read or written name, an
    attribute, or an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def _unnamed_private_defs(sources, package):
    """(file, name) of every module-level ``_private`` function or class in
    the ``package`` files that no source names outside its own definition."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    counts = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _named(node)
            if name is not None:
                counts[name] = counts.get(name, 0) + 1
    unnamed = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            inside = sum(_named(n) == name for n in ast.walk(node))
            if counts.get(name, 0) == inside:
                unnamed.append((path, name))
    return sorted(unnamed)


def test_scan_flags_an_unnamed_private_def():
    sources = {
        "pkg.py": "def _used(): return _rec()\n"
                  "def _rec(): return _rec()\n"
                  "def _dead(): return _dead()\n"
                  "class _Orphan: pass\n"
                  "def public(): pass\n",
        "test_pkg.py": "from pkg import public, _used\n",
    }
    assert _unnamed_private_defs(sources, ["pkg.py"]) == [("pkg.py", "_Orphan"),
                                                          ("pkg.py", "_dead")]


def test_no_unnamed_private_defs():
    package = sorted(ROOT.glob("src/koszul_kit/*.py"))
    assert package and set(package) <= set(FILES)
    sources = {path: path.read_text() for path in FILES}
    unnamed = [f"{path.relative_to(ROOT)}: {name}"
               for path, name in _unnamed_private_defs(sources, package)]
    assert unnamed == []
