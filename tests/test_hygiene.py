"""Source hygiene: every name the package and the tests import is read,
every private module-level function or class of the package is named
somewhere besides its own definition, no local variable is written and
never read, no attribute the package assigns goes unread by the package,
the tests and the benchmark, no ``except ... as name`` binds a name its
function never reads, no ``and``/``or`` of the package has a literal operand, no ``if``
without ``else`` has a body of only ``pass``, no package code reads a
matrix through a dense ``.data`` store, no package module but
``scalars`` builds a ``Fraction`` or divides with ``/``, no package
module imports ``dataclasses``, every package function that the
benchmark's commands never call is on a list that says why it stays,
every one kept there as library API is read by some test, every
function and class of ``tests/conftest.py`` is reached from a test file,
and the benchmark's U commands, all on PBW input, run the heap reduction
only inside the completion.

An import that nothing reads hides which functions a module really
depends on, and which builders and fixtures a test module exercises; a
private helper that nothing calls is dead code, and so is a local, an
attribute or an exception name that nothing reads; ``x or True`` is a condition that only seems to select,
and ``if c: pass`` is a test whose outcome changes nothing.  A rational
built outside ``scalars`` can escape the canonical form (an int when
integral), and ``int / int`` is a float.  ``dataclasses`` imports
``inspect``, ``ast``, ``dis``, ``tokenize`` and ``typing``, several
milliseconds of every process's start-up.  A function that no command
reaches is library code that only tests read, or dead, and it is dead
once no test reads it either; so is an oracle or builder of
``conftest.py`` that no test reaches.  A heap
reduction outside the completion on PBW input is a U product that left
the generator table.
"""

import ast
import contextlib
import io
import shlex
import sys
from pathlib import Path

from koszul_kit import cli
from koszul_kit.linalg import Matrix
from koszul_kit.presentations import WordQuotient

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/koszul_kit/*.py"), *ROOT.glob("tests/*.py")])
sys.path.insert(0, str(ROOT / "perfbench"))

import problems  # noqa: E402
import workloads  # noqa: E402


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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of a function body outside its nested functions and classes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unread_assignments(source):
    """(line, names) of every assignment in a function none of whose target
    names the function, nested functions included, ever reads.  Names that
    start with ``_`` and names declared ``global`` or ``nonlocal`` are left
    out."""
    hits = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        for node in _own_nodes(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            names = {n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                     and not n.id.startswith("_")}
            if names and not names & read:
                hits.add((node.lineno, ", ".join(sorted(names))))
    return sorted(hits)


def test_scan_flags_an_unread_local():
    src = ("x = 1\n"
           "def f(a):\n"
           "    b, _ = a\n"
           "    c = d = a\n"
           "    e = 0\n"
           "    e += d\n"
           "    g, h = a\n"
           "    a[0] = self.k = 2\n"
           "    def inner():\n"
           "        nonlocal n\n"
           "        n = 1\n"
           "        m = n\n"
           "    return h\n")
    assert _unread_assignments(src) == [(3, "b"), (5, "e"), (6, "e"), (12, "m")]


def test_no_unread_locals():
    unread = [f"{path.relative_to(ROOT)}:{line}: {names}" for path in FILES
              for line, names in _unread_assignments(path.read_text())]
    assert unread == []


def _unread_attributes(sources, package):
    """(file, line, name) of every attribute assignment, as in
    ``self.name = ...``, in the ``package`` files whose name no source
    reads as an attribute."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted({(path, node.lineno, node.attr) for path in package
                   for node in ast.walk(trees[path])
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and node.attr not in read})


def test_scan_flags_an_unread_attribute():
    sources = {
        "pkg.py": "class A:\n"
                  "    def __init__(self, x):\n"
                  "        self.kept = x\n"
                  "        self.dropped = x\n"
                  "        self.count = 0\n"
                  "        self.count += 1\n"
                  "        self.bench = x\n"
                  "a = A(1)\n"
                  "a.tag = 'k'\n",
        "test_pkg.py": "from pkg import a\nassert a.kept == 1\nkept = a.dropped2\n",
        "bench.py": "from pkg import a\nprint(a.bench)\n",
    }
    assert _unread_attributes(sources, ["pkg.py"]) == [
        ("pkg.py", 4, "dropped"), ("pkg.py", 5, "count"), ("pkg.py", 6, "count"),
        ("pkg.py", 9, "tag")]


def test_no_unread_attributes():
    package = sorted(ROOT.glob("src/koszul_kit/*.py"))
    readers = sorted([*FILES, *ROOT.glob("perfbench/*.py")])
    assert package and any(path.parent.name == "perfbench" for path in readers)
    sources = {path: path.read_text() for path in readers}
    hits = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, line, name in _unread_attributes(sources, package)]
    assert hits == []


def _unread_exception_names(source):
    """(line, name) of every ``except ... as name`` that its function,
    nested functions included, never reads; a handler outside any function
    counts against the whole module."""
    tree = ast.parse(source)
    hits = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        hits.update((n.lineno, n.name) for n in _own_nodes(scope)
                    if isinstance(n, ast.ExceptHandler) and n.name
                    and n.name not in read)
    return sorted(hits)


def test_scan_flags_an_unread_exception_name():
    src = ("try:\n    pass\nexcept OSError as top:\n    pass\n"
           "def f():\n"
           "    try:\n        pass\n"
           "    except KeyError as e:\n        return e\n"
           "    except ValueError as v:\n        return 0\n"
           "    except Exception:\n        return 1\n"
           "def g():\n"
           "    try:\n        pass\n"
           "    except TypeError as t:\n        return lambda: t\n")
    assert _unread_exception_names(src) == [(3, "top"), (10, "v")]


def test_no_unread_exception_names():
    hits = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in FILES
            for line, name in _unread_exception_names(path.read_text())]
    assert hits == []


def _literal_bool_operands(source):
    """Line of every ``and``/``or`` with a literal True or False operand."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BoolOp)
                  and any(isinstance(v, ast.Constant) and isinstance(v.value, bool)
                          for v in node.values))


def test_scan_flags_a_literal_bool_operand():
    src = "if a or True:\n    pass\nx = b and (c or False)\ny = a or b and 1\n"
    assert _literal_bool_operands(src) == [1, 3]


def test_no_literal_bool_operands():
    package = sorted(ROOT.glob("src/koszul_kit/*.py"))
    assert package
    hits = [f"{path.relative_to(ROOT)}:{line}" for path in package
            for line in _literal_bool_operands(path.read_text())]
    assert hits == []


def _pass_only_ifs(source):
    """Line of every ``if`` (``elif`` included) that has no ``else`` and
    whose body is only ``pass``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.If) and not node.orelse
                  and all(isinstance(s, ast.Pass) for s in node.body))


def test_scan_flags_a_pass_only_if():
    src = ("if a:\n    pass\n"
           "if b:\n    pass\nelse:\n    x = 1\n"
           "if c:\n    y = 2\nelif d:\n    pass\n"
           "def f():\n    if e:\n        # nothing to do\n        pass\n    return 0\n")
    assert _pass_only_ifs(src) == [1, 9, 12]


def test_no_pass_only_ifs():
    files = sorted([*FILES, *ROOT.glob("perfbench/*.py")])
    assert any(path.parent.name == "perfbench" for path in files)
    hits = [f"{path.relative_to(ROOT)}:{line}" for path in files
            for line in _pass_only_ifs(path.read_text())]
    assert hits == []


def _data_subscripts(source):
    """Line of every subscript of a ``.data`` attribute, as in
    ``m.data[i][j]``: the dense row store that ``Matrix`` no longer has."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "data")


def test_scan_flags_a_data_subscript():
    src = ("a = m.data[0][1]\n"
           "b = m.data\n"
           "c = m.columns[0].get(1)\n"
           "d = u.data.base.dim\n"
           "e = [row[:] for row in x.data[1:]]\n")
    assert _data_subscripts(src) == [1, 5]


def test_no_dense_matrix_store():
    assert Matrix.__slots__ == ("field", "rows", "cols", "columns")
    package = sorted(ROOT.glob("src/koszul_kit/*.py"))
    assert package
    hits = [f"{path.relative_to(ROOT)}:{line}" for path in package
            for line in _data_subscripts(path.read_text())]
    assert hits == []


def _rational_builds(source):
    """Line of every ``Fraction(...)`` call and every true division ``/`` or
    ``/=``: on two ints, ``/`` gives a float, not a rational."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _named(node.func) == "Fraction":
            hits.add(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            hits.add(node.lineno)
    return sorted(hits)


def test_scan_flags_a_rational_build():
    src = ("from fractions import Fraction\n"
           "a = Fraction(1, 2)\n"
           "b = x // y\n"
           "c = fractions.Fraction(3)\n"
           "d = x / y\n"
           "e = '1/2'.split('/')\n"
           "f /= 2\n"
           "g = field.inv(x)  # not x / y\n")
    assert _rational_builds(src) == [2, 4, 5, 7]


def test_rationals_are_built_only_in_scalars():
    package = sorted(ROOT.glob("src/koszul_kit/*.py"))
    assert any(path.name == "scalars.py" for path in package)
    hits = [f"{path.relative_to(ROOT)}:{line}" for path in package if path.name != "scalars.py"
            for line in _rational_builds(path.read_text())]
    assert hits == []


def _dataclasses_imports(source):
    """Line of every ``import dataclasses`` and ``from dataclasses import``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
                  or (isinstance(node, ast.Import)
                      and any(a.name == "dataclasses" for a in node.names)))


def test_scan_flags_a_dataclasses_import():
    src = ("from dataclasses import dataclass\n"
           "import os, dataclasses as dc\n"
           "import dataclasses_json\n"
           "def f():\n"
           "    from dataclasses import field\n"
           "x = 'dataclasses'\n")
    assert _dataclasses_imports(src) == [1, 2, 5]


def test_no_dataclasses_in_the_package():
    package = sorted(ROOT.glob("src/koszul_kit/*.py"))
    assert package
    hits = [f"{path.relative_to(ROOT)}:{line}" for path in package
            for line in _dataclasses_imports(path.read_text())]
    assert hits == []


def _functions(source, module):
    """The name of every function a source defines, as ``module.`` plus
    the ``co_qualname`` of its code: module-level functions, methods, and
    the functions nested in either."""
    names = []

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(f"{module}.{prefix}{node.name}")
                walk(node.body, f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
                walk(node.body, prefix)
    walk(ast.parse(source).body, "")
    return names


def test_scan_lists_every_function():
    src = ("def f():\n"
           "    def g():\n"
           "        pass\n"
           "    return g\n"
           "class A:\n"
           "    def m(self):\n"
           "        return lambda: 0\n"
           "if True:\n"
           "    def h():\n"
           "        pass\n")
    assert _functions(src, "pkg") == ["pkg.f", "pkg.f.<locals>.g", "pkg.A.m", "pkg.h"]


# Package functions that no benchmark command calls, each with the reason
# it stays (ROADMAP item 12).  An entry whose reason is library API is one
# that some test reads (``test_library_api_is_read_by_tests``).
UNREACHED = {
    # the benchmark wraps or reads them by name (perfbench/layers.py)
    "freeside.free_nullhomotopy": "a benchmark span",
    "scalars.Field.add": "a counted Field method",
    "scalars.Field.mul": "a counted Field method",
    "scalars.Field.div": "a counted Field method",
    "linalg.EchelonSpan.reduce": "a counted EchelonSpan method",
    "presentations.SpanSize.dim": "read by the benchmark's U observer",
    # weights: no corpus file carries them
    "deformations.DeformationData._check_weights": "weighted input",
    "presentations.GradedAlgebraTruncation.basis_weight": "weighted input",
    "presentations.QuadraticPresentation._check_weight_homogeneous": "weighted input",
    "presentations.QuadraticPresentation._pair_weight": "weighted input",
    "presentations.QuadraticPresentation.relation_weight": "weighted input",
    "words.word_weight": "weighted input",
    # library API that only tests read
    "complexes.ChainMap.zero": "library API",
    "freeside.free_cone_of_map": "library API",
    "freeside.free_identity_map": "library API",
    "linalg.Matrix.scale": "library API",
    # command paths the workloads do not take
    "cli.build_parser":
        "help, usage errors, argv not starting with a command, left-over tokens",
    "deformations.FilteredAlgebraTruncation._heap_column":
        "non-PBW input: U words longer than N - e_max, where the walk is not exact",
    "functors.gf_composite.<locals>.d_m": "(GF)_i of an N with a differential",
    # printing and hashing
    "linalg.Matrix.__repr__": "repr",
    "presentations.QuadraticPresentation.__repr__": "repr",
    "scalars.Field.__repr__": "repr",
    "scalars.Field.__hash__": "hash",
}


def _unread_library_api(unreached, sources):
    """The entries of ``unreached`` whose reason is library API that no
    source names: a function ``module.name`` must be named (imported,
    called or read) by some source, and a method ``module.Class.name`` by a
    source that names ``Class`` too.  The scan reads names, not types, so
    ``x.zero`` in a file that imports ``ChainMap`` counts for
    ``ChainMap.zero``."""
    named = [{_named(node) for node in ast.walk(ast.parse(src))} for src in sources.values()]
    unread = []
    for entry, reason in unreached.items():
        if not reason.startswith("library API"):
            continue
        need = set(entry.split(".")[1:])
        if not any(need <= names for names in named):
            unread.append(entry)
    return sorted(unread)


def test_scan_flags_unread_library_api():
    sources = {
        "test_a.py": "from pkg.m import f, C\nC.zero(1)\nprint('g')\n",
        "test_b.py": "x.scale(2)\ny = D\n",
        "test_c.py": "import pkg\npkg.m.k()\n",
    }
    unreached = {"m.f": "library API", "m.g": "library API", "m.C.zero": "library API",
                 "m.D.scale": "library API", "m.k": "library API, a wrapper",
                 "m.E.scale": "library API", "m.h": "repr"}
    assert _unread_library_api(unreached, sources) == ["m.E.scale", "m.g"]


def test_library_api_is_read_by_tests():
    """A package function that no command reaches stays as library API
    only while a test reads it; one that nothing reads is dead."""
    tests = {path: path.read_text() for path in sorted(ROOT.glob("tests/*.py"))}
    assert any(r.startswith("library API") for r in UNREACHED.values())
    assert _unread_library_api(UNREACHED, tests) == []


def _test_names(tree):
    """Every identifier a tree names (``_named``) and every parameter it
    declares: a test's parameter is how it reads a fixture."""
    return {_named(node) for node in ast.walk(tree)} | {
        node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}


def _unreached_conftest_defs(conftest, tests):
    """The module-level functions and classes of the ``conftest`` source
    that no test reaches.  A definition is reached when a ``tests`` source
    names it (a fixture: a test has a parameter of its name), when
    conftest's own module-level code or decorators name it, or when a
    reached definition names it."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    tree = ast.parse(conftest)
    defs = {node.name: node for node in tree.body if isinstance(node, kinds)}
    seen = set().union(*(_test_names(ast.parse(src)) for src in tests.values()))
    for node in tree.body:
        for part in node.decorator_list if isinstance(node, kinds) else [node]:
            seen |= _test_names(part)
    reached, todo = set(), [name for name in defs if name in seen]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in _test_names(defs[name]) if n in defs]
    return sorted(set(defs) - reached)


def test_scan_flags_an_unreached_conftest_def():
    conftest = ("import pytest\n"
                "@pytest.fixture\n"
                "def field():\n    return 3\n"
                "@pytest.fixture\n"
                "def unused_fixture():\n    return 4\n"
                "def _helper():\n    return 1\n"
                "def oracle(x):\n    return _helper() + x\n"
                "def dead(x):\n    return _dead_helper(x)\n"
                "def _dead_helper(x):\n    return x\n"
                "def recursive():\n    return recursive()\n"
                "class Box:\n    pass\n"
                "TABLE = [_helper]\n")
    tests = {"test_a.py": "from conftest import oracle\n"
                          "def test_f(field):\n    assert oracle(field)\n",
             "test_b.py": "import conftest\ndef test_g():\n    conftest.Box()\n"}
    assert _unreached_conftest_defs(conftest, tests) == [
        "_dead_helper", "dead", "recursive", "unused_fixture"]


def test_every_conftest_def_is_reached_from_a_test():
    """An oracle or builder of ``tests/conftest.py`` that no test reaches
    is dead code, like a package function that nothing calls."""
    tests = {path: path.read_text() for path in sorted(ROOT.glob("tests/test_*.py"))}
    conftest = (ROOT / "tests" / "conftest.py").read_text()
    assert tests and "def " in conftest
    assert _unreached_conftest_defs(conftest, tests) == []


def test_pbw_u_products_need_no_heap(tmp_path, monkeypatch):
    """Every ``ce``, ``counit`` and ``build-u`` command of the benchmark's
    workloads, on its problem files of seed 1, all of PBW type: U's rules
    all have excess 0, so every product and word walks the generator
    table, and the heap ``_reduce`` runs only inside the completion."""
    problems.write_problems(str(tmp_path), 1)
    callers = []
    reduce = WordQuotient._reduce

    def traced(self, poly, level):
        callers.append(sys._getframe(1).f_code.co_name)
        return reduce(self, poly, level)

    monkeypatch.setattr(WordQuotient, "_reduce", traced)
    ran = 0
    for commands in workloads.WORKLOADS.values():
        for template in commands:
            if template.split()[0] not in ("ce", "counit", "build-u"):
                continue
            argv = shlex.split(template.format(ex=ROOT / "examples_cli", gen=tmp_path))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--json"]) == 0
            ran += 1
    assert ran >= 6 and callers and set(callers) == {"_complete"}


def test_every_unreached_function_is_listed(tmp_path):
    """Every command of the benchmark's workloads, on its problem files of
    seed 1, under a profiler: a package function that none calls must be
    on ``UNREACHED``, and a listed one must stay uncalled, so the list
    cannot go stale."""
    package = ROOT / "src" / "koszul_kit"
    defined = {name for path in sorted(package.glob("*.py"))
               for name in _functions(path.read_text(), path.stem)}
    assert set(UNREACHED) <= defined
    problems.write_problems(str(tmp_path), 1)
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for commands in workloads.WORKLOADS.values():
            for template in commands:
                argv = shlex.split(template.format(ex=ROOT / "examples_cli", gen=tmp_path))
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        cli.main(argv + ["--json"])
                    except SystemExit:
                        pass
    finally:
        sys.setprofile(previous)
    ours = {name for name in {code.co_filename for code in codes}
            if Path(name).resolve().parent == package}
    called = {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
              if code.co_filename in ours}
    assert sorted(defined - called - set(UNREACHED)) == []
    assert sorted(called & set(UNREACHED)) == []
