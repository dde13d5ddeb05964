"""What a fresh ``koszul-kit`` process loads.

``cli`` imports only the algebra layer (``scalars``, ``linalg``, ``words``,
``presentations``, ``deformations``, ``errors``).  The module and functor
layer is ``module_commands`` and the six modules it imports; ``cli.main``
loads it, all at once, only for a command that is not one of the five
algebra commands.  No module imports ``dataclasses``, which would pull in
``inspect`` and more.  Each check runs in a new interpreter, because this
suite's own process has every module loaded.
"""

import json
import os
import subprocess
import sys

from koszul_kit import cli

PKG = os.path.join(os.path.dirname(__file__), "..")
ENV = dict(os.environ, PYTHONPATH=os.path.join(PKG, "src"))
EXAMPLES = os.path.join(PKG, "examples_cli")

MODULE_LAYER = ["koszul_kit." + name for name in
                ("complexes", "functors", "cofree", "freeside", "suite", "resolution")]
NOT_AT_START = MODULE_LAYER + ["koszul_kit.module_commands", "dataclasses", "inspect"]

ALGEBRA_COMMANDS = [
    ["dual", "symmetric2.json"],
    ["truncate", "symmetric2.json", "--degree", "4"],
    ["pbw", "heisenberg.json"],
    ["cdga", "twopoint.json", "--degree", "5"],
    ["build-u", "heisenberg.json", "--degree", "5"],
]


def _loaded(body):
    """The sorted names in ``sys.modules`` after ``body`` runs in a fresh
    interpreter, with ``cli`` imported and its stdout discarded."""
    code = ("import contextlib, io, json, os, sys\n"
            "from koszul_kit import cli\n"
            f"EX = {EXAMPLES!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            + "".join(f"    {line}\n" for line in body.splitlines())
            + "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=ENV, cwd=PKG, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_parsing_a_problem_loads_only_the_algebra_layer():
    loaded = _loaded("for name in ('heisenberg', 'twopoint', 'symmetric2'):\n"
                     "    with open(os.path.join(EX, name + '.json')) as fh:\n"
                     "        cli.Problem(json.load(fh)).deformation()")
    assert [m for m in NOT_AT_START if m in loaded] == []
    assert {"koszul_kit.deformations", "koszul_kit.presentations"} <= set(loaded)


def test_algebra_commands_load_only_the_algebra_layer():
    assert [name for name, *_ in ALGEBRA_COMMANDS] == list(cli.ALGEBRA_COMMANDS)
    loaded = _loaded("\n".join(
        f"assert cli.main([{name!r}, os.path.join(EX, {path!r}), *{rest!r}]) == 0"
        for name, path, *rest in ALGEBRA_COMMANDS))
    assert [m for m in NOT_AT_START if m in loaded] == []


def test_a_module_layer_command_loads_the_whole_layer_at_once():
    loaded = _loaded("assert cli.main(['counit', os.path.join(EX, 'symmetric2.json'),\n"
                     "                 '--complex', 'k', '--window=-4:1', '--filtration', '4']) == 0")
    package = sorted(m for m in loaded if m.partition(".")[0] == "koszul_kit")
    assert package == sorted(["koszul_kit", "koszul_kit.cli", "koszul_kit.deformations",
                              "koszul_kit.errors", "koszul_kit.linalg",
                              "koszul_kit.presentations", "koszul_kit.scalars",
                              "koszul_kit.words", "koszul_kit.module_commands",
                              *MODULE_LAYER])
    assert "dataclasses" not in loaded and "inspect" not in loaded
