"""Change-of-basis invariance of the CLI's verdicts and dimensions.

The paper's objects (A, A!, the cdga (A!, d), U and the functors F and G)
are defined up to the choice of generators, so every dimension and verdict
they produce is too.  ``perfbench/problems.py`` writes each benchmark
problem after a seeded unimodular change of generators over Z (seed 0 is
the identity); every relation row becomes dense, which changes the
elimination order, the fill-in and the chosen bases.  The commands below
print only verdicts, dimensions and their bounds, so their whole ``--json``
payload must be the same at every seed.  This checks the mathematics across
inputs, where the dense oracles check each fast path against its old body
on one input.
"""

import contextlib
import io
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import problems  # noqa: E402

from koszul_kit import cli  # noqa: E402

COMMANDS = [
    ["ce", "--window=-4:1", "--filtration", "4", "--degree", "6"],
    ["koszul-check", "--degree", "4"],
    ["tor", "--range", "0..3", "--degree", "5"],
    ["ext", "--range", "0..3", "--degree", "5"],
    ["pbw"],
    ["counit", "--complex", "k", "--window=-4:1", "--filtration", "4", "--degree", "6"],
]


def _payloads(tmp_path, name, seed):
    path = tmp_path / f"{name}_{seed}.json"
    path.write_text(json.dumps(problems.problem(name, seed)))
    out = []
    for cmd in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([cmd[0], str(path), *cmd[1:], "--json"])
        out.append((code, json.loads(buf.getvalue())))
    return out


@pytest.mark.parametrize("name", ["sym3", "sym4", "ext3", "sl2",
                                  "heis_f5", "sym3_f7", "sl2_f32003"])
def test_verdicts_and_dimensions_do_not_depend_on_the_basis(tmp_path, name):
    want = _payloads(tmp_path, name, 0)
    assert all(code in (0, 1) for code, _ in want)
    for seed in (1, 2):
        assert problems.problem(name, seed)["relations"] != problems.problem(name, 0)["relations"]
        got = _payloads(tmp_path, name, seed)
        for cmd, g, w in zip(COMMANDS, got, want):
            assert g == w, (cmd[0], seed)
