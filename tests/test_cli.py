"""CLI front end: parsing, dispatch, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from koszul_kit import cli

PKG = os.path.join(os.path.dirname(__file__), "..")
ENV = dict(os.environ, PYTHONPATH=os.path.join(PKG, "src"))


def run_cli(*argv, expect=0, env=ENV):
    out = subprocess.run([sys.executable, "-m", "koszul_kit.cli", *argv],
                         capture_output=True, text=True, env=env, cwd=PKG)
    assert out.returncode == expect, (out.stdout, out.stderr)
    return out.stdout


HEIS = os.path.join(PKG, "examples_cli", "heisenberg.json")
TWOP = os.path.join(PKG, "examples_cli", "twopoint.json")
SYM2 = os.path.join(PKG, "examples_cli", "symmetric2.json")


def test_pbw_pass_exit_zero():
    out = run_cli("pbw", HEIS)
    assert "PBW type: yes" in out


def test_pbw_fail_exit_one(tmp_path):
    raw = json.load(open(HEIS))
    raw["alpha"] = [[["x3", "-1"]], [["x2", "-1"]], [["x2", "-1"]]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out = run_cli("pbw", str(bad), expect=1)
    assert "PBW type: no" in out


def test_cdga_golden_twopoint():
    out = run_cli("cdga", TWOP, "--degree", "5")
    assert "c = 2 x*^2" in out
    assert "d(x*) = -3 x*^2" in out
    assert "vanishing lemma witness: pass" in out


def test_tor_heisenberg():
    out = run_cli("tor", HEIS, "--module", "k", "--range", "0..3")
    assert "[1, 2, 2, 1]" in out


@pytest.mark.parametrize("path", [SYM2, HEIS], ids=["symmetric2", "heisenberg"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_tor_cross_check_at_default_bounds(path, json_flag):
    """``--cross-check`` builds U as far as F's filtration levels reach, so
    at the default bounds it runs and prints what ``tor`` prints without
    it."""
    assert run_cli("tor", path, "--cross-check", *json_flag) == run_cli("tor", path, *json_flag)


def test_dual_and_truncate():
    out = run_cli("dual", SYM2)
    assert "dim R = 1, dim Rperp = 3" in out
    out = run_cli("truncate", SYM2, "--degree", "4")
    assert "A dims:  [1, 2, 3, 4, 5]" in out
    assert "A! dims: [1, 2, 1, 0, 0]" in out


def test_koszul_check():
    run_cli("koszul-check", SYM2, "--degree", "4")


def test_counit_unit_qis():
    out = run_cli("counit", SYM2, "--complex", "k", "--window=-4:1",
                  "--filtration", "4")
    assert "quasi-isomorphism in interior: True" in out
    out = run_cli("unit", SYM2, "--cdg", "k", "--window=-4:1",
                  "--filtration", "4")
    assert "quasi-isomorphism in interior: True" in out


def test_null_free_and_cofree():
    out = run_cli("null-free", SYM2, "--free", "cone_id")
    assert "in null system: True" in out
    out = run_cli("null-free", SYM2, "--free", "koszul_of_k")
    assert "in null system: False" in out
    out = run_cli("null-cofree", SYM2, "--free-dual", "spliced", "--degree", "4")
    assert "in null system: False" in out
    assert "acyclic (interior): True" in out


def test_minimize_command():
    # two-term complex over S(V): declared inline via module sums
    raw = json.load(open(SYM2))
    raw["modules"] = {"k2": {"dim": 2, "actions": {
        "x1": [["0", "0"], ["0", "0"]], "x2": [["0", "0"], ["0", "0"]]}}}
    raw["complexes"] = {"two": {"window": [0, 1], "modules": ["k2", "k2"],
                                "differentials": {"0": [["0", "1"], ["0", "0"]]}}}
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(raw, fh)
        path = fh.name
    out = run_cli("minimize", path, "--complex", "two", "--window=-4:4",
                  "--internal", "3", "--degree", "6")
    assert "certificates verified: True" in out
    os.unlink(path)


def test_machine_output_round_trip():
    out1 = run_cli("tor", HEIS, "--module", "k", "--range", "0..3", "--json")
    obj = json.loads(out1)
    assert obj["dims"] == [1, 2, 2, 1]
    # re-emitting the parsed object is byte-identical (canonical encoding)
    re1 = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    assert re1 == out1


def test_determinism_same_seed():
    a = run_cli("selftest", "--seed", "3", "--json", expect=0)
    b = run_cli("selftest", "--seed", "3", "--json", expect=0)
    assert a == b


def test_seed_changes_instances_not_verdicts():
    a = json.loads(run_cli("selftest", "--seed", "1", "--json"))
    b = json.loads(run_cli("selftest", "--seed", "2", "--json"))
    assert a["failures"] == b["failures"] == 0
    assert [r[1] for r in a["results"]] == [r[1] for r in b["results"]]


def test_corrupt_sign_fails_leibniz_first():
    out = json.loads(run_cli("selftest", "--seed", "0", "--corrupt-sign-debug",
                             "--json", expect=1))
    fails = [name for name, verdict in out["results"] if verdict == "FAIL"]
    assert fails and "Leibniz" in fails[0]


def test_env_seed_respected():
    env = dict(ENV, KOSZUL_SEED="7")
    out = subprocess.run([sys.executable, "-m", "koszul_kit.cli",
                          "selftest", "--json"],
                         capture_output=True, text=True, env=env, cwd=PKG)
    assert out.returncode == 0
    assert json.loads(out.stdout)["seed"] == 7


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    run_cli("pbw", str(bad), expect=2)


def test_missing_module_exit_two():
    run_cli("tor", HEIS, "--module", "nope", expect=2)


@pytest.mark.parametrize("command", ["tor", "ext"])
def test_reversed_range_exit_two(command):
    """An empty ``--range`` a..b (a > b) is an input error naming the flag,
    like an empty ``--window``; a one-point range still runs."""
    for argv in ([], ["--json"]):
        out = subprocess.run([sys.executable, "-m", "koszul_kit.cli", command, SYM2,
                              "--module", "k", "--range", "5..2", *argv],
                             capture_output=True, text=True, env=ENV, cwd=PKG)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "input error: --range must be nonempty: 5..2 has 5 > 2\n"
    assert json.loads(run_cli(command, SYM2, "--module", "k", "--range", "2..2",
                              "--json"))["range"] == [2, 2]


def test_curved_input_exit_two():
    run_cli("minimize", TWOP, "--complex", "k1", "--window=-3:2", expect=2)


def test_unit_curved_module_exit_two():
    # (GF)(k) satisfies the curvature law d^2 = c.(-), so the unit is
    # built; its cone homology then needs c = 0, an exit-2 precondition
    out = subprocess.run([sys.executable, "-m", "koszul_kit.cli", "unit", TWOP,
                          "--cdg", "k"], capture_output=True, text=True,
                         env=ENV, cwd=PKG)
    assert out.returncode == 2, (out.stdout, out.stderr)
    assert "CurvedInputError: homology needs curvature c = 0" in out.stderr


def test_apply_g_and_f_commands():
    out = run_cli("apply-g", SYM2, "--complex", "two", "--window=-4:2")
    assert "validate: pass" in out
    out = run_cli("apply-f", SYM2, "--cdg", "gk", "--window=-5:1",
                  "--filtration", "4", "--degree", "6")
    assert "stabilized over three filtration levels: True" in out
    assert "0: 1" in out


def test_adjoint_check_command():
    out = run_cli("adjoint-check", SYM2, "--cdg", "twostep", "--complex", "two",
                  "--window=-3:3", "--degree", "5")
    assert "adjunction verified: True" in out


def test_truncation_commands():
    out = run_cli("t-trunc", SYM2, "--cdg", "gk", "--at", "0",
                  "--degree", "5", "--internal", "3")
    assert "t<=p dims: {-2: 1, -1: 2, 0: 1}" in out
    out = run_cli("sigma-trunc", SYM2, "--complex", "two", "--at", "0")
    assert "sigma>0 dims: {1: 2}" in out


def test_regrade_command():
    out = run_cli("regrade", SYM2, "--cdg", "gk", "--r", "2", "--degree", "5")
    assert "round trip exact: True" in out


def test_build_u_and_ce_and_ext_commands():
    out = run_cli("build-u", HEIS, "--degree", "5")
    assert "PBW per level: [True, True, True, True, True, True]" in out
    out = run_cli("ce", HEIS, "--module", "k", "--window=-5:1",
                  "--filtration", "5", "--degree", "7")
    assert "0: 1" in out
    out = run_cli("ext", HEIS, "--module", "k", "--range", "0..3",
                  "--degree", "6")
    assert "[1, 2, 2, 1]" in out


def _interior_homology(homology):
    """{degree: dim} strictly inside the window's edge degrees."""
    lo, hi = homology["edge_degrees"]
    return {p: h for p, _, h in homology["entries"] if lo < p < hi}


def test_ce_heisenberg_default_bounds():
    """The Chevalley-Eilenberg complex at the default bounds (U_{<=11}):
    a resolution of k, so H_0 = 1 and every other interior degree is 0."""
    out = json.loads(run_cli("ce", HEIS, "--json"))
    assert out["exit_code"] == 0
    interior = _interior_homology(out["homology"])
    assert interior.pop(0) == 1
    assert interior and all(h == 0 for h in interior.values())


def test_counit_heisenberg_default_bounds():
    """The counit FG(k) -> k at the default bounds (U_{<=11}) is a
    quasi-isomorphism: its cone is acyclic."""
    out = json.loads(run_cli("counit", HEIS, "--complex", "k", "--json"))
    assert out["exit_code"] == 0
    assert out["interior_qis"] is True
    assert all(h == 0 for h in out["cone_homology"].values())


@pytest.mark.parametrize("spec", [{"type": "Fp", "p": 4}, {"type": "Fp", "p": "abc"},
                                  {"p": 4}, {"type": "Fp", "p": 7.5}])
def test_bad_field_spec_exit_two(tmp_path, capsys, spec):
    raw = json.load(open(SYM2))
    raw["field"] = spec
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert cli.main(["dual", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("degree", ["0", "1"])
@pytest.mark.parametrize("argv", [["ce", HEIS], ["counit", SYM2, "--complex", "k"],
                                  ["minimize", SYM2, "--complex", "two"], ["cdga", TWOP]])
def test_degree_below_two_names_the_flag(capsys, argv, degree):
    assert cli.main(argv + ["--degree", degree]) == 2
    assert "--degree" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["truncate", SYM2, "--degree", "-1"], "--degree must be >= 0: got -1"),
    (["ce", HEIS, "--filtration", "-3"], "--filtration must be >= 0: got -3"),
    (["apply-g", SYM2, "--complex", "k", "--internal", "-1"],
     "--internal must be >= 0: got -1"),
    (["ce", HEIS, "--window=3:-3"], "--window must be nonempty: 3:-3 has 3 > -3"),
    (["ext", SYM2, "--module", "k", "--range", "0..3", "--internal", "-3"],
     "--internal must be >= 0: got -3"),
])
def test_bad_bound_names_the_flag_and_value(capsys, argv, message):
    """A negative bound or an empty window exits 2 with a message that
    names the flag and the value given."""
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"input error: {message}\n")


def test_truncation_overflow_names_the_flag(tmp_path, capsys):
    """An entry word of A!-degree 3 read at --degree 2 is refused, naming
    the flag; --degree 3 reads it."""
    raw = json.load(open(SYM2))
    raw["free_dual_complexes"]["long"] = {
        "ranks": {"0": [0], "1": [-3]}, "entries": {"0": [[[[["x1*", "x2*", "x1*"], "1"]]]]}}
    path = str(tmp_path / "long.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    assert cli.main(["null-cofree", path, "--free-dual", "long", "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "input error: degree 3 beyond bound 2; raise --degree\n"
    assert "beyond bound" in err and "--degree" in err
    assert cli.main(["null-cofree", path, "--free-dual", "long", "--degree", "3"]) == 0


def test_merge_reads_zero_past_a_zero_bound(capsys):
    """A! of S(V), V of dim 2, is zero in degree 3, so the merge of a free
    dual complex reads the same at --degree 3 as at --degree 4."""
    outs = []
    for degree in ("3", "4"):
        assert cli.main(["null-cofree", SYM2, "--free-dual", "spliced", "--degree", degree]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].err == ""


@pytest.mark.parametrize("field", [{"type": "Q"}, {"type": "Fp", "p": 3}], ids=["Q", "F3"])
def test_null_free_bound_refusals_name_the_flags(tmp_path, capsys, field):
    """U's bound is --degree: the Koszul complex of k needs products of
    degree 2 for its d^2 check, and its expansion the level --filtration
    // 2 + 2, for window [-2, 0] and entries of degree 1.  Each refusal
    names the flag that mends it; the first bound that passes is accepted."""
    raw = json.load(open(SYM2))
    raw["field"] = field
    path = tmp_path / "sym2.json"
    path.write_text(json.dumps(raw))
    argv = ["null-free", str(path), "--free", "koszul_of_k"]
    cases = [(["--degree", "1"], "d^2 needs a U product of word degree 2 beyond bound 1; "
                                 "raise --degree"),
             (["--degree", "2"], "expansion level 6 beyond U bound 2; raise --degree to 6, "
                                 "or lower --filtration (base level 4 = --filtration // 2)"),
             (["--degree", "3", "--filtration", "4"],
              "expansion level 4 beyond U bound 3; raise --degree to 4, "
              "or lower --filtration (base level 2 = --filtration // 2)")]
    for flags, message in cases:
        for extra in ([], ["--json"]):
            assert cli.main(argv + flags + extra) == 2
            assert capsys.readouterr() == ("", f"input error: {message}\n")
    assert cli.main(argv + ["--degree", "4", "--filtration", "4"]) == 0
    assert "acyclic (interior): True" in capsys.readouterr().out


@pytest.mark.parametrize("field", [{"type": "Q"}, {"type": "Fp", "p": 3}], ids=["Q", "F3"])
def test_module_off_the_relations_exit_two(tmp_path, capsys, field):
    """A named module whose actions x1 = E_12 and x2 = E_21 do not commute
    breaks S(V)'s relation x1 x2 = x2 x1.  Every command that reads it, as
    a module or as a complex, refuses it as input, naming the module and
    the relation, in place of a failed certificate on G or F' of it (or,
    for sigma-trunc, printed dims); so does a complex declared from it."""
    raw = json.load(open(SYM2))
    raw["field"] = field
    raw["modules"]["bad"] = {"dim": 2, "actions": {"x1": [["0", "1"], ["0", "0"]],
                                                   "x2": [["0", "0"], ["1", "0"]]}}
    raw["complexes"]["twobad"] = {"window": [0, 1], "modules": ["bad", "bad"],
                                  "differentials": {}}
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    err = "input error: module 'bad': relation 0 of P does not annihilate the module\n"
    for argv in (["ce", path, "--module", "bad", "--window=-3:1", "--filtration", "3"],
                 ["tor", path, "--module", "bad", "--range", "0..2"],
                 ["ext", path, "--module", "bad", "--range", "0..2"],
                 ["apply-g", path, "--complex", "bad", "--window=-4:2"],
                 ["counit", path, "--complex", "bad", "--window=-3:1", "--filtration", "3"],
                 ["minimize", path, "--complex", "bad", "--window=-4:4", "--internal", "3",
                  "--filtration", "3"],
                 ["adjoint-check", path, "--cdg", "twostep", "--complex", "bad",
                  "--window=-3:3", "--degree", "5"],
                 ["sigma-trunc", path, "--complex", "bad", "--at", "0"],
                 ["sigma-trunc", path, "--complex", "twobad", "--at", "0"]):
        for extra in ([], ["--json"]):
            assert cli.main(argv + extra) == 2
            assert capsys.readouterr() == ("", err)
    # the module k2 of the same file is still read
    assert cli.main(["sigma-trunc", path, "--complex", "k2", "--at", "0"]) == 0


def test_free_dual_merge_refusals_exit_two(tmp_path):
    """A merge that cannot be built is refused as input, exit 2: over an
    A! that is nonzero at the truncation bound, where raising --degree
    never helps an infinite A! such as k[x*] (the dual of k[x]/(x^2)), and
    over an A! with d != 0 (the Heisenberg algebra)."""
    line = {"ranks": {"0": [0], "1": [-1]}}
    kx = {"field": {"type": "Q"}, "generators": ["x"], "relations": [[["x", "x", "1"]]],
          "free_dual_complexes": {"line": dict(line, entries={"0": [[[[["x*"], "1"]]]]})}}
    heis = dict(json.load(open(HEIS)), free_dual_complexes={
        "line": dict(line, entries={"0": [[[[["x1*"], "1"]]]]})})
    paths = {}
    for name, raw in (("kx", kx), ("heis", heis)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(raw))
    finite = ("input error: free-module merge needs a finite A!, zero at the truncation "
              "bound, but A!_{} has dim {}\n")
    cases = [((paths["kx"], "line", n), finite.format(n, 1)) for n in ("4", "8", "12")]
    cases.append(((SYM2, "spliced", "2"), finite.format(2, 1)))
    cases.append(((paths["heis"], "line", "4"),
                  "input error: free-module merge needs d_{A!} = 0\n"))
    for (path, name, degree), err in cases:
        for flags in ((), ("--json",)):
            out = subprocess.run([sys.executable, "-m", "koszul_kit.cli", "null-cofree",
                                  str(path), "--free-dual", name, "--degree", degree, *flags],
                                 capture_output=True, text=True, env=ENV, cwd=PKG)
            assert (out.returncode, out.stdout, out.stderr) == (2, "", err)


def test_non_free_component_exit_two():
    run_cli("null-free", SYM2, "--free", "two", expect=2)


def test_missing_weights_exit_two():
    run_cli("regrade", SYM2, "--cdg", "twostep", "--r", "1",
            "--degree", "5", expect=2)


@pytest.mark.parametrize("field", [{"type": "Q"}, {"type": "Fp", "p": 3}], ids=["Q", "F3"])
def test_short_weight_list_exit_two(tmp_path, field):
    """A weights list shorter than its dim is refused as input, naming the
    object (and, for a cdg module, the degree) and both counts, in place of
    an IndexError traceback, and so is a longer one, in place of a Tor read
    off the first weights; the lists of full length are still read."""
    raw = json.load(open(SYM2))
    raw["field"] = field
    full = tmp_path / "full.json"
    raw["weights"] = [1, 1]
    raw["modules"]["k2"]["weights"] = [0, 0]
    full.write_text(json.dumps(raw))
    assert run_cli("regrade", str(full), "--cdg", "gk", "--r", "2", "--degree", "5") == (
        run_cli("regrade", SYM2, "--cdg", "gk", "--r", "2", "--degree", "5"))
    run_cli("tor", str(full), "--module", "k2", "--range", "0..2")
    for n, extra in ((1, []), (3, [5])):
        raw["cdg_modules"]["gk"]["weights"]["-1"] = ([-1, -1] + extra)[:n]
        raw["modules"]["k2"]["weights"] = ([0, 0] + extra)[:n]
        path = tmp_path / f"length{n}.json"
        path.write_text(json.dumps(raw))
        cdg = f"input error: cdg module 'gk': weights list of length {n} at degree -1, dim 2\n"
        mod = f"input error: module 'k2': weights list of length {n} for dim 2\n"
        for argv, err in ((["regrade", "--cdg", "gk", "--r", "2", "--degree", "5"], cdg),
                          (["tor", "--module", "k2", "--range", "0..2"], mod),
                          (["ce", "--module", "k2", "--window=-3:1", "--filtration", "3"], mod)):
            for flags in ((), ("--json",)):
                out = subprocess.run([sys.executable, "-m", "koszul_kit.cli", argv[0],
                                      str(path), *argv[1:], *flags],
                                     capture_output=True, text=True, env=ENV, cwd=PKG)
                assert (out.returncode, out.stdout, out.stderr) == (2, "", err)


def test_mixed_weights_complex_exit_two(tmp_path):
    """A complex of one weighted and one unweighted module is refused as
    input, not left to fail inside G or to truncate with partial weights."""
    raw = json.load(open(SYM2))
    raw["weights"] = [1, 1]
    raw["modules"]["k2w"] = dict(raw["modules"]["k2"], weights=[0, 0])
    raw["complexes"]["mixed"] = {"window": [0, 1], "modules": ["k2w", "k2"],
                                 "differentials": {}}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(raw))
    for argv in (["apply-g", "--window=-4:2"],
                 ["counit", "--window=-3:1", "--filtration", "3"],
                 ["sigma-trunc", "--at", "0"]):
        run_cli(argv[0], str(path), "--complex", "mixed", *argv[1:], expect=2)
    # the unweighted complex of the same file is still accepted
    run_cli("sigma-trunc", str(path), "--complex", "two", "--at", "0")


@pytest.mark.parametrize("field", [{"type": "Q"}, {"type": "Fp", "p": 3}], ids=["Q", "F3"])
def test_module_reader_refusals_exit_two(tmp_path, capsys, field):
    """The refusals of the module reader, each read as a module and as a
    complex, text and --json: a complex of one weighted and one unweighted
    module; a module whose x1 moves weight 0 to weight 0 over generators of
    weight 1; k of twopoint, where beta = 2; and a declared complex with a
    module off S(V)'s relation x1 x2 = x2 x1."""
    raw = json.load(open(SYM2))
    raw["field"] = field
    raw["weights"] = [1, 1]
    zero = [["0", "0"], ["0", "0"]]
    raw["modules"]["k2w"] = dict(raw["modules"]["k2"], weights=[0, 0])
    raw["modules"]["mover"] = {"dim": 2, "actions": {"x1": [["0", "0"], ["1", "0"]], "x2": zero},
                               "weights": [0, 0]}
    raw["modules"]["bad"] = {"dim": 2, "actions": {"x1": [["0", "1"], ["0", "0"]],
                                                   "x2": [["0", "0"], ["1", "0"]]},
                             "weights": [0, 0]}
    for name, mods in (("mixed", ["k2w", "k2"]), ("twomover", ["k2w", "mover"]),
                       ("twobad", ["k2w", "bad"])):
        raw["complexes"][name] = {"window": [0, 1], "modules": mods, "differentials": {}}
    path = str(tmp_path / "weighted.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    twop = dict(json.load(open(TWOP)), field=field)
    twop_path = str(tmp_path / "twopoint.json")
    with open(twop_path, "w") as fh:
        json.dump(twop, fh)
    mixed = "input error: either every module of a complex carries weights or none does\n"
    mover = "input error: module 'mover': action of generator 0 is not weight-homogeneous\n"
    beta = "input error: trivial module requires beta = 0\n"
    bad = "input error: module 'bad': relation 0 of P does not annihilate the module\n"
    cases = [(["apply-g", path, "--complex", "mixed", "--window=-4:2"], mixed),
             (["tor", path, "--module", "mixed", "--range", "0..2"], mixed),
             (["sigma-trunc", path, "--complex", "mixed", "--at", "0"], mixed),
             (["ce", path, "--module", "mover", "--window=-3:1", "--filtration", "3"], mover),
             (["sigma-trunc", path, "--complex", "mover", "--at", "0"], mover),
             (["tor", path, "--module", "twomover", "--range", "0..2"], mover),
             (["ce", twop_path], beta),
             (["tor", twop_path, "--module", "k", "--range", "0..2"], beta),
             (["counit", twop_path, "--complex", "k"], beta),
             (["sigma-trunc", path, "--complex", "twobad", "--at", "0"], bad),
             (["tor", path, "--module", "twobad", "--range", "0..2"], bad)]
    for argv, err in cases:
        for extra in ([], ["--json"]):
            assert cli.main(argv + extra) == 2
            assert capsys.readouterr() == ("", err)
    # the weighted module and its neighbours of the same files are still read
    assert cli.main(["sigma-trunc", path, "--complex", "k2w", "--at", "0"]) == 0
    assert cli.main(["sigma-trunc", twop_path, "--complex", "k1", "--at", "0"]) == 0


def test_weighted_merge_position_test_exit_two(tmp_path):
    """Over generators of weight 2 the merge of free dual modules carries no
    weights, so the position null test refuses the complex as input,
    naming the unit-weight requirement, and not as a failed certificate."""
    raw = json.load(open(SYM2))
    raw["weights"] = [2, 2]
    path = tmp_path / "sym2w.json"
    path.write_text(json.dumps(raw))
    for flags in ((), ("--json",)):
        out = subprocess.run([sys.executable, "-m", "koszul_kit.cli", "null-cofree", str(path),
                              "--free-dual", "spliced", "--degree", "4", *flags],
                             capture_output=True, text=True, env=ENV, cwd=PKG)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == ("MissingWeightsError: position test needs unit weights: a merged "
                              "complex of free dual modules has weights only when every "
                              "generator has weight 1\n")


@pytest.mark.parametrize("field", [{"type": "Q"}, {"type": "Fp", "p": 3}], ids=["Q", "F3"])
def test_weighted_tor_whose_d_moves_weight_exit_two(tmp_path, field):
    """Two weighted inputs whose complex has a d that joins two weights:
    G(M) of n = k[x1]/(x1^2) with weights [0, 1] over generators of weight
    1, where G's term x_g f(x_g* t) moves weight by 2, and the identity
    k -> k declared from weight 0 to weight 1.  The per-weight blocks
    would drop those entries and print a wrong Tor; the weight split
    refuses them, naming the degree and both weights.  Without weights the
    same n has Tor [1, 2, 1, 0]."""
    raw = json.load(open(SYM2))
    raw["field"] = field
    zero = [["0", "0"], ["0", "0"]]
    raw["modules"]["n"] = {"dim": 2, "actions": {"x1": [["0", "0"], ["1", "0"]], "x2": zero}}
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(raw))
    assert run_cli("tor", str(plain), "--module", "n", "--range", "0..3") == (
        "Tor_p(k, n) for p = 0..3: [1, 2, 1, 0]\n")
    raw["weights"] = [1, 1]
    raw["modules"]["n"]["weights"] = [0, 1]
    for name, w in (("k0", 0), ("k1", 1)):
        raw["modules"][name] = {"dim": 1, "actions": {"x1": [["0"]], "x2": [["0"]]},
                                "weights": [w]}
    raw["complexes"]["idk"] = {"window": [0, 1], "modules": ["k0", "k1"],
                               "differentials": {"0": [["1"]]}}
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(raw))
    for module, weights in (("n", "-2 to weight 0"), ("idk", "-2 to weight -1")):
        for flags in ((), ("--json",)):
            out = subprocess.run([sys.executable, "-m", "koszul_kit.cli", "tor", str(path),
                                  "--module", module, "--range", "0..3", *flags],
                                 capture_output=True, text=True, env=ENV, cwd=PKG)
            assert (out.returncode, out.stdout) == (2, "")
            assert out.stderr == ("InconsistentDataError: d does not keep weight at degree -2: "
                                  f"an entry joins weight {weights}\n")


# -- the argument parser ----------------------------------------------------------


def _reference_parser():
    """``cli.build_parser`` as it was before the help width was read once
    per build: every formatter reads the terminal width itself."""
    ap = argparse.ArgumentParser(
        prog="koszul-kit",
        description="Exact Koszul-duality computations for nonhomogeneous "
                    "quadratic algebras and their curved dual dgas.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, extras in cli.COMMANDS.items():
        sp = sub.add_parser(name)
        cli._add_common(sp)
        if "cdg" in extras:
            sp.add_argument("--cdg", required=True, help="named cdg module (or 'k')")
        if "cdg?" in extras:
            sp.add_argument("--cdg", help="named cdg module (or 'k')")
        if "complex" in extras:
            sp.add_argument("--complex", required=True,
                            help="named U-complex (or module name)")
        if "complex?" in extras:
            sp.add_argument("--complex", help="named U-complex")
        if "module" in extras:
            sp.add_argument("--module", default="k")
        if "range" in extras:
            sp.add_argument("--range", type=cli._parse_range, default=(0, 4))
        if "cross_check" in extras:
            sp.add_argument("--cross-check", dest="cross_check", action="store_true",
                            help="also read Tor off k tensor_U FG(M); that complex is "
                                 "G(M) again, so this only re-checks F's unit rows")
        if "free" in extras:
            sp.add_argument("--free", required=True, help="named free complex")
        if "free_dual?" in extras:
            sp.add_argument("--free-dual", dest="free_dual",
                            help="named complex of free dual modules")
        if "at" in extras:
            sp.add_argument("--at", type=int, required=True)
        if "r" in extras:
            sp.add_argument("--r", type=int, required=True)
        if "seed" in extras:
            env = os.environ.get("KOSZUL_SEED")
            sp.add_argument("--seed", type=int,
                            default=int(env) if env else 0)
        if "corrupt_sign_debug" in extras:
            sp.add_argument("--corrupt-sign-debug", dest="corrupt_sign_debug",
                            action="store_true")
    return ap


def _outcome(parse):
    """(exit code or parsed namespace, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = vars(parse())
        except SystemExit as e:
            got = e.code
    return got, out.getvalue(), err.getvalue()


def _parse(build, argv):
    """The ``_outcome`` of ``build().parse_args(argv)``."""
    return _outcome(lambda: build().parse_args(argv))


@pytest.mark.parametrize("columns", ["80", "37", "200"])
def test_parser_help_and_errors_match_reference(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setenv("KOSZUL_SEED", "7")
    argvs = [["--help"], [], ["nope"], ["pbw", "--degree", "x"], ["ce", "--window", "1"],
             ["apply-g", "f.json"], ["tor", "--range", "0..x"], ["selftest"],
             ["regrade", "f.json", "--cdg", "k", "--r", "2", "--json", "--extra"],
             ["tor", "f.json", "--range", "1..3", "--cross-check"]]
    argvs += [[name, "--help"] for name in cli.COMMANDS]
    # tokens argparse reads as positional though they start with "-", options
    # before the command, and extra positionals after it
    argvs += [["--", "ce", "f.json"], ["-5", "ce"], ["-", "pbw"], ["-x y", "counit"],
              ["--json", "ce", "f.json"], ["--he"], ["ce", "null-free", "minimize"]]
    for argv in argvs:
        got = _parse(cli.build_parser, argv)
        assert got == _parse(_reference_parser, argv), argv
        assert got[0] in (0, 2) or isinstance(got[0], dict)
        assert _outcome(lambda: cli.parse_args(argv)) == got, argv


TOKENS = [*cli.COMMANDS, "-h", "--help", "--", "-5", "-", "--json", "f.json",
          "--degree", "x", "--window", "1:2", "--cdg", "k", "--r", "2", "--seed",
          "--nope", "-x y", "--range", "--at", "--complex"]


@settings(max_examples=150)
@given(st.lists(st.sampled_from(TOKENS), max_size=6))
def test_parser_matches_reference_on_drawn_argvs(argv):
    for columns in ("80", "37"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("COLUMNS", columns)
            mp.setenv("KOSZUL_SEED", "7")
            got = _parse(cli.build_parser, argv)
            assert got == _parse(_reference_parser, argv), (columns, argv)
            assert _outcome(lambda: cli.parse_args(argv)) == got, (columns, argv)


def test_parse_args_builds_one_parser_for_a_command_line(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.parse_args(["ce", "f.json"]).command == "ce"
    assert built == ["koszul-kit ce"]


def test_trailing_unknown_flag_is_reported_by_the_top_level():
    out = subprocess.run([sys.executable, "-m", "koszul_kit.cli", "dual", SYM2, "--nope"],
                         capture_output=True, text=True, env=ENV, cwd=PKG)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("usage: koszul-kit [-h]")
    assert out.stderr.endswith("\nkoszul-kit: error: unrecognized arguments: --nope\n")


def test_main_reads_sys_argv(monkeypatch, capsys):
    assert cli.main(["dual", SYM2, "--json"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["koszul-kit", "dual", SYM2, "--json"])
    assert cli.main() == 0
    assert capsys.readouterr().out == expected


def test_malformed_env_seed_fails_selftest_only(monkeypatch):
    env = dict(ENV, KOSZUL_SEED="abc")
    run_cli("dual", SYM2, env=env)
    run_cli("selftest", expect=2, env=env)
    monkeypatch.setenv("KOSZUL_SEED", "abc")
    code, out, err = _parse(cli.build_parser, ["selftest"])
    assert code == 2 and out == ""
    assert err.endswith("error: argument --seed: invalid int value: 'abc'\n")
    argv = ["selftest", "--seed", "3"]
    assert _parse(cli.build_parser, argv)[0]["seed"] == 3
