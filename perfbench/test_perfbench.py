"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import problems  # noqa: E402
import run  # noqa: E402
from tracer import CallCounter, Patcher, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tally(workload, seed, gen_dir):
    cli = run.load_cli()
    with open(run.GOLDENS) as fh:
        goldens = json.load(fh)
    commands = [run.Command(t, gen_dir) for t in WORKLOADS[workload]]
    return cli, run.Tally(cli, commands, seed, goldens)


def _count_pass(tally):
    counter, patcher = CallCounter(), Patcher()
    try:
        layers.install_counters(patcher, counter)
        tally.run_pass()
    finally:
        patcher.restore()
    return layers.count_metrics(counter)


def test_count_pass_repeats_exactly():
    with tempfile.TemporaryDirectory() as gen_dir:
        problems.write_problems(gen_dir, 1)
        _, tally = _tally("small-corpus", 1, gen_dir)
        first, second = _count_pass(tally), _count_pass(tally)
    assert first == second
    assert first["scalars.ops"] > 0 and first["linalg.echelon.inserts"] > 0
    assert tally.unexpected == []


def test_spans_reach_every_binding_and_are_restored():
    cli = run.load_cli()
    from koszul_kit import deformations, selftest
    orig = deformations.build_U
    rec, patcher = SpanRecorder(), Patcher()
    try:
        layers.install_spans(patcher, rec)
        assert cli.build_U is deformations.build_U is selftest.build_U
        assert cli.build_U is not orig
    finally:
        patcher.restore()
    assert cli.build_U is orig and selftest.build_U is orig


def test_change_of_basis_is_unimodular():
    for dim in (2, 3, 4):
        assert problems.change_of_basis(dim, 0) == [
            [int(a == b) for b in range(dim)] for a in range(dim)]
        for seed in range(1, 6):
            m = problems.change_of_basis(dim, seed)
            assert abs(_det(m)) == 1
            assert all(x != 0 for row in m for x in row)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_without_sources_exits_nonzero_and_prints_nothing():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "u-side",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_matches_the_metrics_printed():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
