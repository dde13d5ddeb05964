"""The hooks the benchmark's ``--trace 1`` pass patches still fire.

The benchmark (``perfbench/``) wraps library functions and methods by name
from outside.  Its own tests are not part of this suite, so this guard runs
one small CLI command, and then every command of each workload, under both
of its patch sets and checks that the spans and counters it reads are
reached.  A traced run fails when a patched name is gone or has moved, a
command fails only under the wrappers, an expected span never fires or an
expected counter stays 0.
"""

import contextlib
import importlib
import io
import os
import shlex
import sys
import types

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import layers  # noqa: E402
import problems  # noqa: E402
import workloads  # noqa: E402
from tracer import CallCounter, Patcher, SpanRecorder  # noqa: E402

from koszul_kit import cli  # noqa: E402

# The patcher wraps a function in the koszul_kit namespaces loaded when it
# patches.  A module first imported while it patches binds a wrapper that
# restore() never puts back, so every module the span and counter sets
# name, and ``module_commands``, which ``cli.main`` loads on first use, is
# imported before the first patch.
PATCHED = sorted({entry[1] for entry in layers.SPAN_FUNCTIONS + layers.SPAN_METHODS}
                 | {"scalars", "linalg", "deformations", "module_commands"})
for name in PATCHED:
    importlib.import_module(f"koszul_kit.{name}")

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples_cli")
# reaches truncate_algebra, build_U and mult_basis in about a second
COUNIT = ["counit", os.path.join(EXAMPLES, "symmetric2.json"), "--complex", "k",
          "--window=-4:1", "--filtration", "4", "--json"]


def _run_patched(install, recorder):
    patcher = Patcher()
    try:
        install(patcher, recorder)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(COUNIT)) == 0
    finally:
        patcher.restore()


def test_trace_hooks_fire():
    rec, counter = SpanRecorder(), CallCounter()
    _run_patched(layers.install_spans, rec)
    _run_patched(layers.install_counters, counter)
    spans = layers.span_metrics(rec)
    counts = layers.count_metrics(counter)
    assert spans["presentations.basis_words"] > 0
    assert spans["deformations.build_U.span_dim"] > 0
    # span.dim() counts the words rewriting moves: ambient minus basis
    assert spans["deformations.build_U.span_dim"] == (
        spans["deformations.build_U.ambient_words"] - spans["deformations.build_U.basis_dim"])
    assert counts["linalg.echelon.inserts"] > 0
    assert counts["deformations.mult_basis.calls"] > 0
    assert _stale_wrappers() == []


def _stale_wrappers():
    """Every wrapper left in a koszul_kit namespace or on a patched class."""
    classes = [getattr(importlib.import_module(f"koszul_kit.{mod}"), cls)
               for _, mod, cls, _ in layers.SPAN_METHODS]
    classes += [importlib.import_module("koszul_kit.scalars").Field,
                importlib.import_module("koszul_kit.linalg").EchelonSpan,
                importlib.import_module("koszul_kit.deformations").FilteredAlgebraTruncation]
    spaces = [mod for mod in list(sys.modules.values())
              if getattr(mod, "__name__", "").startswith("koszul_kit")] + classes
    return [f"{space.__name__}.{attr}" for space in spaces for attr, val in vars(space).items()
            if isinstance(val, types.FunctionType) and hasattr(val, "__wrapped__")]


def _run_workload(argvs, install=None, recorder=None):
    """(exit code, stdout) of each command, under one patch set if given."""
    patcher = Patcher()
    results = []
    try:
        if install is not None:
            install(patcher, recorder)
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            results.append((code, out.getvalue()))
    finally:
        patcher.restore()
    return results


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_trace_hooks_fire(workload, tmp_path):
    """Each command of the workload, on its problem files of seed 1, once
    untraced and once under each patch set, as ``run.py --trace 1`` runs
    it: the same exit code and stdout under the wrappers, every span of
    ``EXPECTED_SPANS`` fired, every counter of ``EXPECTED_COUNTS`` moved,
    and no wrapper left behind."""
    problems.write_problems(str(tmp_path), 1)
    argvs = [shlex.split(t.format(ex=EXAMPLES, gen=tmp_path)) + ["--json"]
             for t in workloads.WORKLOADS[workload]]
    plain = _run_workload(argvs)
    rec, counter = SpanRecorder(), CallCounter()
    assert _run_workload(argvs, layers.install_spans, rec) == plain
    assert _run_workload(argvs, layers.install_counters, counter) == plain
    values = {**layers.span_metrics(rec), **layers.count_metrics(counter)}
    assert [s for s in workloads.EXPECTED_SPANS[workload] if not rec.spans.get(s, [0])[0]] == []
    assert [c for c in workloads.EXPECTED_COUNTS[workload] if not values[c]] == []
    assert _stale_wrappers() == []
