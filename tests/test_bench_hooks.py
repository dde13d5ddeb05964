"""The hooks the benchmark's ``--trace 1`` pass patches still fire.

The benchmark (``perfbench/``) wraps library functions and methods by name
from outside.  Its own tests are not part of this suite, so this guard runs
one small CLI command under both of its patch sets and checks that the
spans and counters it reads are reached.
"""

import contextlib
import importlib
import io
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import layers  # noqa: E402
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
    stale = [f"{mod.__name__}.{attr}" for mod in list(sys.modules.values())
             if getattr(mod, "__name__", "").startswith("koszul_kit")
             for attr, val in vars(mod).items() if hasattr(val, "__wrapped__")]
    assert stale == []
