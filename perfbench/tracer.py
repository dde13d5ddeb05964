"""Outside-in tracing of koszul_kit: spans and counters from wrappers.

No library code is edited.  For one pass, each traced public function is
replaced in every ``koszul_kit`` module namespace that binds it (the CLI
does ``from .deformations import build_U``, so patching the defining
module alone would miss its calls), and each traced method is replaced on
its class.  ``Patcher.restore`` puts every original back.

Two recorders, used in separate passes:

* ``SpanRecorder`` times spans with ``time.perf_counter``.  A span's self
  time is its duration minus the durations of its direct child spans.
  Size counters read from a span's arguments and result are recorded here.
* ``CallCounter`` only counts calls.  It wraps the ``Field`` methods and
  the ``EchelonSpan``/``mult_basis`` hot paths, which run ~10^7 times per
  workload; timing them would distort every self time above them.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "koszul_kit"


class Patcher:
    """Replaces functions and methods and restores the originals."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make):
        """Wrap ``module.name`` in every koszul_kit namespace that binds it."""
        orig = getattr(module, name)
        new = functools.wraps(orig)(make(orig))
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != PACKAGE:
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, new)

    def method(self, cls, name, make):
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, functools.wraps(orig)(make(orig)))

    def restore(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)


class SpanRecorder:
    """Per span name: calls, total seconds and self seconds; plus sizes."""

    def __init__(self):
        self.spans = {}   # name -> [calls, total_s, self_s]
        self.sizes = {}   # name -> number
        self._stack = []  # child seconds accumulated by each open span

    def add(self, name, value):
        self.sizes[name] = self.sizes.get(name, 0) + value

    def span(self, name, observe=None):
        """Wrapper factory timing ``name``; ``observe(rec, args, result)``
        runs after the span closes, outside the span's own time."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dt
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - child
                if observe is not None:
                    observe(self, args, result)
                return result
            return wrapper
        return make


class CallCounter:
    """Exact call counts; ``counts[name]`` is a one-element list."""

    def __init__(self):
        self.counts = {}

    def cell(self, name):
        return self.counts.setdefault(name, [0])

    def calls(self, name, also=None):
        """Count calls under ``name`` (and the shared total ``also``)."""
        cell = self.cell(name)
        total = self.cell(also) if also else None

        def make(fn):
            if total is None:
                def wrapper(*args, **kwargs):
                    cell[0] += 1
                    return fn(*args, **kwargs)
            else:
                def wrapper(*args, **kwargs):
                    cell[0] += 1
                    total[0] += 1
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def calls_and_hits(self, name, hit_name, is_hit):
        """Count calls, and separately those where ``is_hit(args)`` holds
        before the call runs."""
        cell, hits = self.cell(name), self.cell(hit_name)

        def make(fn):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                if is_hit(args):
                    hits[0] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def calls_and_true(self, name, true_name):
        """Count calls, and separately those that return a true value."""
        cell, grew = self.cell(name), self.cell(true_name)

        def make(fn):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                result = fn(*args, **kwargs)
                if result:
                    grew[0] += 1
                return result
            return wrapper
        return make

    def value(self, name):
        return self.counts.get(name, [0])[0]
