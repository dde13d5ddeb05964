#!/usr/bin/env python3
"""koszul-kit benchmark: time to a certified answer, end to end and per layer.

    python3 perfbench/run.py --workload u-side --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py) through
``koszul_kit.cli.main(argv + ["--json"])`` in this process, checks every
output, and prints one JSON line as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.

The load is a closed loop with one client: commands run one after another
on a single thread.  ``--trace 0`` repeats whole passes over the commands
until ``--seconds`` is spent (at least three passes).  Each timed call is
divided by the time of a fixed reference kernel run next to it (see
``Reference``), each command's median ratio is taken, and ratios are turned
back into seconds at the reference host speed ``REFERENCE_S``.
``--trace 1`` runs every command untraced and then with timed spans, makes
one count-only pass, and prints the per-layer metrics of layers.py.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import layers
import problems
from tracer import CallCounter, Patcher, SpanRecorder
from workloads import (
    EXPECTED_COUNTS,
    EXPECTED_SPANS,
    INVARIANT_ERRORS,
    KNOWN_DEFECTS,
    WORKLOADS,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples_cli"
GOLDENS = HERE / "goldens.json"

MIN_PASSES = 3
SETUP_PER_PASS = 3
# Time of reference_kernel on the 2-core host the baseline was recorded on,
# when that host ran at its fastest; times are reported at that speed.
REFERENCE_S = 0.015

# A fresh interpreter imports the CLI and parses every problem file of the
# workload, as a user's first command does before any computation.
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from koszul_kit.cli import Problem
for path in sys.argv[2:]:
    with open(path) as fh:
        Problem(json.load(fh)).deformation()
"""


class Command:
    def __init__(self, template: str, gen_dir: str):
        self.template = template
        self.generated = "{gen}" in template
        self.argv = shlex.split(template.format(ex=EXAMPLES, gen=gen_dir)) + ["--json"]

    @property
    def problem_file(self):
        return self.argv[1] if not self.argv[1].startswith("-") else None


def load_cli():
    if not (SRC / "koszul_kit" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no koszul_kit sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from koszul_kit import cli
    if Path(cli.__file__).resolve().parent != SRC / "koszul_kit":
        sys.stderr.write(f"perfbench: imported {cli.__file__}, not the checkout\n")
        sys.exit(2)
    return cli


def run_command(cli, cmd: Command):
    """One CLI call; returns (exit code, stdout, stderr, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    c0 = _cpu()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
        except Exception as e:  # any crash counts as a failed command
            code = None
            err.write(f"{type(e).__name__}: {e}\n")
    wall = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), wall, _cpu() - c0


def _cpu():
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def invariants(x):
    """Verdicts and dimensions of a JSON payload: every non-string leaf.

    Field elements are printed as strings, so this keeps what a change of
    generator basis leaves fixed and drops the coordinates it changes."""
    if isinstance(x, dict):
        return {k: invariants(v) for k, v in x.items() if not isinstance(v, str)}
    if isinstance(x, list):
        return [invariants(v) for v in x if not isinstance(v, str)]
    return x


def failure(cmd: Command, seed: int, goldens: dict, code, out: str, err: str):
    """Why the command's result is wrong, or None if it is right."""
    error_name = err.partition(":")[0].strip()
    if error_name in INVARIANT_ERRORS:
        return f"internal invariant error: {err.strip()}"
    expected = KNOWN_DEFECTS.get(cmd.template)
    golden = goldens[cmd.template] if expected is None else None
    want_code = expected["exit_code"] if golden is None else golden["exit_code"]
    if code != want_code:
        return f"exit {code}, expected {want_code}: {err.strip()}"
    if golden is not None and (seed == 0 or not cmd.generated):
        return None if out == golden["stdout"] else "stdout differs from the golden"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if golden is None:
        bad = [k for k, v in expected.items() if payload.get(k) != v]
        return f"fields differ: {bad}" if bad else None
    want = invariants(json.loads(golden["stdout"]))
    return None if invariants(payload) == want else "verdicts or dimensions differ from seed 0"


def reference_kernel():
    """Fixed pure-Python work in the library's mix of operations: Fraction
    and modular int arithmetic, dict traffic.  It calls no library code."""
    acc = Fraction(0)
    row = {}
    x = 1
    for i in range(1, 6000):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        x = (x * 31 + i) % 32003
        k = x % 211
        row[k] = row.get(k, 0) + x
    return acc, x, sum(row.values())


class Reference:
    """Host speed, sampled next to every timed call.

    On a shared host the speed of the CPU itself drifts by up to 2x within a
    minute (CPU time drifts with wall time, so nothing waits).  Every timed
    call is divided by the mean time of ``reference_kernel`` run just before
    and just after it; within a run these ratios are steady where raw times
    are not.  ``REFERENCE_S`` turns a ratio back into seconds.
    """

    def __init__(self):
        self.last = self._sample()

    @staticmethod
    def _sample():
        c0, t0 = time.process_time(), time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0, time.process_time() - c0

    def ratio(self, wall, cpu):
        """(wall, cpu) of the call just made, in kernel times."""
        nxt = self._sample()
        ref_wall = (self.last[0] + nxt[0]) / 2
        ref_cpu = (self.last[1] + nxt[1]) / 2
        self.last = nxt
        return wall / ref_wall, cpu / ref_cpu


class Tally:
    """Runs commands, checks them, and keeps per-command times."""

    def __init__(self, cli, commands, seed, goldens):
        self.cli, self.commands, self.seed, self.goldens = cli, commands, seed, goldens
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures outside KNOWN_DEFECTS
        self.walls = {c.template: [] for c in commands}  # raw, or in kernel times
        self.cpus = {c.template: [] for c in commands}

    def run_one(self, cmd: Command, ref: Reference = None) -> float:
        """Run and check one command; return its raw wall time.  With
        ``ref``, its times are kept as ratios to the kernel."""
        code, out, err, wall, cpu = run_command(self.cli, cmd)
        raw = wall
        if ref is not None:
            wall, cpu = ref.ratio(wall, cpu)
        self.attempted += 1
        self.walls[cmd.template].append(wall)
        self.cpus[cmd.template].append(cpu)
        why = failure(cmd, self.seed, self.goldens, code, out, err)
        if why is not None:
            self.failed += 1
            if cmd.template not in KNOWN_DEFECTS:
                self.unexpected.append(f"{cmd.template}: {why}")
        return raw

    def run_pass(self, ref: Reference = None):
        for cmd in self.commands:
            self.run_one(cmd, ref)


def setup_once(files) -> float:
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
    # which would quantize the measurement.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *files],
                   check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def timed_run(tally: Tally, seconds: float) -> dict:
    files = sorted({c.problem_file for c in tally.commands if c.problem_file})
    setup_once(files)  # warm the interpreter's file and bytecode caches
    ref = Reference()
    setups = []
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        start = time.perf_counter()
        # set-up samples are spread over the run like the commands' repeats
        for _ in range(SETUP_PER_PASS):
            s = setup_once(files)
            setups.append(ref.ratio(s, s)[0])
        tally.run_pass(ref)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now + (now - start) > deadline:
            break
    wall = [statistics.median(v) * REFERENCE_S for v in tally.walls.values()]
    cpu = [statistics.median(v) * REFERENCE_S for v in tally.cpus.values()]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (sum(wall), "s"),
        "slowest_cmd_s": (max(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setups) * REFERENCE_S, "s"),
        "ops_ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def traced_run(tally: Tally, workload: str) -> dict:
    # Each command runs untraced, then with spans, back to back, so host
    # drift between the two largely cancels in trace.overhead_s.
    rec, patcher = SpanRecorder(), Patcher()
    untraced = traced = 0.0
    for cmd in tally.commands:
        untraced += tally.run_one(cmd)
        try:
            layers.install_spans(patcher, rec)
            traced += tally.run_one(cmd)
        finally:
            patcher.restore()

    counter = CallCounter()
    try:
        layers.install_counters(patcher, counter)
        tally.run_pass()
    finally:
        patcher.restore()

    values = layers.span_metrics(rec)
    values.update(layers.count_metrics(counter))
    values["cli.commands"] = len(tally.commands)
    values["trace.overhead_s"] = traced - untraced
    for span in EXPECTED_SPANS[workload]:
        if not rec.spans.get(span, [0])[0]:
            tally.unexpected.append(f"span {span} never fired")
    for name in EXPECTED_COUNTS[workload]:
        if not values.get(name):
            tally.unexpected.append(f"counter {name} stayed 0")
    return {name: (values.get(name, 0), unit) for name, unit, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="koszul-kit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One CPU for the whole run, set-up children included: the kernel that
    # normalizes a timing must run where the timed code ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = load_cli()
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as gen_dir:
        problems.write_problems(gen_dir, args.seed)
        commands = [Command(t, gen_dir) for t in WORKLOADS[args.workload]]
        tally = Tally(cli, commands, args.seed, goldens)
        if args.trace:
            metrics = traced_run(tally, args.workload)
        else:
            metrics = timed_run(tally, args.seconds)
    for line in tally.unexpected:
        sys.stderr.write(f"perfbench: FAILED {line}\n")
    correct = not tally.unexpected
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
