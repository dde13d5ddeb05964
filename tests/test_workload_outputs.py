"""Every command of the benchmark's workloads prints its recorded answer.

The benchmark (``perfbench/``) checks each output against
``perfbench/goldens.json`` while it times the commands, so a changed
output would otherwise show up only as a refused benchmark run.  This test
runs every workload command at problem seeds 0 and 1, in process, through
the benchmark's own runner and checker (``run.run_command`` and
``run.failure``), and expects no failure outside ``KNOWN_DEFECTS``.
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import problems  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from koszul_kit import cli  # noqa: E402

TEMPLATES = list(dict.fromkeys(t for cmds in workloads.WORKLOADS.values() for t in cmds))


@pytest.mark.parametrize("seed", [0, 1])
def test_workload_outputs_match_the_goldens(tmp_path, seed):
    with open(run.GOLDENS) as fh:
        goldens = json.load(fh)
    problems.write_problems(str(tmp_path), seed)
    failures = {}
    for template in TEMPLATES:
        cmd = run.Command(template, str(tmp_path))
        code, out, err, _, _ = run.run_command(cli, cmd)
        why = run.failure(cmd, seed, goldens, code, out, err)
        if why is not None and template not in workloads.KNOWN_DEFECTS:
            failures[template] = why
    assert failures == {}
