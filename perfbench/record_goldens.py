#!/usr/bin/env python3
"""Record goldens.json: exit code and stdout of every workload command at seed 0.

    python3 perfbench/record_goldens.py

The committed goldens were recorded from the commit that introduced the
benchmark; the benchmark checks seed-0 stdout against them byte for byte.
Re-record only in a change that alters the benchmark's commands, never in
one that claims a speed-up.  Commands in KNOWN_DEFECTS are not recorded:
what the program prints for them today is wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import run
from workloads import KNOWN_DEFECTS, WORKLOADS


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    cli = run.load_cli()
    goldens = {}
    with tempfile.TemporaryDirectory(prefix="_work-", dir=run.HERE) as gen_dir:
        run.problems.write_problems(gen_dir, 0)
        for templates in WORKLOADS.values():
            for template in templates:
                if template in KNOWN_DEFECTS or template in goldens:
                    continue
                code, out, err, wall, _ = run.run_command(cli, run.Command(template, gen_dir))
                goldens[template] = {"exit_code": code, "stdout": out}
                sys.stderr.write(f"{wall:7.2f}s exit {code} {template}\n")
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
