#!/usr/bin/env python3
"""Record reference.json: one pass of every workload at the default seed.

    python3 perfbench/record_reference.py

Run it from the root of a checkout, only when a change is meant to alter
results, and say so with the change.  The exact Lie-algebra dimensions are
taken from the algebra workload and checked at every seed; the rest is
compared at the default seed only, to the tolerance stated in gate.py.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    sys.path.insert(1, os.path.abspath("src"))
    import workloads

    reference = {"dim_L": {}, "default_seed": {}}
    for workload in workloads.WORKLOADS:
        bench = run.Bench(workload, workloads.DEFAULT_SEED, trace=False, reference=None)
        bench.run_pass("plain")
        if bench.failures:
            print("\n".join(bench.failures), file=sys.stderr)
            return 1
        reference["default_seed"][workload] = bench.facts
        for cmd in bench.commands:
            if cmd.subcommand == "controllability":
                reference["dim_L"][cmd.process] = bench.facts[cmd.name]["dim_L"]
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(run.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
