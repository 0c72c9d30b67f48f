#!/usr/bin/env python3
"""Tabulate the dynamical Lie-algebra dimensions for a list of cutoffs.

For each cutoff (j_max = 1..3 unless --j-max says otherwise) and both
processes, reports the computed algebra dimension against the counts
required for general and for symmetry-restricted simultaneous
controllability of the invariant blocks.

Each preset runs as a `controllability` command in a fresh process, so
that no run reuses a basis another one built, and the wall time of that
process, interpreter start-up and imports included, is printed after its
output paths.  For the time of one cutoff, pass it alone, e.g.
`scripts/run_algebra_tables.py --j-max 500`.
"""

import argparse
import subprocess
import sys
import time

PRESETS = ("licl-5K", "licl-5K-alignment")


def run(out_dir: str, j_values: list[int]) -> None:
    for preset in PRESETS:
        command = ["controllability", "--preset", preset, "--out", out_dir, "--j-max", *map(str, j_values)]
        start = time.perf_counter()
        code = subprocess.run([sys.executable, "-m", "rotorkick.cli", *command]).returncode
        if code != 0:
            raise SystemExit(code)
        print(f"{preset}: {time.perf_counter() - start:.3f} s", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="results/algebra", help="output directory")
    parser.add_argument("--j-max", type=int, nargs="+", default=[1, 2, 3], metavar="J", help="cutoffs to analyze (default: 1 2 3)")
    args = parser.parse_args()
    run(args.out, args.j_max)
