#!/usr/bin/env python3
"""Tabulate the dynamical Lie-algebra dimensions for a list of cutoffs.

For each cutoff (j_max = 1..3 unless --j-max says otherwise) and both
processes, reports the computed algebra dimension against the counts
required for general and for symmetry-restricted simultaneous
controllability of the invariant blocks.
"""

import argparse

from rotorkick.cli import main


def run(out_dir: str, j_values: list[int]) -> None:
    for preset in ("licl-5K", "licl-5K-alignment"):
        code = main(["controllability", "--preset", preset, "--out", out_dir, "--j-max", *map(str, j_values)])
        if code != 0:
            raise SystemExit(code)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/algebra", help="output directory")
    parser.add_argument("--j-max", type=int, nargs="+", default=[1, 2, 3], metavar="J", help="cutoffs to analyze (default: 1 2 3)")
    args = parser.parse_args()
    run(args.out, args.j_max)
