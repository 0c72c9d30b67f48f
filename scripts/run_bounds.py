#!/usr/bin/env python3
"""Sweep the kinematical bounds and persistence durations for LiCl.

Writes one CSV per (process, temperature) with the attainable maxima of
<cos theta> and <cos^2 theta> for cutoffs j_max = 1..12 at 5 K and 10 K,
plus the fraction of a rotational period the block-optimal state keeps its
expectation above 0.5.

With --j-max-hi J [J ...] both presets are rerun with each upper cutoff J
in place of the presets' 12, so the sweep runs over j_max = 1..J, and the
wall time of each run (all temperatures) is printed, e.g.
`scripts/run_bounds.py --j-max-hi 12 16 20 24`.
"""

import argparse
import contextlib
import io
import os
import time

from rotorkick.cli import main
from rotorkick.config import PRESETS as CONFIGS

PRESETS = ("licl-5K", "licl-5K-alignment")


def _bounds(args: list[str]) -> None:
    code = main(["bounds", *args])
    if code != 0:
        raise SystemExit(code)


def run(out_dir: str, j_max_his: list[int] | None = None) -> None:
    if not j_max_his:
        for preset in PRESETS:
            _bounds(["--preset", preset, "--out", out_dir])
        return
    for j_max_hi in j_max_his:
        for preset in PRESETS:
            out = os.path.join(out_dir, f"jmax{j_max_hi}", preset)
            os.makedirs(out, exist_ok=True)
            config = CONFIGS[preset]
            path = os.path.join(out, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config.with_overrides(j_max_range=(config.j_max_range[0], j_max_hi), out_dir=out).to_json())
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):  # the output paths
                _bounds(["--config", path])
            print(f"j_max_hi={j_max_hi} {preset}: {time.perf_counter() - start:.2f} s", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="results/bounds", help="output directory")
    parser.add_argument(
        "--j-max-hi", type=int, nargs="+", metavar="J", help="upper cutoffs of the sweep to time (default: the presets)"
    )
    args = parser.parse_args()
    run(args.out, args.j_max_hi)
