#!/usr/bin/env python3
"""Run the greedy pulse trains for the LiCl reference configurations.

Each preset produces the time series of the observable expectation and the
target overlap, for both the control-space propagation and the enlarged
j_sim propagation, together with the per-kick record (times, amplitudes,
maxima, slopes) and the post-train figures of merit.

With --j-sim J [J ...] every preset is rerun with each enlarged cutoff J in
place of the preset's j_sim = 16, and the wall time of each run (both
modes) is printed with the process's peak RSS so far (ru_maxrss), e.g.
`scripts/run_trains.py --j-sim 16 24 32 48 96 128 256`.  The first line
is the peak of one licl-5K run; later lines include every run before them.
"""

import argparse
import contextlib
import io
import os
import resource
import time

from rotorkick.cli import main
from rotorkick.config import PRESETS as CONFIGS

PRESETS = ("licl-5K", "licl-5K-s2", "licl-5K-alignment", "licl-5K-alignment-s2")


def _simulate(args: list[str]) -> None:
    code = main(["simulate", *args])
    if code != 0:
        raise SystemExit(code)


def run(out_dir: str, j_sims: list[int] | None = None) -> None:
    if not j_sims:
        for preset in PRESETS:
            _simulate(["--preset", preset, "--out", os.path.join(out_dir, preset)])
        return
    for j_sim in j_sims:
        for preset in PRESETS:
            out = os.path.join(out_dir, f"jsim{j_sim}", preset)
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(CONFIGS[preset].with_overrides(j_sim=j_sim, out_dir=out).to_json())
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):  # the output paths
                _simulate(["--config", path])
            elapsed = time.perf_counter() - start
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
            print(f"j_sim={j_sim} {preset}: {elapsed:.2f} s, peak RSS {peak_mb:.1f} MB", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="results/trains", help="output directory")
    parser.add_argument("--j-sim", type=int, nargs="+", metavar="J", help="enlarged cutoffs to time (default: the presets)")
    args = parser.parse_args()
    run(args.out, args.j_sim)
