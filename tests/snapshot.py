"""The key outputs of every command on every preset, and the committed snapshot of them.

collect() runs each command of the CLI in-process on each preset, with the
file writers replaced by recorders, and flattens what the command would
write into keys such as "simulate/licl-5K/train_idealized.json/maxima/3":
every cell of a row table (the bound rows), the row count of a column
table (a time series), and every entry of a JSON payload except the config
hash (kick times, maxima, final efficiency and durations, dim_L, D', r,
dim_span and the multiplicities).  A different number of kicks or rows
shows as missing and extra keys.

snapshot.json holds the floats as float.hex and every other value as it is,
with the relative tolerance that floats are compared to.  Re-record it with
scripts/record_snapshot.py.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from rotorkick import cli
from rotorkick.config import PRESETS

SNAPSHOT = Path(__file__).with_name("snapshot.json")
COMMANDS = ("bounds", "simulate", "controllability", "fixedpoints")
REL_TOL = 1e-12


def _run(command: str, preset: str) -> dict:
    """What cmd_<command> writes on the preset, keyed by file name, without writing it."""
    written = {}

    def record_csv(path, header, rows=(), config_hash=None, columns=None):
        table = {"rows": int(columns[0].size)} if columns is not None else [dict(zip(header, row)) for row in rows]
        written[os.path.basename(path)] = table

    def record_json(path, payload, config_hash=None):
        written[os.path.basename(path)] = payload

    saved = cli.write_csv, cli.write_json
    cli.write_csv, cli.write_json = record_csv, record_json
    try:
        getattr(cli, f"cmd_{command}")(PRESETS[preset])
    finally:
        cli.write_csv, cli.write_json = saved
    return written


def _flatten(key: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for name, item in value.items():
            _flatten(f"{key}/{name}", item, out)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for k, item in enumerate(value):
            _flatten(f"{key}/{k}", item, out)
    elif isinstance(value, (bool, np.bool_)):
        out[key] = bool(value)
    elif isinstance(value, (int, np.integer)):
        out[key] = int(value)
    elif isinstance(value, (float, np.floating)):
        out[key] = float(value)
    else:  # str or None
        out[key] = value


def collect() -> dict:
    """Every key output of every command on every preset, flat: key -> float, int, bool, str or None."""
    out: dict = {}
    for command in COMMANDS:
        for preset in PRESETS:
            _flatten(f"{command}/{preset}", _run(command, preset), out)
    return out


def encode(values: dict) -> dict:
    floats = {k: v.hex() for k, v in values.items() if isinstance(v, float)}
    exact = {k: v for k, v in values.items() if not isinstance(v, float)}
    return {"rel_tol": REL_TOL, "floats": floats, "exact": exact}


def decode(document: dict) -> dict:
    return {**document["exact"], **{k: float.fromhex(v) for k, v in document["floats"].items()}}


def load() -> tuple[dict, float]:
    """The recorded values and their relative float tolerance."""
    document = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    return decode(document), document["rel_tol"]


def record() -> None:
    SNAPSHOT.write_text(json.dumps(encode(collect()), indent=1, sort_keys=True) + "\n", encoding="utf-8")


def differences(expected: dict, got: dict, rel_tol: float) -> list[str]:
    """One line per key that is missing, extra or different: floats within rel_tol, all else exactly."""
    lines = [f"{k}: missing" for k in sorted(expected.keys() - got.keys())]
    lines += [f"{k}: extra, {got[k]!r}" for k in sorted(got.keys() - expected.keys())]
    for k in sorted(expected.keys() & got.keys()):
        a, b = expected[k], got[k]
        if isinstance(a, float) and isinstance(b, float):
            same = a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= rel_tol * max(abs(a), abs(b))
        else:
            same = type(a) is type(b) and a == b
        if not same:
            lines.append(f"{k}: expected {a!r}, got {b!r}")
    return lines
