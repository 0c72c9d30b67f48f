"""Output checks: a command counts as failed unless every check here passes.

A command passes when it exits 0, prints every path it was expected to
write, every one of those files was freshly written and carries the same
config hash, and the results satisfy the invariants of the physics:

* train kick times strictly increase; in the control space ("idealized")
  the maxima never decrease and the final efficiency stays at or below the
  linear (block-respecting) kinematical bound;
* every bounds row has optimal >= linear;
* every Lie-algebra dimension equals the exact value recorded in
  reference.json;
* the fixed-point span never exceeds its commutant-complement bound.  The
  span itself is reported, not asserted: it under-counts from j_max = 4.

At the default seed the numbers are also compared with reference.json:
values to REF_REL_TOL / REF_ABS_TOL, kick times to REF_TIME_ABS_TOL.
"""

from __future__ import annotations

import csv
import json
import math
import os

MODES = ("idealized", "physical")

MAXIMA_TOL = 1e-12  # idealized maxima may dip by roundoff only
BOUND_TOL = 1e-12  # slack on efficiency <= linear bound and optimal >= linear
MTIME_SLACK_S = 1.0  # file timestamps are coarser than the clock read at spawn
REF_REL_TOL = 1e-8
REF_ABS_TOL = 1e-9
# A kick time sits at a flat maximum, so it is far less well determined than
# the value there: refining the same peak from another sample grid moves it
# by about 1e-8 of a period.
REF_TIME_ABS_TOL = 1e-7
UNASSERTED = frozenset({"dim_span"})  # reported, never compared with the reference


def expected_files(cmd) -> list[str]:
    """File names the command writes, in the order the CLI prints them."""
    if cmd.subcommand == "simulate":
        return [name for mode in MODES for name in (f"timeseries_{mode}.csv", f"train_{mode}.json")]
    if cmd.subcommand == "bounds":
        return [f"bounds_{cmd.process}_T{t:g}K.csv" for t in cmd.config["temperatures_k"]]
    if cmd.subcommand == "controllability":
        return [f"controllability_{cmd.process}.json", f"controllability_{cmd.process}.csv"]
    return [f"fixedpoints_{cmd.process}.json"]


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: str) -> tuple[str, list[str], list[list[str]]]:
    """(config hash, header, data rows) of a CSV carrying a '# config-hash:' line."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("# config-hash: "):
            raise ValueError(f"{os.path.basename(path)} lacks the config-hash line")
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} has no header")
    return first.split(":", 1)[1].strip(), rows[0], rows[1:]


def _check_simulate(cmd, out_dir: str, problems: list[str]) -> dict:
    facts = {}
    hashes = set()
    for mode in MODES:
        train = _read_json(os.path.join(out_dir, f"train_{mode}.json"))
        hashes.add(train["config_hash"])
        n = int(train["n_kicks"])
        times = train["times_over_Trot"]
        maxima = train["maxima"]
        if len(times) != n or len(train["amplitudes"]) != n or len(maxima) != n + 1:
            problems.append(f"{mode}: {n} kicks but {len(times)} times and {len(maxima)} maxima")
        if any(b <= a for a, b in zip(times, times[1:])):
            problems.append(f"{mode}: kick times do not strictly increase")
        if mode == "idealized":
            if any(b < a - MAXIMA_TOL for a, b in zip(maxima, maxima[1:])):
                problems.append("idealized: maxima decrease")
            if train["final_efficiency"] > train["linear_bound"] + BOUND_TOL:
                problems.append("idealized: final efficiency exceeds the linear bound")
        if train["stop_reason"] not in ("max_kicks", "converged"):
            problems.append(f"{mode}: unknown stop reason {train['stop_reason']!r}")

        chash, header, rows = _read_csv(os.path.join(out_dir, f"timeseries_{mode}.csv"))
        hashes.add(chash)
        if header != ["t_over_Trot", "expectation", "projection", "kick_flag"]:
            problems.append(f"{mode}: unexpected time-series header {header}")
        elif sum(1 for r in rows if r[3] == "1") != n:
            problems.append(f"{mode}: time series marks a different number of kicks than the train")
        facts[mode] = {
            "n_kicks": n,
            # the loop runs once more than it kicks when the train stops early
            "iterations": n + (1 if train["stop_reason"] == "converged" else 0),
            "times_over_Trot": times,
            "maxima": maxima,
            "final_efficiency": train["final_efficiency"],
            "linear_bound": train["linear_bound"],
            "final_duration_above": train["final_duration_above"],
        }
    if len(hashes) != 1:
        problems.append("outputs carry different config hashes")
    return facts


def _check_bounds(cmd, out_dir: str, problems: list[str]) -> dict:
    lo, hi = cmd.config["j_max_range"]
    facts = {}
    hashes = set()
    for name in expected_files(cmd):
        chash, header, rows = _read_csv(os.path.join(out_dir, name))
        hashes.add(chash)
        if header[:5] != ["process", "j_max", "T_K", "optimal", "linear"]:
            problems.append(f"{name}: unexpected header {header}")
            continue
        if [int(r[1]) for r in rows] != list(range(lo, hi + 1)):
            problems.append(f"{name}: rows do not cover j_max {lo}..{hi}")
        table = []
        for r in rows:
            optimal, linear, dur, longest = (float(v) for v in r[3:7])
            if optimal < linear - BOUND_TOL:
                problems.append(f"{name}: optimal < linear at j_max={r[1]}")
            if not (0.0 <= longest <= dur + BOUND_TOL and dur <= 1.0 + BOUND_TOL):
                problems.append(f"{name}: durations out of [0, 1] at j_max={r[1]}")
            table.append([int(r[1]), optimal, linear, dur, longest])
        facts[name] = table
    if len(hashes) != 1:
        problems.append("outputs carry different config hashes")
    return facts


def _check_controllability(cmd, out_dir: str, problems: list[str]) -> dict:
    payload = _read_json(os.path.join(out_dir, f"controllability_{cmd.process}.json"))
    chash, _, rows = _read_csv(os.path.join(out_dir, f"controllability_{cmd.process}.csv"))
    if chash != payload["config_hash"]:
        problems.append("outputs carry different config hashes")
    reports = payload["reports"]
    if [r["j_max"] for r in reports] != list(cmd.cutoffs):
        problems.append(f"reports cover j_max {[r['j_max'] for r in reports]}, requested {list(cmd.cutoffs)}")
    table = [[r["j_max"], r["dim_L"], r["D"], r["D_prime"]] for r in reports]
    if [[int(v) for v in row] for row in rows] != table:
        problems.append("CSV table disagrees with the JSON reports")
    return {"dim_L": {str(r["j_max"]): r["dim_L"] for r in reports}, "table": table}


def _check_fixedpoints(cmd, out_dir: str, problems: list[str]) -> dict:
    payload = _read_json(os.path.join(out_dir, f"fixedpoints_{cmd.process}.json"))
    n = (cmd.config["j_max"] + 1) ** 2
    if payload["N"] != n:
        problems.append(f"N={payload['N']}, expected {n}")
    if payload["dim_span"] > payload["bound"]:
        problems.append(f"dim_span {payload['dim_span']} exceeds its bound {payload['bound']}")
    return {
        key: payload[key]
        for key in ("N", "bound", "commutant_dim", "multiplicities", "dim_span", "target_is_stationary")
    }


CHECKERS = {
    "simulate": _check_simulate,
    "bounds": _check_bounds,
    "controllability": _check_controllability,
    "fixedpoints": _check_fixedpoints,
}


def check_command(cmd, out_dir: str, rc: int, stdout_text: str, spawned_at: float) -> tuple[list[str], dict]:
    """Problems found in one finished command, and the facts read from its outputs.

    spawned_at is the wall-clock time (time.time()) at which the command
    was started; every output must be written after it.
    """
    if rc != 0:
        return [f"exit code {rc}"], {}
    names = expected_files(cmd)
    paths = [os.path.join(out_dir, name) for name in names]
    problems = []
    printed = {line.strip() for line in stdout_text.splitlines()}
    unprinted = [path for path in paths if path not in printed]
    if unprinted:
        problems.append(f"printed paths lack {unprinted}")
    stale = [
        name
        for name, path in zip(names, paths)
        if not os.path.isfile(path) or os.stat(path).st_mtime < spawned_at - MTIME_SLACK_S
    ]
    if stale:
        return problems + [f"outputs missing or not freshly written: {stale}"], {}
    try:
        facts = CHECKERS[cmd.subcommand](cmd, out_dir, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"malformed output: {exc!r}"], {}
    return problems, facts


def compare_reference(reference, facts, where: str = "", tol=(REF_REL_TOL, REF_ABS_TOL)) -> list[str]:
    """Differences between facts and the recorded reference, beyond the stated tolerance."""
    if isinstance(reference, dict):
        if not isinstance(facts, dict) or set(reference) - UNASSERTED != set(facts) - UNASSERTED:
            return [f"{where}: keys differ from the reference"]
        out = []
        for key in sorted(set(reference) - UNASSERTED):
            key_tol = (0.0, REF_TIME_ABS_TOL) if key == "times_over_Trot" else tol
            out += compare_reference(reference[key], facts[key], f"{where}/{key}", key_tol)
        return out
    if isinstance(reference, list):
        if not isinstance(facts, list) or len(reference) != len(facts):
            return [f"{where}: length differs from the reference"]
        out = []
        for k, (a, b) in enumerate(zip(reference, facts)):
            out += compare_reference(a, b, f"{where}[{k}]", tol)
        return out
    if isinstance(reference, float) or isinstance(facts, float):
        if not isinstance(facts, (int, float)) or not math.isclose(reference, facts, rel_tol=tol[0], abs_tol=tol[1]):
            return [f"{where}: {facts!r} differs from the reference {reference!r}"]
        return []
    if reference != facts:
        return [f"{where}: {facts!r} differs from the reference {reference!r}"]
    return []


def check_reference(cmd, facts: dict, reference: dict, workload: str, default_seed: bool) -> list[str]:
    """Seed-independent exact counts always; the full reference at the default seed."""
    problems = []
    if cmd.subcommand == "controllability":
        exact = reference["dim_L"][cmd.process]
        problems += [
            f"dim_L at j_max={j} is {dim}, exact value {exact[j]}"
            for j, dim in facts["dim_L"].items()
            if dim != exact[j]
        ]
    if default_seed:
        problems += compare_reference(reference["default_seed"][workload][cmd.name], facts, cmd.name)
    return problems
