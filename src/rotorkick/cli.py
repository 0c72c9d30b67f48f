"""Command-line interface: bounds, simulate, controllability, fixedpoints.

Every subcommand takes --config PATH or --preset NAME plus --out DIR and
emits deterministic CSV/JSON carrying the config hash.  Exit codes: 0 on
success, 2 on invalid configuration or a usage error, 3 on numerical
failure, 1 on an i/o failure; main() returns the code and never raises
SystemExit.

The command line is parsed by stdlib getopt.gnu_getopt from one table,
COMMANDS, which gives each command its help line and its options beyond
the common ones, and from which the usage and help texts are generated.
argparse is not used: its import and parser construction cost a few
milliseconds per process, as much as an `algebra` command computes.
main() also calls gc.freeze() once per process, so that the objects the
imports created are never rescanned by a collection during a command;
the freeze covers every object alive at that first call, the imports'
and whatever an in-process caller holds or left uncollected before it.
"""

from __future__ import annotations

import gc
import getopt
import os
import sys
from dataclasses import replace

import numpy as np

from .basis import block_decomposition, build_basis
from .config import PRESETS, RunConfig, load_config
from .controllability import check_cutoff, controllability_report, fixed_point_analysis, is_kick_stationary
from .dynamics import PERIOD, TimeSeries, make_kick, run_strategy
from .errors import ConfigError, NumericalError
from .operators import (
    DensityMatrix,
    embed_density,
    embed_operator,
    h0_matrix,
    observable_matrix,
    thermal_state,
)
from .output import write_csv, write_json
from .target import bound_sweep, build_target

BOUNDS_HEADER = [
    "process",
    "j_max",
    "T_K",
    "optimal",
    "linear",
    "duration_linear",
    "duration_linear_longest",
]

SERIES_HEADER = ["t_over_Trot", "expectation", "projection", "kick_flag"]


def cmd_bounds(config: RunConfig) -> list[str]:
    """Kinematical bound tables: one CSV per temperature, from one sweep over all of them."""
    j_values = config.sweep_j_values()
    rows = bound_sweep(
        j_values,
        config.temperatures_k,
        config.process,
        b_cm=config.molecule.b_cm,
        kb_cm_per_k=config.kb_cm_per_k,
        z_mode=config.z_mode,
        renormalize=config.renormalize,
        threshold=config.threshold,
    )
    paths = []
    chash = config.config_hash()
    for k, temperature in enumerate(config.temperatures_k):
        path = os.path.join(config.out_dir, f"bounds_{config.process}_T{temperature:g}K.csv")
        write_csv(
            path,
            BOUNDS_HEADER,
            (
                [r.kind, r.j_max, r.temperature_k, r.optimal, r.linear, r.duration_linear, r.duration_linear_longest]
                for r in rows[k * len(j_values) : (k + 1) * len(j_values)]
            ),
            chash,
        )
        paths.append(path)
    return paths


def _series_columns(series: TimeSeries) -> tuple[np.ndarray, ...]:
    proj = np.full(series.times.size, np.nan) if series.projection is None else series.projection
    return series.times / PERIOD, series.expectation, proj, series.kick_flags


def _control_space(config: RunConfig):
    """The control-space observable and the blockwise target on it, which both modes drive on and report."""
    control_basis = build_basis(config.j_max)
    control_rho0 = thermal_state(control_basis, config.beta, z_mode=config.z_mode, renormalize=config.renormalize)
    control_obs = observable_matrix(control_basis, config.process)
    return control_obs, build_target(control_rho0, control_obs, block_decomposition(control_basis, config.process))


def _run_one_mode(config: RunConfig, mode: str, control=None):
    """One strategy run: control space ("idealized") or enlarged space ("physical").

    Both modes drive on, and report, the control-space observable and target
    (control, as _control_space returns them; built here if not given),
    zero-padded into the basis the train runs on.  They differ only in its
    cutoff j_cut, j_max or j_sim, and in the leak guard.  H0 and the kick
    conserve m, and both functionals vanish on every m block with
    |m| > j_max, which therefore never moves an output: the basis holds the
    m shells |m| <= j_max of all states with j <= j_cut, and the thermal
    state is normalized over all of those states, seen or not.
    """
    j_cut, leak_guard = (config.j_max, None) if mode == "idealized" else (config.j_sim, config.j_sim - 2)
    control_obs, target = _control_space(config) if control is None else control

    basis = build_basis(j_cut, config.j_max)
    record, series = run_strategy(
        thermal_state(basis, config.beta, z_mode=config.z_mode, renormalize=config.renormalize),
        config.strategy,
        make_kick(basis, config.process, config.kick_amplitude),
        h0_matrix(basis),
        target=replace(target, rho=embed_density(target.rho, basis)),
        observable=embed_operator(control_obs, basis),
        max_kicks=config.max_kicks,
        gain_tol=config.gain_tol,
        duration_threshold=config.threshold,
        leak_guard_j=leak_guard,
    )
    return record, series, target


def cmd_simulate(config: RunConfig) -> list[str]:
    """Run the configured strategy in the control space and the enlarged space."""
    paths = []
    chash = config.config_hash()
    control = _control_space(config)
    for mode in ("idealized", "physical"):
        record, series, target = _run_one_mode(config, mode, control)
        series_path = os.path.join(config.out_dir, f"timeseries_{mode}.csv")
        write_csv(series_path, SERIES_HEADER, config_hash=chash, columns=_series_columns(series))
        payload = record.to_jsonable()
        payload["mode"] = mode
        payload["linear_bound"] = target.achieved
        train_path = os.path.join(config.out_dir, f"train_{mode}.json")
        write_json(train_path, payload, chash)
        paths.extend([series_path, train_path])
    return paths


def cmd_controllability(config: RunConfig, j_values: list[int] | None = None) -> list[str]:
    """Lie-algebra dimension reports; the CSV reproduces the reference table layout."""
    values = j_values if j_values else [1, 2, 3]
    for k, j in enumerate(values):  # every cutoff before any is computed
        check_cutoff(j)
        if j in values[:k]:
            raise ConfigError(f"cutoff j_max={j} is listed more than once")
    reports = [controllability_report(j, config.process) for j in values]
    chash = config.config_hash()
    json_path = os.path.join(config.out_dir, f"controllability_{config.process}.json")
    write_json(json_path, {"reports": [r.to_jsonable() for r in reports]}, chash)
    csv_path = os.path.join(config.out_dir, f"controllability_{config.process}.csv")
    write_csv(
        csv_path,
        ["j_max", "dim_L", "D", "D_prime"],
        ([r.j_max, r.dim_l, r.dim_required, r.dim_required_restricted] for r in reports),
        chash,
    )
    return [json_path, csv_path]


def cmd_fixedpoints(config: RunConfig) -> list[str]:
    """Fixed-point span analysis of the greedy iteration for the configured process."""
    basis = build_basis(config.j_max)
    h0 = h0_matrix(basis)
    obs = observable_matrix(basis, config.process)
    report = fixed_point_analysis(h0, obs)

    rho0 = thermal_state(basis, config.beta, z_mode=config.z_mode, renormalize=config.renormalize)
    blocks = block_decomposition(basis, config.process)
    target = build_target(rho0, obs, blocks)
    mixed = DensityMatrix(basis, blocks, np.eye(blocks.slots.shape[1]) * blocks.filled[:, None, :] / basis.dim)
    payload = report.to_jsonable()
    payload.update(
        {
            "process": config.process,
            "j_max": config.j_max,
            "target_is_stationary": is_kick_stationary(target.rho, h0, obs),
            "maximally_mixed_is_stationary": is_kick_stationary(mixed, h0, obs),
        }
    )
    path = os.path.join(config.out_dir, f"fixedpoints_{config.process}.json")
    write_json(path, payload, config.config_hash())
    return [path]


PROG = "rotorkick"
DESCRIPTION = "Greedy pulse-train control of thermal rigid rotors"

# Options as (name, metavar or None for a flag, help line).
COMMON_OPTIONS = (
    ("config", "PATH", "JSON config file"),
    ("preset", "NAME", f"named preset, one of {sorted(PRESETS)}"),
    ("out", "DIR", "output directory (overrides the config)"),
)
# Each command's help line and its options beyond the common ones.
COMMANDS = {
    "bounds": ("kinematical bound and duration tables", ()),
    "simulate": ("run the pulse-train strategy in both spaces", ()),
    "controllability": (
        "Lie-algebra dimension reports",
        (("j-max", "J [J ...]", "cutoffs to analyze (default: 1 2 3)"),),
    ),
    "fixedpoints": (
        "fixed-point span analysis",
        (("force", None, "ignored; kept so that older invocations still parse"),),
    ),
}
HELP_OPTION = ("-h, --help", "show this help message and exit")


class UsageExit(Exception):
    """parse_args stops before any command: code 0 with the help text, or 2 with a usage error."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code


def _spelled(name: str, metavar: str | None) -> str:
    return f"--{name} {metavar}" if metavar else f"--{name}"


def _usage(command: str | None = None) -> str:
    if command is None:
        return f"usage: {PROG} [-h] {{{','.join(COMMANDS)}}} ..."
    extra = "".join(f" [{_spelled(name, metavar)}]" for name, metavar, _ in COMMANDS[command][1])
    return f"usage: {PROG} {command} [-h] (--config PATH | --preset NAME) [--out DIR]{extra}"


def _table(rows) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join(f"  {left:<{width}}{right}" for left, right in rows)


def _help(command: str | None = None) -> str:
    if command is None:
        commands = _table([(name, line) for name, (line, _) in COMMANDS.items()])
        return f"{_usage()}\n\n{DESCRIPTION}\n\ncommands:\n{commands}\n\noptions:\n{_table([HELP_OPTION])}"
    specs = COMMON_OPTIONS + COMMANDS[command][1]
    options = [HELP_OPTION, *((_spelled(name, metavar), text) for name, metavar, text in specs)]
    return f"{_usage(command)}\n\n{COMMANDS[command][0]}\n\noptions:\n{_table(options)}"


def _usage_error(command: str | None, message: str) -> UsageExit:
    prog = PROG if command is None else f"{PROG} {command}"
    return UsageExit(2, f"{_usage(command)}\n{prog}: error: {message}")


def _getopt(command: str | None, args: list[str], longopts: list[str]):
    """gnu_getopt that stops at the first argument that is no option (the "+"), as a usage error if it fails."""
    try:
        return getopt.gnu_getopt(args, "+h", ["help", *longopts])
    except getopt.GetoptError as exc:
        raise _usage_error(command, exc.msg) from None


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """The command and its options, keyed by option name without the dashes.

    `--opt value`, `--opt=value` and unique prefixes of the long options are
    accepted.  A value in the argument after its option may not start with
    '-'; after '=' any value is taken.  --j-max takes one or more integers:
    its first value is the option's argument, and the arguments that
    directly follow it, up to the next option, are the others.  Raises
    UsageExit for -h/--help and for a usage error.
    """
    found, rest = _getopt(None, argv, [])
    if found:
        raise UsageExit(0, _help())
    if not rest:
        raise _usage_error(None, "the following arguments are required: command")
    command, rest = rest[0], rest[1:]
    if command not in COMMANDS:
        raise _usage_error(None, f"invalid choice: {command!r} (choose from {', '.join(COMMANDS)})")
    specs = COMMON_OPTIONS + COMMANDS[command][1]
    longopts = [f"{name}=" if metavar else name for name, metavar, _ in specs]
    valued = {f"--{name}" for name, metavar, _ in specs if metavar}
    options: dict = {}
    while rest:
        found, after = _getopt(command, rest, longopts)
        position = 0  # of the argument each option came from: the options are the leading arguments, in order
        for flag, value in found:
            if flag in ("-h", "--help"):
                raise UsageExit(0, _help(command))
            attached = "=" in rest[position]
            position += 1 if attached or flag not in valued else 2
            if not attached and value.startswith("-"):  # `--out --force` misses its value; `--out=--force` has one
                raise _usage_error(command, f"argument {flag}: expected one argument")
            options[flag[2:]] = [value] if flag == "--j-max" else value
        rest = after
        more = 0
        if found and found[-1][0] == "--j-max":
            while more < len(rest) and not rest[more].startswith("-"):
                more += 1
            options["j-max"] += rest[:more]
        if rest and not more:
            raise _usage_error(command, f"unrecognized arguments: {' '.join(rest)}")
        rest = rest[more:]
    if ("config" in options) == ("preset" in options):
        raise _usage_error(command, "exactly one of the arguments --config PATH and --preset NAME is required")
    if "j-max" in options:
        try:
            options["j-max"] = [int(value) for value in options["j-max"]]
        except ValueError as exc:
            raise _usage_error(command, f"argument --j-max: {exc}") from None
    return command, options


def main(argv: list[str] | None = None) -> int:
    if gc.get_freeze_count() == 0:
        # Everything the imports built lives as long as the process: move it, with all else alive now, out of
        # the collector's view once, so that no collection during a command rescans it.
        gc.freeze()
    try:
        command, options = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageExit as stop:
        print(stop, file=sys.stderr if stop.code else sys.stdout)
        return stop.code
    try:
        config = load_config(options.get("config"), options.get("preset"))
        if options.get("out"):
            config = config.with_overrides(out_dir=options["out"])
        if command == "bounds":
            paths = cmd_bounds(config)
        elif command == "simulate":
            paths = cmd_simulate(config)
        elif command == "controllability":
            paths = cmd_controllability(config, options.get("j-max"))
        else:
            paths = cmd_fixedpoints(config)
    except (NumericalError, np.linalg.LinAlgError) as exc:  # before ValueError, which LinAlgError subclasses
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and invalid-parameter errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None)
        print(f"i/o failure{f' on {target!r}' if target else ''}: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
