"""Command-line interface: bounds, simulate, controllability, fixedpoints.

Every subcommand takes --config PATH or --preset NAME plus --out DIR and
emits deterministic CSV/JSON carrying the config hash.  Exit codes: 0 on
success, 2 on invalid configuration, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH", help="JSON config file")
    source.add_argument("--preset", metavar="NAME", help=f"named preset, one of {sorted(PRESETS)}")
    parser.add_argument("--out", metavar="DIR", help="output directory (overrides the config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorkick",
        description="Greedy pulse-train control of thermal rigid rotors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="kinematical bound and duration tables")
    _add_common(p_bounds)

    p_sim = sub.add_parser("simulate", help="run the pulse-train strategy in both spaces")
    _add_common(p_sim)

    p_ctrl = sub.add_parser("controllability", help="Lie-algebra dimension reports")
    _add_common(p_ctrl)
    p_ctrl.add_argument("--j-max", type=int, nargs="+", metavar="J", help="cutoffs to analyze (default: 1 2 3)")

    p_fix = sub.add_parser("fixedpoints", help="fixed-point span analysis")
    _add_common(p_fix)
    p_fix.add_argument("--force", action="store_true", help="ignored; kept so that older invocations still parse")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.preset)
        if args.out:
            config = config.with_overrides(out_dir=args.out)
        if args.command == "bounds":
            paths = cmd_bounds(config)
        elif args.command == "simulate":
            paths = cmd_simulate(config)
        elif args.command == "controllability":
            paths = cmd_controllability(config, args.j_max)
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
