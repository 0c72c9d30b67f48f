"""The benchmark's workloads: which CLI commands each one runs, with seeded inputs.

The seed picks only physical inputs (temperatures and the kick amplitude).
Sizes -- j_max, j_sim, max_kicks, j_max_range and the controllability
cutoffs -- are fixed per workload, so the work per run does not depend on
the seed.  Seed 0 is the default seed: it runs the presets unchanged, and
only there are outputs compared with the recorded reference values.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from rotorkick.config import PRESETS

DEFAULT_SEED = 0
AMPLITUDE_SPREAD = 0.25  # kick amplitude within +-25% of the preset value
TEMPERATURE_SPREAD = 0.20  # temperatures within +-20% of the preset values

TRAIN_PRESETS = ("licl-5K", "licl-5K-s2", "licl-5K-alignment", "licl-5K-alignment-s2")
WIDE_PRESETS = ("licl-5K", "licl-5K-alignment")
WIDE_J_SIM = 24
PROCESS_PRESETS = {"orientation": "licl-5K", "alignment": "licl-5K-alignment"}
CONTROLLABILITY_CUTOFFS = {"orientation": (1, 2, 3, 4, 5), "alignment": (1, 2, 3, 4, 5, 6)}

WORKLOADS = {
    "trains": "simulate on the four train presets (j_sim=16): evolution, kicks and CSV output",
    "trains-wide": "orientation and alignment S1 trains at j_sim=24: dense O(N^3) kicks dominate",
    "bounds": "bounds for both processes over j_max 1..12: many small series, the target layer",
    "algebra": "controllability and fixedpoints: Lie closure only, bypasses evolution and dynamics",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, the config it reads, and its extra arguments."""

    name: str
    subcommand: str
    process: str
    config: dict
    extra_args: tuple[str, ...] = ()

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.subcommand, "--config", config_path, "--out", out_dir, *self.extra_args]

    @property
    def cutoffs(self) -> tuple[int, ...]:
        """The controllability cutoffs this command requests (empty for other subcommands)."""
        if self.subcommand != "controllability":
            return ()
        return tuple(int(a) for a in self.extra_args[1:])


class _Inputs:
    """Seeded draws of the physical inputs; the default seed returns the preset values."""

    def __init__(self, workload: str, seed: int):
        self.identity = seed == DEFAULT_SEED
        self.rng = random.Random(f"{workload}/{seed}")

    def scaled(self, value: float, spread: float, digits: int) -> float:
        if self.identity:
            return value
        return round(value * self.rng.uniform(1.0 - spread, 1.0 + spread), digits)

    def config(self, preset: str, **overrides) -> dict:
        base = PRESETS[preset]
        molecule = dataclasses.replace(
            base.molecule,
            temperature_k=self.scaled(base.molecule.temperature_k, TEMPERATURE_SPREAD, 3),
        )
        config = base.with_overrides(
            molecule=molecule,
            kick_amplitude=self.scaled(base.kick_amplitude, AMPLITUDE_SPREAD, 4),
            temperatures_k=tuple(self.scaled(t, TEMPERATURE_SPREAD, 3) for t in base.temperatures_k),
            **overrides,
        )
        return config.to_dict()


def make_commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass of the workload, in the order they run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {sorted(WORKLOADS)}")
    inputs = _Inputs(workload, seed)
    if workload == "trains":
        return [
            Command(f"simulate-{p}", "simulate", PRESETS[p].process, inputs.config(p))
            for p in TRAIN_PRESETS
        ]
    if workload == "trains-wide":
        return [
            Command(f"simulate-{p}-jsim{WIDE_J_SIM}", "simulate", PRESETS[p].process, inputs.config(p, j_sim=WIDE_J_SIM))
            for p in WIDE_PRESETS
        ]
    if workload == "bounds":
        return [
            Command(f"bounds-{process}", "bounds", process, inputs.config(preset))
            for process, preset in PROCESS_PRESETS.items()
        ]
    commands = [
        Command(
            f"controllability-{process}",
            "controllability",
            process,
            inputs.config(preset),
            ("--j-max", *(str(j) for j in CONTROLLABILITY_CUTOFFS[process])),
        )
        for process, preset in PROCESS_PRESETS.items()
    ]
    commands += [
        Command(f"fixedpoints-{process}", "fixedpoints", process, inputs.config(preset), ("--force",))
        for process, preset in PROCESS_PRESETS.items()
    ]
    return commands
