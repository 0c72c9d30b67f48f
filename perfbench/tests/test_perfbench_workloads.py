"""The workload seed changes physical inputs only, never the sizes of the work."""

import pytest

import workloads

SIZE_KEYS = ("j_max", "j_sim", "max_kicks", "j_max_range", "process", "strategy", "gain_tol", "threshold")


def _shape(commands):
    return [
        (c.name, c.subcommand, c.extra_args, tuple(repr(c.config[k]) for k in SIZE_KEYS), len(c.config["temperatures_k"]))
        for c in commands
    ]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_leaves_sizes_unchanged(workload):
    base = _shape(workloads.make_commands(workload, workloads.DEFAULT_SEED))
    for seed in range(1, 25):
        assert _shape(workloads.make_commands(workload, seed)) == base


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_picks_physical_inputs_within_spread(workload):
    default = workloads.make_commands(workload, workloads.DEFAULT_SEED)
    seeded = workloads.make_commands(workload, 7)
    assert seeded == workloads.make_commands(workload, 7)
    assert seeded != default
    for a, b in zip(default, seeded):
        ratio = b.config["kick_amplitude"] / a.config["kick_amplitude"]
        assert abs(ratio - 1.0) <= workloads.AMPLITUDE_SPREAD + 1e-3
        t_ratio = b.config["molecule"]["temperature_k"] / a.config["molecule"]["temperature_k"]
        assert abs(t_ratio - 1.0) <= workloads.TEMPERATURE_SPREAD + 1e-3


def test_default_seed_runs_the_presets():
    from rotorkick.config import PRESETS

    for cmd in workloads.make_commands("trains", workloads.DEFAULT_SEED):
        preset = PRESETS[cmd.name.removeprefix("simulate-")]
        assert cmd.config == preset.to_dict()


def test_wide_trains_raise_only_j_sim():
    for cmd in workloads.make_commands("trains-wide", 3):
        assert cmd.config["j_sim"] == workloads.WIDE_J_SIM
        assert cmd.config["j_max"] == 8
