"""Acceptance criterion 6's invariants over drawn configurations, not only over the presets.

Each example runs `simulate` and `bounds` in-process on a small config of
either process and strategy, with the bound sweep at the train's own cutoff
and temperature, so that the train's linear_bound and the sweep's linear
bound are one number.  The tolerances are criterion 6's: idealized maxima
may fall by rounding (1e-12) and the final efficiency may exceed the bound
by rounding (1e-9).
"""

import csv
import json
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkick.cli import main
from rotorkick.config import PRESETS
from rotorkick.output import fmt

configs = st.fixed_dictionaries(
    {
        "process": st.sampled_from(["orientation", "alignment"]),
        "strategy": st.sampled_from(["S1", "S2"]),
        "j_max": st.integers(1, 6),
        "j_sim_extra": st.integers(0, 6),
        "kick_amplitude": st.floats(0.0, 6.0, exclude_min=True) | st.floats(-6.0, 0.0, exclude_max=True),
        "max_kicks": st.integers(0, 10),
        "temperature_k": st.floats(0.5, 60.0),
    }
)


def _config_file(directory: Path, drawn: dict, **fields) -> Path:
    """The drawn config as a JSON file, with fields set past RunConfig's validation."""
    base = PRESETS["licl-5K"]
    config = base.with_overrides(
        molecule=replace(base.molecule, temperature_k=drawn["temperature_k"]),
        process=drawn["process"],
        strategy=drawn["strategy"],
        j_max=drawn["j_max"],
        j_sim=drawn["j_max"] + drawn["j_sim_extra"],
        kick_amplitude=drawn["kick_amplitude"],
        max_kicks=drawn["max_kicks"],
        temperatures_k=(drawn["temperature_k"],),
        j_max_range=(drawn["j_max"], drawn["j_max"]),
    )
    payload = {**config.to_dict(), **fields}
    path = directory / "config.json"
    path.write_text(json.dumps(payload))
    return path


def _run(command: str, config: Path, out: Path) -> dict[str, bytes]:
    """Every file one command writes into out, by name."""
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(drawn=configs)
def test_simulate_and_bounds_keep_criterion_6_over_drawn_configs(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        config = _config_file(directory, drawn)
        trains, bounds = _run("simulate", config, directory / "simulate"), _run("bounds", config, directory / "bounds")
        assert _run("simulate", config, directory / "simulate") == trains  # a rerun is byte-identical
        assert _run("bounds", config, directory / "bounds") == bounds

        idealized = json.loads(trains["train_idealized.json"])
        maxima = idealized["maxima"]
        assert all(b - a >= -1e-12 for a, b in zip(maxima, maxima[1:]))
        assert idealized["final_efficiency"] <= idealized["linear_bound"] + 1e-9
        (name,) = bounds
        lines = bounds[name].decode().splitlines()
        (row,) = csv.DictReader(line for line in lines if not line.startswith("#"))
        assert (int(row["j_max"]), row["linear"]) == (drawn["j_max"], fmt(idealized["linear_bound"]))
        assert float(row["linear"]) <= float(row["optimal"]) + 1e-12  # equal where every block is one

        # a simulation space smaller than the control space is a config error
        small = _config_file(directory, drawn, j_sim=drawn["j_max"] - 1)
        for command in ("simulate", "bounds"):
            assert main([command, "--config", str(small), "--out", str(directory / "small")]) == 2
        assert not (directory / "small").exists()
