import dataclasses
import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import rotorkick
from rotorkick.basis import build_basis
from rotorkick.cli import COMMANDS, main, parse_args
from rotorkick.config import (
    KB_CM_PER_K,
    PRESETS,
    MoleculeParams,
    RunConfig,
    b_rad_per_ps,
    beta_from,
    load_config,
)
from rotorkick.errors import ConfigError
from rotorkick.output import fmt, write_csv, write_json


def _small_config(**overrides):
    base = dict(j_max=1, j_sim=2, j_max_range=(1, 2), max_kicks=2)
    base.update(overrides)
    return PRESETS["licl-5K"].with_overrides(**base)


def _raw_config_file(tmp_path, **fields):
    """The small config as a file, with fields set past RunConfig's validation."""
    payload = _small_config(out_dir=str(tmp_path), temperatures_k=(5.0,)).to_dict()
    payload.update(fields)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_config_roundtrip_byte_identical(tmp_path):
    cfg = PRESETS["licl-5K"]
    text = cfg.to_json()
    again = RunConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text
    # and through a file
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert load_config(str(path)).to_json() == text


def test_config_hash_stability():
    cfg = PRESETS["licl-5K"]
    assert cfg.config_hash() == RunConfig.from_json(cfg.to_json()).config_hash()
    assert cfg.config_hash() != cfg.with_overrides(j_max=7).config_hash()


@pytest.mark.parametrize(
    "preset, digest",
    [
        ("licl-5K", "eb9ad2161df7e93a"),
        ("licl-10K", "d087fc9b5551c5d1"),
        ("licl-5K-s2", "f6ea23adc2d9bd53"),
        ("licl-5K-alignment", "bced0abf47c58604"),
        ("licl-5K-alignment-s2", "bf67b11b9c3bf663"),
    ],
)
def test_preset_config_hashes_are_pinned(preset, digest):
    # the leading 16 hex digits of SHA-256 over the canonical JSON, whichever module computes it
    assert PRESETS[preset].config_hash() == digest


def test_importing_the_cli_loads_no_openssl():
    # the config hash comes from the interpreter's builtin SHA-256, so hashlib's OpenSSL backend stays unloaded;
    # the exact counts work in Python integers, so fractions and the decimal module it imports stay unloaded too
    src = str(pathlib.Path(rotorkick.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, rotorkick.cli; print([m for m in ('_hashlib', 'fractions', 'decimal') if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_config_validation_errors():
    molecule = MoleculeParams(b_cm=0.70652, temperature_k=5.0)
    with pytest.raises(ConfigError):
        RunConfig(molecule=molecule, j_sim=4, j_max=8)
    with pytest.raises(ConfigError):
        RunConfig(molecule=molecule, process="spin")
    with pytest.raises(ConfigError):
        RunConfig(molecule=molecule, strategy="S9")
    with pytest.raises(ConfigError):
        RunConfig(molecule=molecule, gain_tol=0.0)
    with pytest.raises(ConfigError):
        RunConfig(molecule=molecule, kick_amplitude=float("inf"))
    with pytest.raises(ConfigError):
        RunConfig(molecule=molecule, temperatures_k=(5.0, -1.0))
    with pytest.raises(ConfigError):
        MoleculeParams(b_cm=-1.0, temperature_k=5.0)
    with pytest.raises(ConfigError):
        beta_from(0.7, 0.0)


def test_preset_reference_parameters():
    cfg = PRESETS["licl-5K"]
    assert cfg.molecule.b_cm == 0.70652
    assert cfg.molecule.temperature_k == 5.0
    assert cfg.kick_amplitude == 2.0
    assert cfg.j_max == 8
    assert cfg.j_sim == 16
    assert cfg.strategy == "S1" and cfg.max_kicks == 15
    assert PRESETS["licl-10K"].molecule.temperature_k == 10.0
    assert PRESETS["licl-5K-s2"].strategy == "S2"
    assert PRESETS["licl-5K-s2"].max_kicks == 9
    assert PRESETS["licl-5K-alignment"].process == "alignment"
    # the reference pulse duration corresponds to tau * B = 0.01
    assert cfg.molecule.epsilon == pytest.approx(0.01, abs=1e-14)
    assert beta_from(0.70652, 5.0) == pytest.approx(0.70652 / (KB_CM_PER_K * 5.0), abs=1e-15)


def test_epsilon_consistency():
    tau = 0.25
    m = MoleculeParams(b_cm=1.3, temperature_k=4.0, pulse_duration_ps=tau)
    assert m.epsilon == pytest.approx(tau * b_rad_per_ps(1.3), abs=1e-12)
    assert MoleculeParams(b_cm=1.3, temperature_k=4.0).epsilon is None


def test_fmt_significant_digits():
    assert fmt(1 / 3) == "0.333333333333333"
    assert fmt(1234) == "1234"
    assert fmt(True) == "true"
    assert fmt(1e-7) == "1e-07"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ["a", "b"], [[1, 0.5], [2, 1 / 3]], config_hash="deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config-hash: deadbeef"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert lines[3] == "2,0.333333333333333"


def test_write_csv_matches_fmt_per_cell(tmp_path):
    rows = [
        ["x", 1, 0.5, np.float64(1 / 3), np.int64(7), float("nan")],
        ["y", 10**17, -0.0, np.float32(0.1), np.int32(-3), float("-inf")],
        ["z", True, np.bool_(False), 1e-7, 2, 1e300],
        ["x", 2, 0.25, np.float64(2 / 3), np.int64(8), 1.0],
    ]
    path = tmp_path / "table.csv"
    write_csv(str(path), list("abcdef"), rows)
    lines = path.read_text().splitlines()
    assert lines[1:] == [",".join(v if isinstance(v, str) else fmt(v) for v in row) for row in rows]


def test_write_csv_columns_match_the_rows(tmp_path):
    # one printf over the whole table writes what the row path writes, NaN and -0.0 included
    columns = (
        np.array([0.0, 1 / 3, -0.0, 1e-7, 1e300]),
        np.array([np.nan, -np.inf, 2.5, 1.0, 0.1]),
        np.arange(5) - 2,
        np.array([0.1, 2.0, 3.0, 4.0, 5.0], dtype=np.float32),
    )
    for cols in (columns[:3], columns, tuple(c[:0] for c in columns[:3])):
        header = list("abcd")[: len(cols)]
        write_csv(str(tmp_path / "rows.csv"), header, zip(*(c.tolist() for c in cols)), "deadbeef")
        write_csv(str(tmp_path / "columns.csv"), header, config_hash="deadbeef", columns=cols)
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("strategy", ["S1", "S2"])
def test_time_series_csv_equals_the_row_path(strategy, tmp_path):
    # an S1 train without a target has no projection, written as a NaN column; the S2 train has one
    import rotorkick.cli as cli
    from rotorkick.dynamics import make_kick, run_strategy
    from rotorkick.operators import h0_matrix, thermal_state

    if strategy == "S1":
        basis = build_basis(4)
        rho0 = thermal_state(basis, 0.3)
        _, series = run_strategy(rho0, "S1", make_kick(basis, "orientation", 2.0), h0_matrix(basis), max_kicks=3)
    else:
        _, series, _ = cli._run_one_mode(PRESETS["licl-5K-s2"].with_overrides(max_kicks=3), "idealized")
    assert (series.projection is None) == (strategy == "S1")
    columns = cli._series_columns(series)
    write_csv(str(tmp_path / "columns.csv"), cli.SERIES_HEADER, config_hash="abc", columns=columns)
    rows = [[t, e, p, int(k)] for t, e, p, k in zip(*(c.tolist() for c in columns))]
    write_csv(str(tmp_path / "rows.csv"), cli.SERIES_HEADER, rows, "abc")
    written = (tmp_path / "columns.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert (b",nan," in written) == (strategy == "S1")
    assert written.count(b"\n") == 2 + series.times.size


def test_written_files_get_the_mode_the_umask_gives(tmp_path):
    csv_path, json_path = tmp_path / "table.csv", tmp_path / "report.json"
    saved = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600), (0o022, 0o644)):  # the last pass replaces 0o600 files
            os.umask(umask)
            write_csv(str(csv_path), ["a"], [[1]])
            write_json(str(json_path), {"a": 1})
            assert [p.stat().st_mode & 0o777 for p in (csv_path, json_path)] == [mode, mode]
    finally:
        os.umask(saved)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "table.csv"]  # no temporary file left


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, None)
    with pytest.raises(ConfigError):
        load_config("x.json", "licl-5K")
    with pytest.raises(ConfigError):
        load_config(preset="nope")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["controllability", "--preset", "nope", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    missing = str(tmp_path / "missing.json")
    assert main(["bounds", "--config", missing]) == 2
    capsys.readouterr()
    # fixedpoints runs at any N (the preset has N = 81); --force is accepted and ignored
    for extra in ([], ["--force"]):
        assert main(["fixedpoints", "--preset", "licl-5K", "--out", str(tmp_path), *extra]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "fixedpoints_orientation.json").read_text())
        assert payload["N"] == 81
        assert payload["dim_span"] == 140


def _run_python(tmp_path, *args):
    """A fresh interpreter that finds this checkout's package first."""
    src = str(pathlib.Path(rotorkick.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)


def test_module_entry_point_runs_the_cli(tmp_path):
    # `python -m rotorkick.cli` runs main(): a bad preset exits 2 and --help prints the usage
    def run(*args):
        return _run_python(tmp_path, "-m", "rotorkick.cli", *args)

    bad = run("bounds", "--preset", "nope")
    assert bad.returncode == 2 and bad.stderr.startswith("error:") and not bad.stdout
    usage = run("--help")
    assert usage.returncode == 0 and usage.stdout.startswith("usage:")


@pytest.mark.parametrize(
    "argv, options",
    [
        (["bounds", "--preset", "licl-5K"], {"preset": "licl-5K"}),
        (["simulate", "--config", "c.json", "--out", "d"], {"config": "c.json", "out": "d"}),
        (["simulate", "--out", "d", "--config", "c.json"], {"config": "c.json", "out": "d"}),
        (
            ["controllability", "--preset", "p", "--j-max", "1", "2", "3", "--out", "d"],
            {"preset": "p", "out": "d", "j-max": [1, 2, 3]},
        ),
        (["controllability", "--j-max", "4", "--preset", "p"], {"preset": "p", "j-max": [4]}),
        # as with argparse, the last --j-max wins
        (["controllability", "--j-max", "1", "--preset", "p", "--j-max", "2", "3"], {"preset": "p", "j-max": [2, 3]}),
        (["fixedpoints", "--config", "c.json", "--out", "d", "--force"], {"config": "c.json", "out": "d", "force": ""}),
        (["bounds", "--preset=licl-5K", "--out=d"], {"preset": "licl-5K", "out": "d"}),
        (["controllability", "--pre", "p", "--j", "5", "6", "--o=d"], {"preset": "p", "out": "d", "j-max": [5, 6]}),
        (["fixedpoints", "--c=c.json", "--f"], {"config": "c.json", "force": ""}),
        # after '=' any value is the option's, also one that starts with '-'
        (["bounds", "--config=-c.json", "--out=-d"], {"config": "-c.json", "out": "-d"}),
        (["fixedpoints", "--preset", "p", "--out=--force"], {"preset": "p", "out": "--force"}),
        (["controllability", "--preset", "p", "--j-max=-1", "2"], {"preset": "p", "j-max": [-1, 2]}),
    ],
)
def test_parser_accepts_every_form_callers_use(argv, options):
    assert parse_args(argv) == (argv[0], options)


def test_spelled_out_and_abbreviated_forms_write_the_same_bytes(tmp_path, capsys):
    written = []
    spelled_out = ["--preset", "licl-5K", "--j-max", "1", "2", "--out", str(tmp_path)]
    for argv in (spelled_out, ["--pre=licl-5K", "--j", "1", "2", f"--o={tmp_path}"]):
        assert main(["controllability", *argv]) == 0
        written.append({path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())})
        for path in tmp_path.iterdir():
            path.unlink()
    capsys.readouterr()
    assert len(written[0]) == 2 and written[0] == written[1]


@pytest.mark.parametrize(
    "argv, prog",
    [
        ([], "rotorkick"),
        (["bogus", "--preset", "licl-5K"], "rotorkick"),
        (["--preset", "licl-5K", "bounds"], "rotorkick"),
        (["bounds", "--preset", "licl-5K", "--bogus"], "rotorkick bounds"),
        (["bounds", "--preset", "licl-5K", "--force"], "rotorkick bounds"),
        (["fixedpoints", "--preset", "licl-5K", "--force=yes"], "rotorkick fixedpoints"),
        (["bounds"], "rotorkick bounds"),
        (["simulate", "--out", "d"], "rotorkick simulate"),
        (["bounds", "--preset", "licl-5K", "--config", "x.json"], "rotorkick bounds"),
        (["controllability", "--preset", "licl-5K", "--j-max", "x"], "rotorkick controllability"),
        (["controllability", "--preset", "licl-5K", "--j-max", "1", "2.5"], "rotorkick controllability"),
        (["controllability", "--preset", "licl-5K", "--j-max"], "rotorkick controllability"),
        (["controllability", "--preset", "licl-5K", "--j-max", "--out", "d"], "rotorkick controllability"),
        (["bounds", "--preset"], "rotorkick bounds"),
        (["bounds", "--preset", "licl-5K", "--out"], "rotorkick bounds"),
        (["fixedpoints", "--preset", "licl-5K", "--out", "--force"], "rotorkick fixedpoints"),
        (["bounds", "--preset", "licl-5K", "--out", "-d"], "rotorkick bounds"),
        (["controllability", "--preset", "licl-5K", "--j-max", "-1"], "rotorkick controllability"),
        (["controllability", "--preset", "licl-5K", "--j-max", "1", "-2"], "rotorkick controllability"),
        (["bounds", "--preset", "licl-5K", "extra"], "rotorkick bounds"),
        (["controllability", "--preset", "licl-5K", "3"], "rotorkick controllability"),
        (["controllability", "--preset", "licl-5K", "--j-max", "1", "--out", "d", "2"], "rotorkick controllability"),
    ],
)
def test_usage_error_exits_2_with_the_usage_on_stderr(argv, prog, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a command that ran would write below its preset's relative out_dir
    assert main(argv) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert not out and len(lines) == 2
    assert lines[0].startswith(f"usage: {prog} [-h] ") and lines[1].startswith(f"{prog}: error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["--he"], *([command, "--help"] for command in COMMANDS), ["fixedpoints", "-h"]]
    + [["controllability", "--preset", "licl-5K", "--j-max", "2", "--help"], ["bounds", "--help", "--preset", "nope"]],
    ids=" ".join,
)
def test_help_prints_the_usage_on_stdout_and_exits_0(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert not err and not list(tmp_path.iterdir())
    command = argv[0] if argv[0] in COMMANDS else None
    if command is None:
        assert out.startswith("usage: rotorkick [-h] {bounds,simulate,controllability,fixedpoints} ...\n")
        assert all(f"  {name}  " in out and line in out for name, (line, _) in COMMANDS.items())
    else:
        assert out.startswith(f"usage: rotorkick {command} [-h] (--config PATH | --preset NAME) [--out DIR]")
        assert COMMANDS[command][0] in out and re.search(r"\n  --preset NAME +named preset", out)
        assert ("--j-max J [J ...]" in out) == (command == "controllability")
        assert ("--force" in out) == (command == "fixedpoints")


def test_importing_the_cli_loads_neither_argparse_nor_locale(tmp_path):
    probe = "import sys, rotorkick.cli; print(sorted({'argparse', 'locale'} & set(sys.modules)))"
    result = _run_python(tmp_path, "-c", probe)
    assert result.returncode == 0 and result.stdout.strip() == "[]", result.stderr


def test_main_freezes_the_collector_once_per_process(capsys):
    assert main(["--help"]) == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert main(["fixedpoints", "--preset", "licl-5K", "--out", "--force"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def test_main_freezes_on_its_first_call_by_a_flag(monkeypatch, capsys):
    # gc.get_freeze_count() walks the frozen generation, so no main() call asks it; a flag marks the first call
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(gc, "get_freeze_count", lambda: calls.append("count") or 0)
    monkeypatch.setattr("rotorkick.cli._frozen", False)
    assert main(["--help"]) == 0
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert calls == ["freeze"]


def test_the_package_root_imports_nothing_and_the_cli_imports_every_module(tmp_path):
    # the modules are the API: `import rotorkick` loads no submodule and no numpy, `import rotorkick.config` only
    # what config imports, and the CLI every module of the package, at import, before a command starts
    probe = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'rotorkick')\n"
        "import rotorkick\n"
        "root = loaded(), 'numpy' in sys.modules\n"
        "import rotorkick.config\n"
        "config = loaded()\n"
        "from rotorkick import cli\n"
        "print(json.dumps([root, config, loaded()]))\n"
    )
    result = _run_python(tmp_path, "-c", probe)
    assert result.returncode == 0, result.stderr
    root, config, everything = json.loads(result.stdout)
    assert root == [["rotorkick"], False]
    assert config == ["rotorkick", "rotorkick.basis", "rotorkick.config", "rotorkick.errors"]
    package = pathlib.Path(rotorkick.__file__).parent
    assert everything == sorted({"rotorkick"} | {f"rotorkick.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"})


def test_cli_fixedpoints_small(tmp_path, capsys):
    cfg = _small_config(out_dir=str(tmp_path))
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert main(["fixedpoints", "--config", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "fixedpoints_orientation.json").read_text())
    assert payload["N"] == 4
    assert payload["commutant_dim"] == 6
    assert payload["bound"] == 10
    assert payload["target_is_stationary"] is True
    assert payload["maximally_mixed_is_stationary"] is True
    assert payload["config_hash"] == cfg.config_hash()


def test_cli_bounds_outputs(tmp_path, capsys):
    cfg = _small_config(out_dir=str(tmp_path), temperatures_k=(5.0, 10.0))
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert main(["bounds", "--config", str(path)]) == 0
    capsys.readouterr()
    for temperature in ("5", "10"):
        table = tmp_path / f"bounds_orientation_T{temperature}K.csv"
        lines = table.read_text().splitlines()
        assert lines[0].startswith("# config-hash: ")
        assert lines[1] == "process,j_max,T_K,optimal,linear,duration_linear,duration_linear_longest"
        assert len(lines) == 4  # j_max 1..2


def test_cli_bounds_one_table_per_listed_temperature(tmp_path, capsys):
    # a repeated temperature would be swept twice and its table written twice: rejected up front
    path = _raw_config_file(tmp_path, temperatures_k=[10.0, 5.0, 10.0])
    assert main(["bounds", "--config", str(path)]) == 2
    assert "temperature 10 K is listed more than once" in capsys.readouterr().err
    assert not list(tmp_path.glob("bounds_*.csv"))


def test_cli_bounds_rejects_an_empty_temperature_list(tmp_path, capsys):
    # with no temperature, bounds would sweep nothing, write nothing and exit 0
    path = _raw_config_file(tmp_path, temperatures_k=[])
    assert main(["bounds", "--config", str(path)]) == 2
    assert "temperatures_k" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_bounds_rejects_temperatures_sharing_a_file_name(tmp_path, capsys):
    # both print as 5 under %g, so their tables would both be bounds_orientation_T5K.csv
    path = _raw_config_file(tmp_path, temperatures_k=[5.0, 5.0000001])
    assert main(["bounds", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "temperature 5 K is listed more than once" in err
    assert "5.0 and 5.0000001" in err
    assert not list(tmp_path.glob("bounds_*.csv"))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_simulate_and_bounds_build_no_dense_matrix(preset, tmp_path, monkeypatch, capsys):
    import rotorkick.basis
    import rotorkick.operators

    def dense(*args, **kwargs):
        raise AssertionError("dense N x N matrix built")

    # the dense exits, .matrix and scatter, and the dense entry, from_matrix
    monkeypatch.setattr(rotorkick.operators.HermitianOperator, "matrix", property(dense))
    monkeypatch.setattr(rotorkick.basis.BlockDecomposition, "scatter", dense)
    monkeypatch.setattr(rotorkick.operators.HermitianOperator, "from_matrix", classmethod(dense))
    for command, *extra in (("simulate",), ("bounds",), ("controllability", "--j-max", "1", "2", "3"), ("fixedpoints",)):
        assert main([command, "--preset", preset, "--out", str(tmp_path / command), *extra]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("preset, limit_mb", [("licl-5K", 4.6), ("licl-5K-alignment", 3.0)])
def test_physical_run_allocates_a_few_stacks(preset, limit_mb):
    # real inputs, target and functionals stay float64 and the unchosen kick candidate is released:
    # complex stacks throughout and three kept candidates peaked at 6.29 and 4.21 MB
    import tracemalloc

    from rotorkick.cli import _run_one_mode

    config = PRESETS[preset].with_overrides(j_sim=24)
    _run_one_mode(config, "physical")  # bases, decompositions and partition sums are cached from here on
    tracemalloc.start()
    try:
        _run_one_mode(config, "physical")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6


def test_physical_maxima_can_fall_where_the_idealized_ones_cannot(tmp_path, capsys):
    # the physical kick acts on the j_sim basis and moves population out of the control space, which the
    # functional does not see, so its maxima may fall; the run says so with leak warnings
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps(PRESETS["licl-5K"].with_overrides(j_max=1, j_sim=3, kick_amplitude=4.44, max_kicks=10).to_dict())
    )
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    idealized, physical = (
        json.loads((tmp_path / "out" / f"train_{mode}.json").read_text()) for mode in ("idealized", "physical")
    )
    assert np.all(np.diff(idealized["maxima"]) >= 0) and not idealized["warnings"]
    assert physical["maxima"][2:4] == pytest.approx([0.0357, 0.0107], abs=1e-4)
    assert physical["warnings"]


def test_cli_bounds_empty_range(tmp_path, capsys):
    path = _raw_config_file(tmp_path, j_max_range=[3, 2])
    assert main(["bounds", "--config", str(path)]) == 2
    assert "j_max_range" in capsys.readouterr().err
    assert not (tmp_path / "bounds_orientation_T5K.csv").exists()


def test_cli_outputs_deterministic(tmp_path, capsys):
    cfg = _small_config(out_dir=str(tmp_path), temperatures_k=(5.0,))
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert main(["bounds", "--config", str(path)]) == 0
    first = (tmp_path / "bounds_orientation_T5K.csv").read_bytes()
    assert main(["bounds", "--config", str(path)]) == 0
    second = (tmp_path / "bounds_orientation_T5K.csv").read_bytes()
    assert first == second
    assert main(["controllability", "--config", str(path), "--j-max", "1", "2"]) == 0
    j1 = (tmp_path / "controllability_orientation.json").read_bytes()
    assert main(["controllability", "--config", str(path), "--j-max", "1", "2"]) == 0
    assert (tmp_path / "controllability_orientation.json").read_bytes() == j1
    capsys.readouterr()


def test_cli_simulate_small(tmp_path, capsys):
    cfg = _small_config(out_dir=str(tmp_path), j_max=2, j_sim=4, max_kicks=3)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert main(["simulate", "--config", str(path)]) == 0
    capsys.readouterr()
    first = (tmp_path / "train_idealized.json").read_bytes()
    assert main(["simulate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "train_idealized.json").read_bytes() == first
    for mode in ("idealized", "physical"):
        series_lines = (tmp_path / f"timeseries_{mode}.csv").read_text().splitlines()
        assert series_lines[1] == "t_over_Trot,expectation,projection,kick_flag"
        train = json.loads((tmp_path / f"train_{mode}.json").read_text())
        assert train["strategy"] == "S1"
        assert train["mode"] == mode
        assert train["n_kicks"] <= 3
        assert len(train["times_over_Trot"]) == train["n_kicks"]
        assert "final_efficiency" in train and "final_duration_above" in train
        # kick markers in the series match the recorded kick count
        flags = [line.split(",")[-1] for line in series_lines[2:]]
        assert flags.count("1") == train["n_kicks"]


def test_cli_out_flag_overrides(tmp_path, capsys):
    out = tmp_path / "elsewhere"
    assert main(["controllability", "--preset", "licl-5K", "--out", str(out), "--j-max", "1"]) == 0
    capsys.readouterr()
    assert (out / "controllability_orientation.csv").exists()


def test_cli_invalid_parameter_exit_code(tmp_path, capsys):
    path = _raw_config_file(tmp_path, j_max_range=[0, 1])
    assert main(["bounds", "--config", str(path)]) == 2
    assert "j_max_range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("simulate", "j_max", 1.5),
        ("fixedpoints", "j_max", 1.5),
        ("bounds", "j_max", 1.5),
        ("simulate", "j_sim", 2.5),
        ("simulate", "j_sim", True),
        ("simulate", "max_kicks", 2.5),
        ("bounds", "j_max_range", [1.5, 3]),
        ("bounds", "j_max_range", [True, 2]),
        ("simulate", "renormalize", "no"),
        ("bounds", "renormalize", 0),
        ("bounds", "out_dir", 5),
        ("simulate", "kick_amplitude", True),
        ("bounds", "temperatures_k", [True]),
        ("simulate", "threshold", "0.5"),
        ("simulate", "gain_tol", "1e-4"),
        ("bounds", "molecule", {"b_cm": "0.7", "temperature_k": 5.0}),
        ("bounds", "molecule", {"b_cm": 0.7, "temperature_k": 5.0, "dipole_debye": False}),
        ("bounds", "molecule", [0.7, 5.0]),
    ],
)
def test_cli_mistyped_config_value_is_config_error(tmp_path, capsys, command, field, value):
    path = _raw_config_file(tmp_path, **{field: value})
    assert main([command, "--config", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _float_fields():
    """Every float field of the config, a molecule field prefixed with molecule."""
    for cls, prefix in ((MoleculeParams, "molecule."), (RunConfig, "")):
        yield from (prefix + f.name for f in dataclasses.fields(cls) if "float" in str(f.type))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", list(_float_fields()))
@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_cli_non_finite_config_value_is_config_error(tmp_path, capsys, command, field, value):
    # json reads NaN and Infinity as floats; a check such as b_cm <= 0 lets NaN through
    payload = json.loads(_raw_config_file(tmp_path).read_text())
    *molecule, name = field.split(".")
    values = payload["molecule"] if molecule else payload
    values[name] = [5.0, value] if name == "temperatures_k" else value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--config", str(path)]) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_config_without_molecule_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"process": "orientation", "out_dir": str(tmp_path)}))
    assert main(["bounds", "--config", str(path)]) == 2
    assert "molecule" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "process, threshold",
    [("orientation", 5.0), ("orientation", -1.0), ("alignment", 0.0), ("alignment", 1.2)],
)
def test_cli_threshold_outside_observable_range(tmp_path, capsys, process, threshold):
    path = _raw_config_file(tmp_path, process=process, threshold=threshold)
    assert main(["simulate", "--config", str(path)]) == 2
    assert "threshold" in capsys.readouterr().err
    assert not list(tmp_path.glob("train_*.json"))


def test_cli_bounds_threshold_outside_a_cutoffs_range_names_the_cutoff(tmp_path, capsys):
    # 0.9 lies in the range of cos theta, but not in its range at j_max = 1, the first cutoff of the sweep
    path = _raw_config_file(tmp_path, threshold=0.9, j_max_range=[1, 12])
    assert main(["bounds", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "threshold 0.9 outside the observable range [-0.577350, 0.577350] at j_max = 1" in err
    assert not list(tmp_path.glob("bounds_*.csv"))


def test_cli_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    import rotorkick.cli as cli
    from rotorkick.errors import NumericalError

    def boom(config, j_values=None):
        raise NumericalError("synthetic eigensolver breakdown")

    monkeypatch.setattr(cli, "cmd_controllability", boom)
    assert main(["controllability", "--preset", "licl-5K", "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_linalg_error_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which is exit 2; a numerical failure is exit 3 all the same
    import rotorkick.cli as cli

    def boom(config):
        raise np.linalg.LinAlgError("synthetic SVD breakdown")

    monkeypatch.setattr(cli, "cmd_bounds", boom)
    assert main(["bounds", "--preset", "licl-5K", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "synthetic SVD breakdown" in err


def test_cli_lie_dimension_above_bound_is_numerical_failure(tmp_path, capsys, monkeypatch):
    import rotorkick.controllability as controllability
    from rotorkick.controllability import dims_required

    def inflated(j_max, kind):
        return dims_required(j_max, 1, kind)[1] + 1, 1

    monkeypatch.setattr(controllability, "lie_closure", inflated)
    assert main(["controllability", "--preset", "licl-5K", "--out", str(tmp_path), "--j-max", "2"]) == 3
    assert "above the bound" in capsys.readouterr().err
    assert not (tmp_path / "controllability_orientation.json").exists()


def test_cli_cutoff_209_is_certified(tmp_path, capsys):
    assert main(["controllability", "--preset", "licl-5K", "--out", str(tmp_path), "--j-max", "209"]) == 0
    capsys.readouterr()
    lines = [line for line in (tmp_path / "controllability_orientation.csv").read_text().splitlines() if line[0] != "#"]
    assert lines[0] == "j_max,dim_L,D,D_prime"
    j_max, dim_l, _, d_prime = lines[1].split(",")
    assert j_max == "209" and dim_l == d_prime and len(lines) == 2


@pytest.mark.parametrize("cutoffs", [["0"], ["2", "0"], ["-1"]])
def test_cli_cutoff_below_one_is_config_error_before_any_is_computed(tmp_path, capsys, monkeypatch, cutoffs):
    import rotorkick.cli as cli

    def computed(j_max, kind):
        raise AssertionError(f"j_max={j_max} was computed")

    monkeypatch.setattr(cli, "controllability_report", computed)
    assert main(["controllability", "--preset", "licl-5K", "--out", str(tmp_path), f"--j-max={cutoffs[0]}", *cutoffs[1:]]) == 2
    assert f"j_max >= 1, got {cutoffs[-1]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_state_drift_is_numerical_failure(tmp_path, capsys, monkeypatch):
    import rotorkick.dynamics as dynamics

    real = dynamics.kick_unitary
    monkeypatch.setattr(dynamics, "kick_unitary", lambda op, amplitude: (1 + 1e-9) * real(op, amplitude))
    path = _raw_config_file(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "kick 1" in err
    assert not list(tmp_path.glob("train_*.json"))


def test_cli_kicked_nan_state_is_numerical_failure(tmp_path, capsys, monkeypatch):
    import rotorkick.dynamics as dynamics

    real = dynamics.kick_unitary

    def poisoned(op, amplitude):
        u = real(op, amplitude).copy()
        u[0, 0, 0] = np.nan
        return u

    monkeypatch.setattr(dynamics, "kick_unitary", poisoned)
    path = _raw_config_file(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "kick 1" in err and "nan" in err
    assert not list(tmp_path.glob("train_*.json"))


def test_eigensolver_failure_wrapped(monkeypatch):
    import numpy as np

    from rotorkick.basis import Basis
    from rotorkick.errors import NumericalError
    from rotorkick.operators import HermitianOperator

    basis = Basis(3, [0, 1, 2, 3], [0, 0, 0, 0])  # one m block of four states
    op = HermitianOperator.from_matrix(basis, np.ones((4, 4)))  # not diagonal, so the eigensolver runs

    def fail(mat):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="4x4"):
        op.eigensystem


@pytest.mark.parametrize(
    "argv", [["bounds", "--preset", "licl-5K-alignment"], ["simulate", "--preset", "licl-5K"]], ids=lambda a: a[0]
)
def test_repeated_in_process_runs_write_identical_bytes(argv, tmp_path):
    # bases, decompositions and partition sums are shared between runs; none may carry state into the next
    written = []
    for _ in range(2):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        written.append({path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())})
    assert len(written[0]) >= 2 and written[0] == written[1]


def test_cli_cutoff_listed_twice_is_config_error(tmp_path, capsys, monkeypatch):
    # j_max 3 would be computed twice and written as two identical rows
    import rotorkick.cli as cli

    def computed(j_max, kind):
        raise AssertionError(f"j_max={j_max} was computed")

    monkeypatch.setattr(cli, "controllability_report", computed)
    assert main(["controllability", "--preset", "licl-5K", "--out", str(tmp_path), "--j-max", "3", "3", "1"]) == 2
    assert "j_max=3 is listed more than once" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
