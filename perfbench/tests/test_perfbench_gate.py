"""The output gate accepts well-formed outputs and rejects corrupted ones."""

import json
import os
import time

import pytest

import gate
from workloads import Command

HASH = "0123456789abcdef"
SIM = Command("simulate-test", "simulate", "orientation", {"max_kicks": 2})


def _write_train(out_dir, mode, maxima=(0.3, 0.5, 0.6), times=(0.1, 0.4), efficiency=0.6, bound=0.8):
    payload = {
        "config_hash": HASH,
        "n_kicks": len(times),
        "times_over_Trot": list(times),
        "amplitudes": [2.0] * len(times),
        "maxima": list(maxima),
        "final_efficiency": efficiency,
        "linear_bound": bound,
        "stop_reason": "max_kicks",
        "final_duration_above": {"total": 0.2, "longest": 0.1},
    }
    with open(os.path.join(out_dir, f"train_{mode}.json"), "w") as fh:
        json.dump(payload, fh)
    rows = ["0,0.3,nan,0", f"{times[0]},0.3,nan,1", f"{times[1]},0.5,nan,1", "1.4,0.6,nan,0"]
    with open(os.path.join(out_dir, f"timeseries_{mode}.csv"), "w") as fh:
        fh.write("\n".join([f"# config-hash: {HASH}", "t_over_Trot,expectation,projection,kick_flag", *rows]) + "\n")


def _simulate_outputs(out_dir, **idealized):
    _write_train(out_dir, "idealized", **idealized)
    _write_train(out_dir, "physical")


def _check(cmd, out_dir, rc=0, printed=None):
    paths = [os.path.join(out_dir, name) for name in gate.expected_files(cmd)]
    stdout = "\n".join(paths if printed is None else printed)
    return gate.check_command(cmd, str(out_dir), rc, stdout, spawned_at=time.time() - 5.0)


def test_well_formed_train_passes(tmp_path):
    _simulate_outputs(tmp_path)
    problems, facts = _check(SIM, tmp_path)
    assert problems == []
    assert facts["idealized"]["iterations"] == 2


def test_decreasing_maxima_fail(tmp_path):
    _simulate_outputs(tmp_path, maxima=(0.3, 0.5, 0.49))
    problems, _ = _check(SIM, tmp_path)
    assert any("maxima decrease" in p for p in problems)


def test_efficiency_above_linear_bound_fails(tmp_path):
    _simulate_outputs(tmp_path, efficiency=0.81)
    problems, _ = _check(SIM, tmp_path)
    assert any("exceeds the linear bound" in p for p in problems)


def test_kick_times_must_increase(tmp_path):
    _simulate_outputs(tmp_path, times=(0.4, 0.4))
    problems, _ = _check(SIM, tmp_path)
    assert any("strictly increase" in p for p in problems)


def test_missing_file_fails(tmp_path):
    _simulate_outputs(tmp_path)
    os.unlink(tmp_path / "train_physical.json")
    problems, _ = _check(SIM, tmp_path)
    assert any("missing" in p for p in problems)


def test_exit_zero_without_outputs_fails(tmp_path):
    problems, _ = _check(SIM, tmp_path, printed=[])
    assert problems and any("printed paths" in p for p in problems)
    assert any("missing" in p for p in problems)


def test_stale_outputs_fail(tmp_path):
    _simulate_outputs(tmp_path)
    old = time.time() - 3600
    for name in gate.expected_files(SIM):
        os.utime(tmp_path / name, (old, old))
    problems, _ = _check(SIM, tmp_path)
    assert any("not freshly written" in p for p in problems)


def test_nonzero_exit_fails(tmp_path):
    _simulate_outputs(tmp_path)
    assert _check(SIM, tmp_path, rc=3)[0] == ["exit code 3"]


def test_truncated_json_fails(tmp_path):
    _simulate_outputs(tmp_path)
    (tmp_path / "train_idealized.json").write_text('{"n_kicks": 2')
    problems, _ = _check(SIM, tmp_path)
    assert any("malformed output" in p for p in problems)


def test_bounds_with_optimal_below_linear_fail(tmp_path):
    cmd = Command("bounds-test", "bounds", "orientation", {"temperatures_k": [5.0], "j_max_range": [1, 2]})
    rows = ["orientation,1,5,0.6,0.5,0.3,0.2", "orientation,2,5,0.6,0.7,0.3,0.2"]
    header = "process,j_max,T_K,optimal,linear,duration_linear,duration_linear_longest"
    (tmp_path / "bounds_orientation_T5K.csv").write_text("\n".join([f"# config-hash: {HASH}", header, *rows]) + "\n")
    problems, _ = _check(cmd, tmp_path)
    assert problems == ["bounds_orientation_T5K.csv: optimal < linear at j_max=2"]


def test_inexact_lie_dimension_fails():
    cmd = Command("controllability-test", "controllability", "orientation", {}, ("--j-max", "1", "2"))
    reference = {"dim_L": {"orientation": {"1": 4, "2": 14}}}
    assert gate.check_reference(cmd, {"dim_L": {"1": 4, "2": 14}}, reference, "algebra", False) == []
    assert gate.check_reference(cmd, {"dim_L": {"1": 4, "2": 13}}, reference, "algebra", False)


@pytest.mark.parametrize("value, ok", [(0.5 + 1e-12, True), (0.5 + 1e-6, False)])
def test_reference_tolerance(value, ok):
    reference = {"a": [0.5, 3], "dim_span": 20}
    facts = {"a": [value, 3], "dim_span": 26}  # dim_span is reported, never compared
    assert (gate.compare_reference(reference, facts) == []) is ok


def test_kick_times_have_their_own_tolerance():
    reference = {"times_over_Trot": [0.2, 0.3], "maxima": [0.5]}
    assert gate.compare_reference(reference, {"times_over_Trot": [0.2 + 5e-8, 0.3], "maxima": [0.5]}) == []
    assert gate.compare_reference(reference, {"times_over_Trot": [0.2 + 5e-7, 0.3], "maxima": [0.5]})
    assert gate.compare_reference(reference, {"times_over_Trot": [0.2, 0.3], "maxima": [0.5 + 5e-8]})
