"""Self-time arithmetic, span nesting and patch coverage of the benchmark's tracer."""

import json

import pytest

import run
import tracer
from conftest import REPO_ROOT


def test_self_times_on_synthetic_span_tree():
    # main [0, 10] -> a [1, 4] -> b [2, 3];  main -> a [5, 6];  main -> c [7, 9.5]
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("x.a", 1.0, 4.0, 0),
        ("x.b", 2.0, 3.0, 1),
        ("x.a", 5.0, 6.0, 0),
        ("x.c", 7.0, 9.5, 0),
    ]
    out = tracer.summarize(spans)
    assert out["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 3.5}
    assert out["x.a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert out["x.b"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert out["x.c"] == {"calls": 1, "total_s": 2.5, "self_s": 2.5}
    assert tracer.self_time_total({"names": out}) == pytest.approx(10.0)


def test_recorder_nests_spans_by_call_stack():
    ticks = iter(range(100))
    rec = tracer.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    rec.wrap("m.outer", body)()
    names = rec.summary()["names"]
    # outer: ticks 0..5; inners: 1..2 and 3..4
    assert names["m.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert names["m.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_install_patches_every_importer_and_restores():
    from rotorkick import dynamics, evolution, operators, target
    from rotorkick.basis import build_basis

    originals = (evolution.global_max, operators.kick_unitary)
    rec = tracer.Recorder()
    restore = tracer.install(rec)
    try:
        assert dynamics.global_max is target.global_max is evolution.global_max
        assert evolution.global_max is not originals[0]
        assert dynamics.kick_unitary is operators.kick_unitary is not originals[1]

        basis = build_basis(2)
        rho0 = operators.thermal_state(basis, 0.5)
        kick = dynamics.make_kick(basis, "orientation", 1.0)
        record, _ = dynamics.run_strategy(rho0, "S1", kick, operators.h0_matrix(basis), max_kicks=2)
        target.bound_sweep([1, 2], [5.0], "orientation", b_cm=0.7, kb_cm_per_k=0.695)
    finally:
        restore()
    assert (evolution.global_max, operators.kick_unitary) == originals
    assert dynamics.global_max is target.global_max is originals[0]

    summary = rec.summary()
    calls = {name: agg["calls"] for name, agg in summary["names"].items()}
    iterations = record.n_kicks + (record.stop_reason == "converged")
    assert calls["operators.kick_unitary"] == calls["dynamics.apply_kick"] == 2 * iterations
    assert calls["target.duration_above"] == 2
    assert summary["counters"]["kicks_fired"] == record.n_kicks
    metrics = tracer.layer_metrics(tracer.merge([summary]))
    assert metrics["evolution.values_bytes_computed"] == 16 * metrics["evolution.values_points"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    per_layer = [(name, unit, better) for name, unit, better, _ in tracer.PER_LAYER] + [tracer.OVERHEAD_METRIC]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
