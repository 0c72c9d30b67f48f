"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are fixed here and match the package's documented claims.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import (
    block_unitary,
    brute_force_pairing,
    haar_unitary,
    index_of,
    quadrature_cos_power_element,
    replayed,
)
from rotorkick.basis import ALIGNMENT, ORIENTATION, block_decomposition, build_basis
from rotorkick.cli import main
from rotorkick.config import beta_from
from rotorkick.controllability import fixed_point_analysis, is_kick_stationary, two_level_obstruction
from rotorkick.dynamics import apply_kick, free_propagate, make_kick, run_strategy
from rotorkick.operators import (
    DensityMatrix,
    cos2_theta_matrix,
    cos_theta_matrix,
    h0_matrix,
    observable_matrix,
    thermal_state,
)
from rotorkick.target import bound_sweep, build_target

LICL_B_CM = 0.70652


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\n[acceptance] criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def preset_simulation(tmp_path_factory):
    """One `simulate` run of the reference orientation preset (both modes)."""
    out = tmp_path_factory.mktemp("preset-run")
    code = main(["simulate", "--preset", "licl-5K", "--out", str(out)])
    assert code == 0
    trains = {}
    for mode in ("idealized", "physical"):
        trains[mode] = json.loads((out / f"train_{mode}.json").read_text())
    return trains


def test_criterion_1_reference_tables(tmp_path):
    start = time.time()
    expected = {
        "orientation": [(1, 4, 4, 4), (2, 12, 15, 12), (3, 27, 38, 27)],
        "alignment": [(1, 2, 5, 2), (2, 5, 16, 5), (3, 11, 39, 11)],
    }
    ok = True
    details = []
    for process, rows in expected.items():
        preset = "licl-5K" if process == "orientation" else "licl-5K-alignment"
        code = main(
            ["controllability", "--preset", preset, "--out", str(tmp_path), "--j-max", "1", "2", "3"]
        )
        ok = ok and code == 0
        payload = json.loads((tmp_path / f"controllability_{process}.json").read_text())
        got = [(r["j_max"], r["dim_L"], r["D"], r["D_prime"]) for r in payload["reports"]]
        if got != rows:
            ok = False
            details.append(f"{process}: {got}")
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report(1, "reference tables exact", ok, f"elapsed {elapsed:.1f}s" + "; ".join(details))


def test_criterion_2_two_level_witness():
    ok = True
    for j_max in range(2, 11):
        report = two_level_obstruction(j_max)
        basis = build_basis(j_max)
        c = cos_theta_matrix(basis)
        element = c.matrix[index_of(basis, j_max, j_max - 1), index_of(basis, j_max - 1, j_max - 1)].real
        ok = ok and abs(report.coupling - 1 / math.sqrt(2 * j_max + 1)) <= 1e-12
        ok = ok and abs(element - report.coupling) <= 1e-12
        ok = ok and report.gap_plus == 2 * j_max and report.gap_minus == 2 * j_max
    _report(2, "two-level witness", ok)


def test_criterion_3_kinematical_bounds():
    start = time.time()
    details = []
    ok = True
    for kind in (ORIENTATION, ALIGNMENT):
        row = bound_sweep([8], [5.0], kind, b_cm=LICL_B_CM, kb_cm_per_k=0.6950348)[0]
        ratio = row.linear / row.optimal
        details.append(f"{kind}: opt={row.optimal:.4f} lin={row.linear:.4f} ratio={ratio:.4f}")
        ok = ok and ratio >= 0.9
        if kind == ORIENTATION:
            ok = ok and 0.75 <= row.optimal <= 1.0
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report(3, "kinematical bounds", ok, "; ".join(details) + f"; elapsed {elapsed:.1f}s")


def test_criterion_4_temperature_degradation():
    # the tested efficiency is the linear-polarization orientation bound at
    # j_max = 8, the quantity behind the persistence/efficiency tables
    rows = bound_sweep([8], [5.0, 10.0], ORIENTATION, b_cm=LICL_B_CM, kb_cm_per_k=0.6950348)
    v5 = rows[0].linear
    v10 = rows[1].linear
    loss = (v5 - v10) / v5
    loss_opt = (rows[0].optimal - rows[1].optimal) / rows[0].optimal
    ok = 0.15 <= loss <= 0.40
    _report(
        4,
        "temperature degradation",
        ok,
        f"linear loss={loss:.4f} (optimal-bound loss={loss_opt:.4f}, informational)",
    )


def test_criterion_5_strategy_outcome(preset_simulation):
    start = time.time()
    s1 = preset_simulation["idealized"]
    eff1 = s1["final_efficiency"]
    dur1 = s1["final_duration_above"]["total"]
    ok = eff1 >= 0.70 and dur1 >= 0.03
    # S2 with 9 kicks on the same configuration
    basis = build_basis(8)
    beta = beta_from(LICL_B_CM, 5.0)
    rho0 = thermal_state(basis, beta)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    target = build_target(rho0, obs, block_decomposition(basis, ORIENTATION))
    kick = make_kick(basis, ORIENTATION, 2.0)
    rec2, _ = run_strategy(rho0, "S2", kick, h0, target=target, max_kicks=9)
    eff2 = rec2.final_efficiency
    dur2 = rec2.final_duration.total
    ok = ok and abs(eff1 - eff2) <= 0.05 and abs(dur1 - dur2) <= 0.05
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    _report(
        5,
        "strategy outcome",
        ok,
        f"S1 eff={eff1:.4f} dur={dur1:.4f}; S2 eff={eff2:.4f} dur={dur2:.4f}; elapsed {elapsed:.1f}s",
    )


def test_criterion_6_property_suite(preset_simulation):
    rng = np.random.default_rng(20260809)
    ok = True
    details = []

    # (a)+(b)+(d): randomized configurations
    for run in range(20):
        j_max = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.05, 1.2))
        amplitude = float(rng.uniform(0.3, 3.0))
        kind = [ORIENTATION, ALIGNMENT][int(rng.integers(0, 2))]
        strategy = ["S1", "S2"][int(rng.integers(0, 2))]
        kicks = int(rng.integers(3, 6))
        basis = build_basis(j_max)
        h0 = h0_matrix(basis)
        obs = observable_matrix(basis, kind)
        rho0 = thermal_state(basis, beta)
        target = build_target(rho0, obs, block_decomposition(basis, kind))
        kick = make_kick(basis, kind, amplitude)
        record, series = run_strategy(rho0, strategy, kick, h0, target=target, max_kicks=kicks)
        if not np.all(np.diff(record.maxima) >= -1e-12):
            ok = False
            details.append(f"run {run}: maxima not monotone")
        final = replayed(record, rho0, h0, kick, record.n_kicks)
        if (
            abs(np.trace(final.matrix).real - np.trace(rho0.matrix).real) > 1e-9
            or abs(final.purity() - rho0.purity()) > 1e-9
            or np.max(np.abs(final.eigenvalues - rho0.eigenvalues)) > 1e-9
        ):
            ok = False
            details.append(f"run {run}: state not unitarily conserved")
        if series.expectation.max() > target.achieved + 1e-9:
            ok = False
            details.append(f"run {run}: bound exceeded")

    # the reference preset run obeys the same two properties
    s1 = preset_simulation["idealized"]
    if not np.all(np.diff(s1["maxima"]) >= -1e-12):
        ok = False
        details.append("preset maxima not monotone")
    if max(s1["maxima"]) > s1["linear_bound"] + 1e-9:
        ok = False
        details.append("preset bound exceeded")

    # (c): idealized kicks leave the strategy functional unchanged
    for kind in (ORIENTATION, ALIGNMENT):
        basis = build_basis(3)
        obs = observable_matrix(basis, kind)
        rho = thermal_state(basis, beta=0.3)
        h0 = h0_matrix(basis)
        rho = free_propagate(apply_kick(rho, make_kick(basis, kind, 1.7)), h0, 0.4)
        for amplitude in (0.5, 1.0, 2.0):
            kicked = apply_kick(rho, make_kick(basis, kind, amplitude))
            if abs(kicked.expectation(obs) - rho.expectation(obs)) > 1e-12:
                ok = False
                details.append(f"kick invariance broken ({kind}, A={amplitude})")

    # (e): bound dominance over 200 random block unitaries per process
    for kind in (ORIENTATION, ALIGNMENT):
        basis = build_basis(4)
        obs = observable_matrix(basis, kind)
        blocks = block_decomposition(basis, kind)
        rho0 = thermal_state(basis, beta=0.25)
        lin = build_target(rho0, obs, blocks)
        opt = build_target(rho0, obs)
        for _ in range(200):
            u = block_unitary(basis.dim, blocks, rng)
            val = float(np.sum(obs.matrix * (u @ rho0.matrix @ u.conj().T).T).real)
            if val > lin.achieved + 1e-10:
                ok = False
                details.append(f"block dominance broken ({kind})")
                break
        for _ in range(200):
            u = haar_unitary(basis.dim, rng)
            val = float(np.sum(obs.matrix * (u @ rho0.matrix @ u.conj().T).T).real)
            if val > opt.achieved + 1e-10:
                ok = False
                details.append(f"global dominance broken ({kind})")
                break

    _report(6, "property suite", ok, "; ".join(details) if details else "20 random configs + dominance")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7321)
    ok = True
    details = []
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        weights = rng.uniform(0.0, 1.0, size=n)
        eigenvalues = rng.uniform(-3.0, 3.0, size=n)
        from rotorkick.target import optimal_pairing

        got = optimal_pairing(weights, eigenvalues).value
        want = brute_force_pairing(weights, eigenvalues)
        if abs(got - want) > 1e-12:
            ok = False
            details.append(f"pairing mismatch: {got} vs {want}")
            break

    basis = build_basis(6)
    c = cos_theta_matrix(basis).matrix
    c2 = cos2_theta_matrix(basis).matrix
    worst = 0.0
    states = list(zip(basis.j_values.tolist(), basis.m_values.tolist()))
    for a, (ja, ma) in enumerate(states):
        for b, (jb, mb) in enumerate(states):
            if ma != mb:
                continue
            worst = max(worst, abs(c[a, b].real - quadrature_cos_power_element(ja, jb, ma, 1)))
            worst = max(worst, abs(c2[a, b].real - quadrature_cos_power_element(ja, jb, ma, 2)))
    ok = ok and worst <= 1e-9
    _report(7, "oracle equivalence", ok, f"max quadrature deviation {worst:.2e}" + "; ".join(details))


def test_criterion_8_fixed_points():
    start = time.time()
    ok = True
    details = []
    # bound holds over the j_max <= 3 suite, both processes
    for kind in (ORIENTATION, ALIGNMENT):
        for j_max in (1, 2, 3):
            basis = build_basis(j_max)
            h0 = h0_matrix(basis)
            obs = observable_matrix(basis, kind)
            kick = make_kick(basis, kind, 2.0)
            report = fixed_point_analysis(h0, obs)
            if report.dim_span > report.bound:
                ok = False
                details.append(f"bound violated ({kind}, j={j_max})")
            rho0 = thermal_state(basis, beta=0.4)
            target = build_target(rho0, obs, block_decomposition(basis, kind))
            mixed = DensityMatrix.from_matrix(basis, np.eye(basis.dim, dtype=complex) / basis.dim)
            if not is_kick_stationary(target.rho, h0, obs):
                ok = False
                details.append(f"target not stationary ({kind}, j={j_max})")
            if not is_kick_stationary(mixed, h0, obs):
                ok = False
                details.append(f"mixed state not stationary ({kind}, j={j_max})")
            if j_max >= 2:
                mid = free_propagate(apply_kick(rho0, kick), h0, 0.37)
                if is_kick_stationary(mid, h0, obs):
                    ok = False
                    details.append(f"mid-train state wrongly stationary ({kind}, j={j_max})")
    # exact two-level case
    from rotorkick.basis import Basis

    two = Basis(j_max=1, j_values=[0, 1], m_values=[0, 0])
    h0 = h0_matrix(two)
    c = cos_theta_matrix(two)
    report = fixed_point_analysis(h0, c)
    ok = ok and report.dim_span == 2 and report.bound == 2
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report(8, "fixed points", ok, "; ".join(details) + f"two-level dimV={report.dim_span}; elapsed {elapsed:.1f}s")


def test_criterion_9_reduction_validity(preset_simulation):
    eff_ideal = preset_simulation["idealized"]["final_efficiency"]
    eff_phys = preset_simulation["physical"]["final_efficiency"]
    diff = abs(eff_ideal - eff_phys)
    ok = diff < 0.02
    _report(
        9,
        "reduction validity",
        ok,
        f"idealized={eff_ideal:.4f} physical={eff_phys:.4f} diff={diff:.4f}",
    )
