import math

import numpy as np
import pytest

from rotorkick.basis import ALIGNMENT, ORIENTATION, block_decomposition, build_basis
from rotorkick.dynamics import (
    KickSpec,
    _SeriesAccumulator,
    _Train,
    apply_kick,
    free_propagate,
    leakage,
    make_kick,
    post_kick_slope,
    run_strategy,
)
from rotorkick.evolution import PERIOD, FrequencyLattice, TraceSeries, global_max
from rotorkick.operators import (
    DensityMatrix,
    HermitianOperator,
    cos_theta_matrix,
    embed_density,
    h0_matrix,
    observable_matrix,
    thermal_state,
)
from rotorkick.target import build_target

from oracles import dense_train, full_basis_physical_run, index_of, replayed


def _coherent_pair(basis, phase=0.0):
    i0, i1 = index_of(basis, 0, 0), index_of(basis, 1, 0)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[i0, i0] = mat[i1, i1] = 0.5
    mat[i0, i1] = 0.5 * np.exp(1j * phase)
    mat[i1, i0] = np.conj(mat[i0, i1])
    return DensityMatrix.from_matrix(basis, mat)


def test_free_propagation_period():
    basis = build_basis(3)
    h0 = h0_matrix(basis)
    rho = _coherent_pair(basis, phase=0.3)
    back = free_propagate(rho, h0, PERIOD)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


def test_free_propagation_stationary_diagonal():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    rho = thermal_state(basis, beta=0.5)
    moved = free_propagate(rho, h0, 0.7321)
    assert np.max(np.abs(moved.matrix - rho.matrix)) < 1e-15


def test_two_level_coherence_frequency():
    basis = build_basis(1)
    h0 = h0_matrix(basis)
    rho = _coherent_pair(basis)
    i0, i1 = index_of(basis, 0, 0), index_of(basis, 1, 0)
    t = 0.4
    moved = free_propagate(rho, h0, t)
    # E(0,0) = 0, E(1,0) = 2: the coherence rotates at frequency 2
    assert moved.matrix[i0, i1] == pytest.approx(0.5 * np.exp(1j * 2 * t), abs=1e-14)
    assert abs(moved.matrix[i0, i1]) == pytest.approx(0.5, abs=1e-14)


def test_free_propagate_requires_diagonal_h0():
    basis = build_basis(1)
    c = cos_theta_matrix(basis)
    rho = thermal_state(basis, beta=1.0)
    with pytest.raises(ValueError):
        free_propagate(rho, c, 0.1)
    # every m block holds j = 1 on slot 1, so the energies cannot depend on m
    tilted = HermitianOperator.from_matrix(basis, np.diag([4.0, 0.0, 2.0, 2.0]), rho.blocks)
    with pytest.raises(ValueError, match="differ between blocks of one class"):
        free_propagate(rho, tilted, 0.1)


def _next_max(rho, functional, h0):
    """(t, value, flat) of the earliest global maximum of Tr[functional rho(t)] in [0, pi)."""
    state = rho.regroup(functional.blocks, "state")
    blocks = functional.blocks
    lattice = FrequencyLattice(blocks.rows(h0.energies()), blocks.classes)
    res = global_max(TraceSeries(state.stack, functional.stack, lattice))
    return res.t, res.value, res.flat


def test_find_max_flat_flag():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    rho = thermal_state(basis, beta=0.5)
    t, value, flat = _next_max(rho, obs, h0)
    assert flat
    assert t == 0.0
    assert value == pytest.approx(0.0, abs=1e-14)


def test_find_max_matches_analytic_cosine():
    basis = build_basis(1)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    for phase in (0.0, 0.8, 2.5, 4.4):
        rho = _coherent_pair(basis, phase=phase)
        # the coherence rotates as exp(+2it), so Tr[O rho(t)] = (1/sqrt3) cos(2t + phase)
        # with its earliest maximum at t* = (-phase/2) mod pi
        t, value, flat = _next_max(rho, obs, h0)
        assert not flat
        expected_t = (-phase / 2) % math.pi
        assert t == pytest.approx(expected_t, abs=1e-9)
        assert value == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_find_max_periodicity():
    basis = build_basis(1)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    rho = _coherent_pair(basis, phase=1.1)
    t1, v1, _ = _next_max(rho, obs, h0)
    # the state one full period later is identical: the search finds the same maximum
    rho_later = free_propagate(rho, h0, PERIOD)
    t2, v2, _ = _next_max(rho_later, obs, h0)
    assert t2 - t1 == pytest.approx(0.0, abs=1e-9)
    assert v2 == pytest.approx(v1, abs=1e-10)


def test_apply_kick_zero_amplitude():
    basis = build_basis(2)
    kick = make_kick(basis, ORIENTATION, 0.0)
    rho = thermal_state(basis, beta=0.4)
    out = apply_kick(rho, kick)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_kick_invariance_and_purity():
    basis = build_basis(3)
    rho = thermal_state(basis, beta=0.3)
    obs = cos_theta_matrix(basis)
    kick = make_kick(basis, ORIENTATION, 2.0)
    kicked = apply_kick(rho, kick)
    assert kicked.expectation(obs) == pytest.approx(rho.expectation(obs), abs=1e-12)
    assert kicked.purity() == pytest.approx(rho.purity(), abs=1e-10)
    assert np.max(np.abs(kicked.eigenvalues - rho.eigenvalues)) < 1e-10


def _target_on_m_parity_blocks(basis):
    obs = observable_matrix(basis, ALIGNMENT)
    return build_target(thermal_state(basis, beta=0.4), obs, block_decomposition(basis, ALIGNMENT)).rho


def test_apply_kick_moves_a_diagonal_state_onto_the_kick_blocks():
    # the thermal state sits on the m blocks and moves onto the cos^2 kick's (m, parity) blocks by its diagonal
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    kind = ALIGNMENT
    kick = make_kick(basis, kind, 1.7)
    rho = thermal_state(basis, beta=0.4)
    assert rho.blocks.kind == ORIENTATION
    mat = rho.matrix
    lam, vec = np.linalg.eigh(kick.operator.matrix)
    u = (vec * np.exp(1.7j * lam)) @ vec.conj().T
    kicked = apply_kick(rho, kick)
    assert np.max(np.abs(kicked.matrix - u @ mat @ u.conj().T)) < 1e-12
    obs = observable_matrix(basis, kind)
    h = 1e-6
    fwd = free_propagate(kicked, h0, h).expectation(obs)
    bwd = free_propagate(kicked, h0, -h).expectation(obs)
    assert post_kick_slope(rho, kick, h0, obs) == pytest.approx((fwd - bwd) / (2 * h), abs=1e-6)


def test_apply_kick_and_post_kick_slope_reject_a_non_diagonal_state_on_other_blocks():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    kick = make_kick(basis, ORIENTATION, 1.7)
    rho = _target_on_m_parity_blocks(basis)
    with pytest.raises(ValueError, match="state has off-diagonal entries.*from alignment onto orientation blocks"):
        apply_kick(rho, kick)
    # the kicked state sits on the kick's m blocks and cannot meet cos^2 on its (m, parity) blocks
    with pytest.raises(ValueError, match="kicked state has off-diagonal entries.*from orientation onto alignment"):
        post_kick_slope(thermal_state(basis, 0.4), kick, h0, observable_matrix(basis, ALIGNMENT))


def test_post_kick_slope_zero_cases():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    kick = make_kick(basis, ORIENTATION, 2.0)
    # rho commuting with the functional: zero slope for every amplitude
    target = build_target(
        thermal_state(basis, beta=0.5), obs, block_decomposition(basis, ORIENTATION)
    )
    for amp in (0.0, 0.7, 2.0, -3.1):
        assert post_kick_slope(target.rho, kick, h0, obs, amplitude=amp) == pytest.approx(0.0, abs=1e-10)
    # A = 0 at a free-evolution maximum: the pre-kick slope vanishes there
    rho = thermal_state(basis, beta=0.5)
    rho = apply_kick(rho, kick)
    t, _, _ = _next_max(rho, obs, h0)
    at_max = free_propagate(rho, h0, t)
    assert post_kick_slope(at_max, kick, h0, obs, amplitude=0.0) == pytest.approx(0.0, abs=1e-10)


def test_post_kick_slope_matches_finite_difference():
    basis = build_basis(3)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    kick = make_kick(basis, ORIENTATION, 2.0)
    rho = thermal_state(basis, beta=0.3)
    slope = post_kick_slope(rho, kick, h0, obs)
    assert abs(slope) > 1e-3  # generic kicked thermal state moves
    kicked = apply_kick(rho, kick)
    h = 1e-6
    fwd = free_propagate(kicked, h0, h).expectation(obs)
    bwd = free_propagate(kicked, h0, -h).expectation(obs)
    assert slope == pytest.approx((fwd - bwd) / (2 * h), abs=1e-6)


def test_run_strategy_fixed_point_zero_kicks():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    blocks = block_decomposition(basis, ORIENTATION)
    target = build_target(thermal_state(basis, beta=0.5), obs, blocks)
    kick = make_kick(basis, ORIENTATION, 2.0)
    record, _ = run_strategy(target.rho, "S2", kick, h0, target=target, max_kicks=6)
    assert record.n_kicks == 0
    assert record.stop_reason == "converged"
    assert record.maxima[0] == pytest.approx(1.0, abs=1e-10)


def test_converged_train_reuses_its_last_maximum(monkeypatch):
    import rotorkick.dynamics as dynamics

    basis = build_basis(2)
    h0 = h0_matrix(basis)
    target = build_target(thermal_state(basis, beta=0.5), cos_theta_matrix(basis), block_decomposition(basis, ORIENTATION))
    searched = []

    def recording(series):
        searched.append((series, global_max(series)))
        return searched[-1][1]

    monkeypatch.setattr(dynamics, "global_max", recording)
    record, _ = run_strategy(target.rho, "S2", make_kick(basis, ORIENTATION, 2.0), h0, target=target, max_kicks=6)
    assert record.stop_reason == "converged"
    # the loop searched the projection once and stopped; only the efficiency is searched after it
    assert len(searched) == 2
    (projection, loop_max), (efficiency, final_max) = searched
    assert record.final_projection == global_max(projection).value == loop_max.value
    assert record.maxima == [loop_max.value, loop_max.value]
    assert (record.final_efficiency, record.final_efficiency_time) == (final_max.value, final_max.t)


def test_run_strategy_zero_kicks_flat_series():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    rho0 = thermal_state(basis, beta=0.5)
    kick = make_kick(basis, ORIENTATION, 2.0)
    record, series = run_strategy(rho0, "S1", kick, h0, max_kicks=0)
    assert record.n_kicks == 0
    assert float(series.expectation.max() - series.expectation.min()) < 1e-13


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("amplitude", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j_max", [2, 4, 8])
def test_monotone_maxima_and_conservation(kind, amplitude, j_max):
    basis = build_basis(j_max)
    h0 = h0_matrix(basis)
    obs = observable_matrix(basis, kind)
    blocks = block_decomposition(basis, kind)
    rho0 = thermal_state(basis, beta=0.35)
    target = build_target(rho0, obs, blocks)
    kick = make_kick(basis, kind, amplitude)
    for strategy in ("S1", "S2"):
        record, series = run_strategy(rho0, strategy, kick, h0, target=target, max_kicks=5)
        diffs = np.diff(record.maxima)
        assert np.all(diffs >= -1e-12)
        final = replayed(record, rho0, h0, kick, record.n_kicks)
        assert np.trace(final.matrix).real == pytest.approx(np.trace(rho0.matrix).real, abs=1e-9)
        assert final.purity() == pytest.approx(rho0.purity(), abs=1e-9)
        assert np.max(np.abs(final.eigenvalues - rho0.eigenvalues)) < 1e-9
        # kinematical ceiling: the observable never exceeds the blockwise bound
        assert series.expectation.max() <= target.achieved + 1e-9
        # kick schedule is strictly increasing with gaps within one period
        times = np.array(record.kick_times)
        if times.size > 1:
            assert np.all(np.diff(times) > 0)
            assert np.all(np.diff(times) <= PERIOD + 1e-12)
        if times.size:
            assert times[0] >= 0.0


def test_series_traces_real_and_projection_bounded():
    basis = build_basis(3)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    blocks = block_decomposition(basis, ORIENTATION)
    rho0 = thermal_state(basis, beta=0.4, renormalize=True)  # unit trace
    target = build_target(rho0, obs, blocks)
    kick = make_kick(basis, ORIENTATION, 1.5)
    record, series = run_strategy(rho0, "S2", kick, h0, target=target, max_kicks=4)
    assert series.projection is not None
    assert np.all(series.projection <= 1.0 + 1e-10)
    assert np.all(series.projection >= -1e-10)
    # spot-check that the series values really are traces (imaginary residue scrubbed)
    state = replayed(record, rho0, h0, kick, record.n_kicks)
    raw = complex(np.sum(obs.matrix * state.matrix.T))
    assert abs(raw.imag) < 1e-12


def test_kick_flags_mark_kicks():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    rho0 = thermal_state(basis, beta=0.5)
    kick = make_kick(basis, ORIENTATION, 2.0)
    record, series = run_strategy(rho0, "S1", kick, h0, max_kicks=3)
    flagged = series.times[series.kick_flags == 1]
    assert len(flagged) == record.n_kicks
    assert np.allclose(np.sort(flagged), record.kick_times)


def test_find_max_accepts_target_state_functional():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    blocks = block_decomposition(basis, ORIENTATION)
    rho0 = thermal_state(basis, beta=0.5)
    target = build_target(rho0, obs, blocks)
    # overlap with the target is maximal at t = 0 when starting from the target itself
    t, value, flat = _next_max(target.rho, target.rho, h0)
    assert t == 0.0
    assert value == pytest.approx(target.rho.purity(), abs=1e-12)


def test_reference_run_converges_toward_target():
    # orientation preset scale: after the 15-kick train the normalized overlap
    # with the block-optimal target exceeds 0.9
    basis = build_basis(8)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    blocks = block_decomposition(basis, ORIENTATION)
    beta = 0.70652 / (0.6950348 * 5.0)
    rho0 = thermal_state(basis, beta)
    target = build_target(rho0, obs, blocks)
    kick = make_kick(basis, ORIENTATION, 2.0)
    record, _ = run_strategy(rho0, "S1", kick, h0, target=target, max_kicks=15)
    assert record.final_projection >= 0.9


def test_leakage_thermal_tail():
    basis = build_basis(16)
    rho = thermal_state(basis, beta=0.2)
    assert leakage(rho, 12) < 1e-6
    assert leakage(rho, 0) == pytest.approx(1 - np.diag(rho.matrix).real[index_of(basis, 0, 0)], abs=1e-14)


def test_leakage_single_kick_from_ground_state():
    big = build_basis(24)
    ground = np.zeros((big.dim, big.dim), dtype=complex)
    ground[index_of(big, 0, 0), index_of(big, 0, 0)] = 1.0
    rho = DensityMatrix.from_matrix(big, ground)
    kick = make_kick(big, ORIENTATION, 2.0)
    kicked = apply_kick(rho, kick)
    assert leakage(kicked, 8) < 1e-3
    assert leakage(kicked, 3) > 1e-6  # the kick does spread population upward
    unkicked = apply_kick(rho, kick, amplitude=0.0)
    assert leakage(unkicked, 8) == pytest.approx(leakage(rho, 8), abs=1e-15)


def test_physical_mode_tracks_leakage_warnings():
    basis = build_basis(6)
    h0 = h0_matrix(basis)
    rho0 = thermal_state(basis, beta=0.35)
    kick = make_kick(basis, ORIENTATION, 2.0)
    record, _ = run_strategy(rho0, "S1", kick, h0, max_kicks=6, leak_guard_j=4)
    assert record.warnings  # strong driving against a tight guard must trip it
    assert all("population" in w for w in record.warnings)


def test_run_strategy_input_validation():
    basis = build_basis(1)
    h0 = h0_matrix(basis)
    rho0 = thermal_state(basis, beta=1.0)
    kick = make_kick(basis, ORIENTATION, 1.0)
    with pytest.raises(ValueError):
        run_strategy(rho0, "S3", kick, h0)
    with pytest.raises(ValueError):
        run_strategy(rho0, "S2", kick, h0)  # S2 without target
    with pytest.raises(ValueError):
        run_strategy(rho0, "S1", kick, h0, max_kicks=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda small, big: apply_kick(thermal_state(big, 0.5), make_kick(small, ORIENTATION, 1.0)),
        lambda small, big: apply_kick(thermal_state(small, 0.5), make_kick(big, ORIENTATION, 1.0)),
        lambda small, big: free_propagate(thermal_state(small, 0.5), h0_matrix(big), 0.1),
        lambda small, big: free_propagate(thermal_state(big, 0.5), h0_matrix(small), 0.1),
        lambda small, big: run_strategy(thermal_state(small, 0.5), "S1", make_kick(small, ORIENTATION, 1.0), h0_matrix(big)),
        lambda small, big: run_strategy(thermal_state(big, 0.5), "S1", make_kick(big, ORIENTATION, 1.0), h0_matrix(small)),
    ],
    ids=[
        "kick-on-smaller-basis",
        "kick-on-larger-basis",
        "propagate-with-larger-h0",
        "propagate-with-smaller-h0",
        "train-with-larger-h0",
        "train-with-smaller-h0",
    ],
)
def test_inputs_on_another_basis_size_fail_naming_both_sizes(call):
    with pytest.raises(ValueError, match="4 states.* 9 |9 states.* 4 "):
        call(build_basis(1), build_basis(2))


def test_kick_spec_validation():
    basis = build_basis(1)
    op = cos_theta_matrix(basis)
    with pytest.raises(ValueError):
        KickSpec(amplitude=float("nan"), kind=ORIENTATION, operator=op)
    with pytest.raises(ValueError):
        KickSpec(amplitude=1.0, kind="bogus", operator=op)


def test_embedded_run_matches_native_when_space_is_big_enough():
    # propagating an embedded state with embedded operators reproduces the native run
    small = build_basis(2)
    big = build_basis(4)
    h0s = h0_matrix(small)
    rho = thermal_state(small, beta=0.5)
    kick_small = make_kick(small, ORIENTATION, 1.0)
    kicked_small = apply_kick(rho, kick_small)
    lifted = embed_density(kicked_small, big)
    assert np.trace(lifted.matrix).real == pytest.approx(np.trace(kicked_small.matrix).real, abs=1e-12)


def test_run_strategy_rejects_non_diagonal_inputs_on_other_blocks():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    kick = make_kick(basis, ORIENTATION, 1.0)
    # a state coupling two m blocks has no layout at all
    coupled = _coherent_pair(basis).matrix.copy()
    a, b = index_of(basis, 1, -1), index_of(basis, 1, 0)  # different m
    coupled[a, b] = coupled[b, a] = 0.01
    with pytest.raises(ValueError, match="matrix couples states in different invariant blocks"):
        DensityMatrix.from_matrix(basis, coupled)
    rho = _target_on_m_parity_blocks(basis)
    with pytest.raises(ValueError, match="state has off-diagonal entries.*from alignment onto orientation"):
        run_strategy(rho, "S1", kick, h0, max_kicks=1)
    with pytest.raises(ValueError, match="observable has off-diagonal entries.*from alignment onto orientation"):
        run_strategy(thermal_state(basis, 0.5), "S1", kick, h0, observable=rho, max_kicks=1)
    # cos(theta) mixes the parities of j, so it cannot drive an alignment train
    with pytest.raises(ValueError, match="kick generator has off-diagonal entries.*from orientation onto alignment"):
        run_strategy(thermal_state(basis, 0.5), "S1", KickSpec(1.0, ALIGNMENT, kick.operator), h0)


# (preset, j_sim): the preset's own j_sim once per process, a smaller one elsewhere
# (preset, j_sim, j_max or None for the preset's 8): odd cutoffs leave the odd-j alignment blocks no trailing padding
ORACLE_CASES = [
    ("licl-5K", 16, None),
    ("licl-5K-alignment", 16, None),
    ("licl-10K", 12, None),
    ("licl-5K-s2", 12, None),
    ("licl-5K-alignment-s2", 12, None),
    ("licl-5K", 13, None),
    ("licl-5K-alignment", 13, 7),
]


@pytest.mark.parametrize(
    "preset, j_sim, j_max",
    [pytest.param(*case, id="-".join(str(x) for x in case if x is not None)) for case in ORACLE_CASES],
)
@pytest.mark.parametrize("mode", ["idealized", "physical"])
def test_block_train_matches_dense_oracle(preset, j_sim, j_max, mode, monkeypatch):
    import rotorkick.cli as cli
    from rotorkick.config import PRESETS

    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return run_strategy(*args, **kwargs)

    monkeypatch.setattr(cli, "run_strategy", recording)
    config = PRESETS[preset].with_overrides(j_sim=j_sim)
    record, _, _ = cli._run_one_mode(config if j_max is None else config.with_overrides(j_max=j_max), mode)
    args, kwargs = calls[0]
    kwargs.pop("leak_guard_j")
    dense = dense_train(*args, **kwargs)

    assert record.amplitudes == dense["amplitudes"]
    assert np.allclose(record.kick_times, dense["kick_times"], rtol=0, atol=1e-10)
    assert np.allclose(record.maxima, dense["maxima"], rtol=0, atol=1e-10)
    assert record.final_efficiency == pytest.approx(dense["final_efficiency"], abs=1e-10)
    if dense["final_projection"] is not None:
        assert record.final_projection == pytest.approx(dense["final_projection"], abs=1e-10)
    duration = (record.final_duration.total, record.final_duration.longest)
    assert duration == pytest.approx(dense["final_duration"], abs=1e-10)


def _recorded_kick_operators(monkeypatch):
    import rotorkick.dynamics as dynamics

    seen = []
    real = dynamics.kick_unitary

    def recording(op, amplitude):
        seen.append(op)
        return real(op, amplitude)

    monkeypatch.setattr(dynamics, "kick_unitary", recording)
    return seen


@pytest.mark.parametrize("preset", ["licl-5K", "licl-10K", "licl-5K-s2", "licl-5K-alignment", "licl-5K-alignment-s2"])
@pytest.mark.parametrize("mode", ["idealized", "physical"])
def test_presets_fold_onto_one_copy_of_each_mirror_pair(preset, mode, monkeypatch):
    import rotorkick.cli as cli
    from rotorkick.config import PRESETS

    config = PRESETS[preset].with_overrides(j_sim=12)
    seen = _recorded_kick_operators(monkeypatch)
    cli._run_one_mode(config, mode)
    assert seen and all(op is seen[0] for op in seen)
    # the kept blocks are the m shells the control space sees, m = 0..j_max, each parity that holds a state
    j_cut = config.j_sim if mode == "physical" else config.j_max
    alignment = config.process == ALIGNMENT
    held = {(m, j % 2 if alignment else 0) for m in range(config.j_max + 1) for j in range(m, j_cut + 1)}
    shells = [(m, p) for m in range(config.j_max + 1) for p in ((0, 1) if alignment else (0,)) if (m, p) in held]
    assert list(zip(seen[0].blocks.m.tolist(), seen[0].blocks.classes.tolist())) == shells
    assert build_basis(config.j_max, config.j_max) is build_basis(config.j_max)
    full = block_decomposition(build_basis(j_cut, config.j_max), PRESETS[preset].process)
    assert seen[0].blocks.n_blocks == np.sum(full.m >= 0)


@pytest.mark.parametrize("preset", ["licl-5K", "licl-5K-alignment"])
@pytest.mark.parametrize("setting", [{"z_mode": "truncated"}, {"renormalize": True}])
def test_physical_mode_on_the_seen_shells_matches_the_full_basis_train(preset, setting, monkeypatch):
    # the thermal state keeps its normalization over every state with j <= j_sim, also the unseen shells
    import rotorkick.cli as cli
    from rotorkick.config import PRESETS

    bases, real = [], cli.run_strategy

    def recording(rho0, *args, **kwargs):
        bases.append(rho0.basis)
        return real(rho0, *args, **kwargs)

    monkeypatch.setattr(cli, "run_strategy", recording)
    config = PRESETS[preset].with_overrides(j_max=2, j_sim=10, **setting)
    record, series, _ = cli._run_one_mode(config, "physical")
    reference, reference_series = full_basis_physical_run(config)
    assert len(bases) == 1 and bases[0] is build_basis(10, 2)
    got, want = record.to_jsonable(), reference.to_jsonable()
    assert got["amplitudes"] == want["amplitudes"] and got["stop_reason"] == want["stop_reason"]
    numbers = ["times_over_Trot", "post_kick_slopes", "maxima", "pre_kick_values", "final_efficiency"]
    for key in numbers + ["final_efficiency_time_over_Trot", "final_duration_above"]:
        assert got[key] == pytest.approx(want[key], rel=0.0, abs=1e-14), key
    assert np.max(np.abs(series.expectation - reference_series.expectation)) <= 1e-14


def test_train_builds_the_kick_exponential_once(monkeypatch):
    import rotorkick.operators as operators

    eighs, builds = [], []
    real_eigh, real_with = operators._eigh, HermitianOperator.with_eigenvalues
    # _eigh solves a stack of blocks of one size at once: count the blocks
    monkeypatch.setattr(operators, "_eigh", lambda m: eighs.append(np.prod(m.shape[:-2])) or real_eigh(m))
    monkeypatch.setattr(
        HermitianOperator, "with_eigenvalues", lambda op, values: builds.append(1) or real_with(op, values)
    )
    basis = build_basis(5)
    kick = make_kick(basis, ALIGNMENT, 1.5)
    record, _ = run_strategy(thermal_state(basis, beta=0.3), "S1", kick, h0_matrix(basis), max_kicks=6)
    assert record.n_kicks == 6  # 12 candidate kicks, six with each sign
    assert sum(eighs) == np.sum(kick.operator.blocks.m >= 0)  # one eigensystem per kept block
    assert len(builds) == 1  # one exponential, checked once; -A is its conjugate


def _train_inputs(kind, j_max=4, beta=0.3):
    basis = build_basis(j_max)
    rho0 = thermal_state(basis, beta)
    obs = observable_matrix(basis, kind)
    target = build_target(rho0, obs, block_decomposition(basis, kind))
    return basis, rho0, h0_matrix(basis), make_kick(basis, kind, 1.2), target


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("strategy", ["S1", "S2"])
def test_mirror_breaking_state_runs_unfolded_and_matches_dense_oracle(kind, strategy, monkeypatch):
    basis, rho0, h0, kick, target = _train_inputs(kind)
    weights = rho0.diagonal.copy()
    a, b = index_of(basis, 1, -1), index_of(basis, 1, 0)
    weights[[a, b]] = weights[a] + 0.01, weights[b] - 0.01  # m = -1 no longer mirrors m = 1
    rho = DensityMatrix.from_matrix(basis, np.diag(weights), rho0.blocks, trace_target=rho0.trace_target)
    seen = _recorded_kick_operators(monkeypatch)
    record, _ = run_strategy(rho, strategy, kick, h0, target=target, max_kicks=5)
    # the broken pair runs on both copies; every other pair, including the
    # even-j m = +-1 pair of alignment, still folds onto m >= 0
    blocks = kick.operator.blocks
    broken = np.nonzero(blocks.slots == a)[0][0]
    keys = zip(blocks.m.tolist(), blocks.classes.tolist())
    kept = [key for b, key in enumerate(keys) if key[0] >= 0 or b == broken]
    assert list(zip(seen[0].blocks.m.tolist(), seen[0].blocks.classes.tolist())) == kept
    assert (-1, 1 if kind == ALIGNMENT else 0) in kept and len(kept) < blocks.n_blocks
    dense = dense_train(rho, strategy, kick, h0, target=target, max_kicks=5)
    assert record.amplitudes == dense["amplitudes"]
    assert np.allclose(record.kick_times, dense["kick_times"], rtol=0, atol=1e-10)
    assert np.allclose(record.maxima, dense["maxima"], rtol=0, atol=1e-10)
    assert record.final_efficiency == pytest.approx(dense["final_efficiency"], abs=1e-10)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_folded_final_state_and_leak_warnings_match_the_unfolded_train(kind):
    basis, rho0, h0, kick, target = _train_inputs(kind, j_max=6)
    record, _ = run_strategy(rho0, "S2", kick, h0, target=target, max_kicks=6, leak_guard_j=3)
    assert record.n_kicks and record.warnings
    # the final efficiency is the maximum of the observable on the state replayed on all blocks
    final = replayed(record, rho0, h0, kick, record.n_kicks)
    peak = global_max(TraceSeries(final.matrix, kick.operator.matrix, h0.energies())).value
    assert record.final_efficiency == pytest.approx(peak, rel=0.0, abs=1e-13)
    expected = []
    for n in range(1, record.n_kicks + 1):
        shell = leakage(replayed(record, rho0, h0, kick, n), 3)
        if shell > 1e-4:
            expected.append(f"population {shell:.3e} above j=3 after kick {n}")
    assert record.warnings == expected
    # every recorded slope is the public post_kick_slope of the replayed pre-kick state on the S2 drive
    projector = HermitianOperator(target.rho.basis, target.rho.blocks, target.rho.stack / target.rho.purity())
    for n, (t, amplitude) in enumerate(zip(record.kick_times, record.amplitudes)):
        before = replayed(record, rho0, h0, kick, n)
        pre_kick = free_propagate(before, h0, t - (record.kick_times[n - 1] if n else 0.0))
        slope = post_kick_slope(pre_kick, kick, h0, projector, amplitude)
        assert record.post_kick_slopes[n] == pytest.approx(slope, rel=1e-12, abs=0.0)


class _ZeroSeries:
    def grid_values(self, t_start, n_samples):
        return np.zeros(n_samples)


@pytest.mark.parametrize("points", [8, 2048])
def test_segment_takes_the_grid_indices_of_the_per_sample_loop(points):
    # reference: the loop that stepped one grid index at a time
    def loop(next_k, step, origin, t_to):
        ks = []
        while next_k * step < t_to - 1e-15:
            if next_k * step >= origin - 1e-15:
                ks.append(next_k)
            next_k += 1
        return ks, next_k

    rng = np.random.default_rng(1)
    acc = _SeriesAccumulator(points)
    step, next_k, t = acc.step, 0, 0.0
    for _ in range(400):
        k = int(rng.integers(0, 3 * points))
        # grid times, times an ulp or two off them, times between, a segment ending before it starts
        off = rng.choice([-1.0, 1.0]) * rng.choice([1e-16, 1e-15, 3e-15])
        t_to = rng.choice([k * step, k * step + off, rng.uniform(0.0, 3.0 * PERIOD)])
        ks, next_k = loop(next_k, step, t, t_to)
        before = len(acc.times)
        acc.segment(t, t_to, [_ZeroSeries()])
        assert acc.times[before:] == [k * step for k in ks]
        assert acc._next_k == next_k
        t = max(t, t_to)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_kicked_states_are_exactly_hermitian_and_rotated_ones_to_rounding(kind, monkeypatch):
    # the train's states skip the constructor's Hermiticity pass; this runs it
    deviations = {"kicked": [], "rotated": []}
    real_kicked, real_propagate = _Train.kicked, _Train.propagate

    def record(name, rho):
        dev = np.max(np.abs(rho.stack - np.swapaxes(rho.stack.conj(), -1, -2)))
        deviations[name].append(dev / np.max(np.abs(rho.stack)))

    def kicked(train, rho, amplitude):
        result = real_kicked(train, rho, amplitude)
        record("kicked", result[0])
        return result

    def propagate(train, rho, t):
        result = real_propagate(train, rho, t)
        record("rotated", result)
        return result

    monkeypatch.setattr(_Train, "kicked", kicked)
    monkeypatch.setattr(_Train, "propagate", propagate)
    basis = build_basis(8)
    rho0, h0, kick = thermal_state(basis, 0.1), h0_matrix(basis), make_kick(basis, kind, 1.3)
    train, _ = run_strategy(rho0, "S1", kick, h0, max_kicks=8)
    assert train.n_kicks == 8 and len(deviations["kicked"]) == 16
    assert max(deviations["kicked"]) == 0.0  # symmetrized exactly
    # a phase product p_a conj(p_b) need not be the exact conjugate of p_b conj(p_a) (fused multiply-add)
    record("rotated", free_propagate(apply_kick(rho0.regroup(kick.operator.blocks), kick), h0, 0.7))
    assert len(deviations["rotated"]) == 9 and max(deviations["rotated"]) <= 4 * np.finfo(float).eps
