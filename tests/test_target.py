import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_unitary, brute_force_pairing, certified_duration_above, dense_target, haar_unitary, members
from rotorkick.basis import (
    ALIGNMENT,
    ORIENTATION,
    Basis,
    block_decomposition,
    build_basis,
)
from rotorkick.config import KB_CM_PER_K
from rotorkick.operators import (
    DensityMatrix,
    HermitianOperator,
    cos_theta_matrix,
    embed_operator,
    h0_matrix,
    level_energies,
    observable_matrix,
    thermal_state,
)
from rotorkick.target import _projections, bound_sweep, build_target, duration_above, optimal_pairing


def test_pairing_reference_example():
    res = optimal_pairing([0.5, 0.3, 0.2], [1.0, 0.0, -1.0])
    assert res.value == pytest.approx(0.3, abs=1e-15)
    assert res.value == pytest.approx(brute_force_pairing([0.5, 0.3, 0.2], [1.0, 0.0, -1.0]), abs=1e-15)


def test_pairing_pure_state_limit():
    res = optimal_pairing([1.0, 0.0], [0.7, -0.2])
    assert res.value == pytest.approx(0.7, abs=1e-15)


def test_pairing_uniform_weights():
    eigs = [0.9, 0.1, -0.4, -0.6]
    res = optimal_pairing([0.25] * 4, eigs)
    assert res.value == pytest.approx(sum(eigs) / 4, abs=1e-15)


def test_pairing_permutation_is_bijection():
    res = optimal_pairing([0.1, 0.5, 0.4], [0.0, 2.0, 1.0])
    assert sorted(res.permutation) == [0, 1, 2]
    # eigenvalue 2.0 (index 1) must receive the largest weight (index 1)
    assert res.permutation[1] == 1


def test_pairing_input_validation():
    with pytest.raises(ValueError):
        optimal_pairing([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        optimal_pairing([1.5, -0.5], [1.0, 0.0])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    st.data(),
)
def test_pairing_matches_brute_force(weights, data):
    eigenvalues = data.draw(
        st.lists(
            st.floats(min_value=-5, max_value=5),
            min_size=len(weights),
            max_size=len(weights),
        )
    )
    res = optimal_pairing(weights, eigenvalues)
    assert res.value == pytest.approx(brute_force_pairing(weights, eigenvalues), abs=1e-12)
    # the returned permutation itself realizes the value
    realized = sum(eigenvalues[k] * weights[res.permutation[k]] for k in range(len(weights)))
    assert realized == pytest.approx(res.value, abs=1e-12)


def test_global_target_pure_state_limit():
    basis = build_basis(2)
    obs = cos_theta_matrix(basis)
    ground = np.zeros((basis.dim, basis.dim), dtype=complex)
    ground[basis.index_of(0, 0), basis.index_of(0, 0)] = 1.0
    rho0 = DensityMatrix.from_matrix(basis, ground)
    target = build_target(rho0, obs)
    w, v = np.linalg.eigh(obs.matrix)
    assert target.achieved == pytest.approx(w[-1], abs=1e-12)
    top = v[:, -1]
    assert np.max(np.abs(target.rho.matrix - np.outer(top, top.conj()))) < 1e-10


def test_blockwise_target_j1_closed_form():
    basis = build_basis(1)
    beta = 0.8
    rho0 = thermal_state(basis, beta)
    obs = cos_theta_matrix(basis)
    blocks = block_decomposition(basis, ORIENTATION)
    target = build_target(rho0, obs, blocks)
    diag = np.diag(rho0.matrix).real
    w00 = diag[basis.index_of(0, 0)]
    w10 = diag[basis.index_of(1, 0)]
    assert target.achieved == pytest.approx((w00 - w10) / math.sqrt(3), abs=1e-14)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_target_commutes_and_preserves_spectrum(kind):
    basis = build_basis(4)
    rho0 = thermal_state(basis, beta=0.3)
    obs = observable_matrix(basis, kind)
    blocks = block_decomposition(basis, kind)
    for target in (build_target(rho0, obs), build_target(rho0, obs, blocks)):
        comm = target.rho.matrix @ obs.matrix - obs.matrix @ target.rho.matrix
        assert np.max(np.abs(comm)) < 1e-12
    # global target carries exactly the global spectrum of rho0
    opt = build_target(rho0, obs)
    assert np.max(np.abs(opt.rho.eigenvalues - rho0.eigenvalues)) < 1e-12
    # blockwise target carries the per-block spectra (the sorted Boltzmann weights)
    lin = build_target(rho0, obs, blocks)
    for idx in members(blocks):
        got = np.sort(np.linalg.eigvalsh(lin.rho.matrix[np.ix_(idx, idx)]))
        want = np.sort(np.diag(rho0.matrix).real[idx])
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("beta", [0.1, 0.2, 1.0])
def test_global_dominates_blockwise(kind, beta):
    for j_max in range(1, 7):
        basis = build_basis(j_max)
        rho0 = thermal_state(basis, beta)
        obs = observable_matrix(basis, kind)
        blocks = block_decomposition(basis, kind)
        opt = build_target(rho0, obs)
        lin = build_target(rho0, obs, blocks)
        assert opt.achieved >= lin.achieved - 1e-12


def test_achieved_equals_expectation():
    basis = build_basis(3)
    rho0 = thermal_state(basis, beta=0.2)
    obs = cos_theta_matrix(basis)
    blocks = block_decomposition(basis, ORIENTATION)
    for target in (build_target(rho0, obs), build_target(rho0, obs, blocks)):
        assert target.rho.expectation(obs) == pytest.approx(target.achieved, abs=1e-12)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_bound_dominance_random_unitaries(kind):
    rng = np.random.default_rng(7)
    basis = build_basis(3)
    rho0 = thermal_state(basis, beta=0.25)
    obs = observable_matrix(basis, kind)
    blocks = block_decomposition(basis, kind)
    lin = build_target(rho0, obs, blocks)
    opt = build_target(rho0, obs)
    for _ in range(50):
        u_blk = block_unitary(basis.dim, blocks, rng)
        val = float(np.sum(obs.matrix * (u_blk @ rho0.matrix @ u_blk.conj().T).T).real)
        assert val <= lin.achieved + 1e-10
        u = haar_unitary(basis.dim, rng)
        val = float(np.sum(obs.matrix * (u @ rho0.matrix @ u.conj().T).T).real)
        assert val <= opt.achieved + 1e-10


def test_blockwise_equals_global_single_block():
    # j_max = 0: one state, one block
    basis = build_basis(0)
    rho0 = thermal_state(basis, beta=1.0)
    obs = cos_theta_matrix(basis)
    blocks = block_decomposition(basis, ORIENTATION)
    assert build_target(rho0, obs).achieved == pytest.approx(
        build_target(rho0, obs, blocks).achieved, abs=1e-15
    )
    # synthetic basis holding only the m = 0 ladder: a single orientation block
    synth = Basis(j_max=3, j_values=np.arange(4), m_values=np.zeros(4, dtype=int))
    obs_s = cos_theta_matrix(synth)
    weights = np.exp(-0.4 * np.arange(4) * (np.arange(4) + 1.0))
    weights /= weights.sum()
    rho_s = DensityMatrix.from_matrix(synth, np.diag(weights.astype(complex)))
    blocks_s = block_decomposition(synth, ORIENTATION)
    assert blocks_s.n_blocks == 1
    t_global = build_target(rho_s, obs_s)
    t_block = build_target(rho_s, obs_s, blocks_s)
    assert t_global.achieved == pytest.approx(t_block.achieved, abs=1e-13)
    assert np.max(np.abs(t_global.rho.matrix - t_block.rho.matrix)) < 1e-12


def test_blockwise_rejects_non_block_input():
    basis = build_basis(2)
    obs = cos_theta_matrix(basis)
    blocks = block_decomposition(basis, ORIENTATION)
    mat = np.eye(basis.dim, dtype=complex) / basis.dim
    a, b = basis.index_of(1, -1), basis.index_of(1, 1)
    mat[a, b] = mat[b, a] = 0.01  # couples different m blocks
    rho = DensityMatrix.from_matrix(basis, mat)
    with pytest.raises(ValueError):
        build_target(rho, obs, blocks)


def _assert_matches_dense_target(rho0, obs, blocks):
    target = build_target(rho0, obs, blocks)
    mat, achieved = dense_target(rho0, obs, blocks)
    assert target.scope == ("global" if blocks is None else "blockwise")
    assert np.max(np.abs(target.rho.matrix - mat)) < 1e-13
    assert abs(target.achieved - achieved) < 1e-15


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("blockwise", [False, True])
def test_stack_target_matches_dense_oracle(kind, blockwise):
    for j_max in range(1, 9):
        basis = build_basis(j_max)
        obs = observable_matrix(basis, kind)
        blocks = block_decomposition(basis, kind) if blockwise else None
        _assert_matches_dense_target(thermal_state(basis, beta=0.2), obs, blocks)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_stack_target_without_block_metadata(kind):
    # an observable without block metadata: the global scope pairs on one block of all states
    big = build_basis(5)
    obs = HermitianOperator.from_matrix(big, embed_operator(observable_matrix(build_basis(3), kind), big).matrix)
    assert obs.blocks.n_blocks == 1
    rho0 = thermal_state(big, beta=0.2)
    for blocks in (None, block_decomposition(big, kind)):
        _assert_matches_dense_target(rho0, obs, blocks)


@pytest.mark.parametrize("which", ["state", "observable"])
@pytest.mark.parametrize("size", [1e-13, 1e-11])
def test_blockwise_off_block_tolerance(which, size):
    basis = build_basis(3)
    blocks = block_decomposition(basis, ORIENTATION)
    thermal = thermal_state(basis, beta=0.2)
    rho, obs = thermal.matrix.copy(), cos_theta_matrix(basis).matrix.copy()
    a, b = basis.index_of(1, -1), basis.index_of(1, 1)  # different m blocks
    coupled = rho if which == "state" else obs
    coupled[a, b] = coupled[b, a] = size
    rho0 = DensityMatrix.from_matrix(basis, rho, trace_target=thermal.trace_target)
    obs_op = HermitianOperator.from_matrix(basis, obs)
    if size < 1e-12:  # dropped, like the dense pairing did
        _assert_matches_dense_target(rho0, obs_op, blocks)
    else:
        with pytest.raises(ValueError, match=which):
            build_target(rho0, obs_op, blocks)


def test_duration_stationary_states():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    mixed = DensityMatrix.from_matrix(basis, np.eye(basis.dim, dtype=complex) / basis.dim)
    # Tr[cos theta]/N = 0: above a negative threshold always, below a positive one never
    assert duration_above(mixed, obs, h0, threshold=-0.1).total == 1.0
    assert duration_above(mixed, obs, h0, threshold=0.1).total == 0.0


def test_duration_threshold_range_validated():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    rho = thermal_state(basis, beta=0.5)
    with pytest.raises(ValueError):
        duration_above(rho, obs, h0, threshold=2.0)


def test_duration_two_level_analytic():
    # coherent 2-level state: expectation (1/sqrt3) cos(2t); above threshold
    # for 2t in [-alpha, alpha] with alpha = arccos(sqrt3 * thr)
    basis = build_basis(1)
    i0, i1 = basis.index_of(0, 0), basis.index_of(1, 0)
    mat = np.zeros((4, 4), dtype=complex)
    mat[i0, i0] = mat[i1, i1] = 0.5
    mat[i0, i1] = mat[i1, i0] = 0.5
    rho = DensityMatrix.from_matrix(basis, mat)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    threshold = 0.31
    alpha = math.acos(math.sqrt(3) * threshold)
    expected = alpha / math.pi
    res = duration_above(rho, obs, h0, threshold)
    assert res.total == pytest.approx(expected, abs=1e-9)
    assert res.longest == pytest.approx(expected, abs=1e-9)


def test_bound_sweep_monotone_and_shapes():
    rows = bound_sweep(range(1, 7), [5.0, 10.0], ORIENTATION, b_cm=0.70652, kb_cm_per_k=KB_CM_PER_K)
    assert len(rows) == 12
    for temperature in (5.0, 10.0):
        vals = [r for r in rows if r.temperature_k == temperature]
        opt = [r.optimal for r in vals]
        lin = [r.linear for r in vals]
        assert all(b >= a - 1e-12 for a, b in zip(opt, opt[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(lin, lin[1:]))
        assert all(r.optimal >= r.linear - 1e-12 for r in vals)


def test_bound_sweep_over_temperatures_equals_single_sweeps():
    # one sweep shares basis and observable across temperatures; rows stay temperature-major
    kw = dict(kind=ALIGNMENT, b_cm=0.70652, kb_cm_per_k=KB_CM_PER_K)
    temperatures = [5.0, 10.0, 5.0]
    rows = bound_sweep(range(1, 7), temperatures, **kw)
    assert rows == [row for t in temperatures for row in bound_sweep(range(1, 7), [t], **kw)]


@pytest.mark.parametrize(
    "cutoffs",
    [lambda: iter([3, 1, 2]), lambda: [4, 1, 4, 2, 1], lambda: [], lambda: iter([])],
    ids=["iterator", "list-with-repeats", "empty-list", "empty-iterator"],
)
def test_bound_sweep_takes_cutoffs_in_any_order_once(cutoffs):
    # the top cutoff is found without a second pass over an iterator, and an empty input gives no rows
    kw = dict(kind=ALIGNMENT, b_cm=0.70652, kb_cm_per_k=KB_CM_PER_K)
    temperatures = [5.0, 10.0]
    expected = [row for t in temperatures for j in cutoffs() for row in bound_sweep([j], [t], **kw)]
    assert bound_sweep(cutoffs(), temperatures, **kw) == expected
    assert len(expected) == len(list(cutoffs())) * len(temperatures)


@pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf, -math.inf])
def test_bound_sweep_rejects_a_temperature_or_beta_that_is_not_positive_and_finite(value):
    kw = dict(kind=ORIENTATION, b_cm=0.70652, kb_cm_per_k=KB_CM_PER_K)
    with pytest.raises(ValueError, match="temperature must be positive and finite"):
        bound_sweep([1, 2], [5.0, value], **kw)
    with pytest.raises(ValueError, match="beta must be positive and finite"):  # B / (k_B T), from B
        bound_sweep([1, 2], [5.0], **{**kw, "b_cm": value})


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_bound_sweep_pieces_are_those_built_at_each_cutoff(kind):
    # the observables projected from the top cutoff, their eigensystems solved in groups, and the level energies
    top = observable_matrix(build_basis(16), kind)
    cutoffs = list(range(1, 17))
    padded = 0
    for j_max, (obs, j) in zip(cutoffs, _projections(top, cutoffs)):
        basis = build_basis(j_max)
        want = observable_matrix(basis, kind)
        assert obs.basis is basis and obs.blocks is want.blocks
        assert obs.stack.tobytes() == want.stack.tobytes()
        for got, expected in zip(obs.eigensystem, want.eigensystem):
            assert got.tobytes() == expected.tobytes()
        assert level_energies(j).tobytes() == h0_matrix(basis).energies().tobytes()
        if kind == ALIGNMENT and j_max % 2 == 0:
            # an odd-j block ends one slot short of the width; below the top, the top's block has j_max + 1 there
            short = np.flatnonzero(~obs.blocks.filled[:, -1])
            for b in short:
                assert obs.blocks.classes[b] == 1 and not obs.stack[b, -1].any() and not obs.stack[b, :, -1].any()
                last = obs.stack.shape[-1] - 1
                assert j_max == 16 or top.stack[top.blocks.find(obs.blocks.m[b], 1), last, last] != 0
            padded += len(short) > 0
    assert padded == (8 if kind == ALIGNMENT else 0)


def test_duration_decreases_at_high_cutoff():
    rows = bound_sweep(range(6, 13), [5.0], ORIENTATION, b_cm=0.70652, kb_cm_per_k=KB_CM_PER_K)
    durations = [r.duration_linear for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(durations, durations[1:]))


@pytest.mark.parametrize("coherence", [0.0, 1e-15, -1e-15])
def test_duration_flat_rule_matches_global_max(coherence):
    # expectation (2 / sqrt3) coherence cos(2t): exactly constant at 0, or within FLAT_TOL of 0 and straddling it
    basis = build_basis(1)
    i0, i1 = basis.index_of(0, 0), basis.index_of(1, 0)
    mat = np.zeros((4, 4), dtype=complex)
    mat[i0, i0] = mat[i1, i1] = 0.5
    mat[i0, i1] = mat[i1, i0] = coherence
    rho = DensityMatrix.from_matrix(basis, mat)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    expected, peak = certified_duration_above(rho, obs, h0, 0.0)
    assert peak.flat
    hit = 1.0 if peak.value >= 0.0 else 0.0
    assert expected.total == expected.longest == hit
    assert duration_above(rho, obs, h0, 0.0) == expected
    if coherence:  # above the threshold for half the period, but flat: all or nothing by the value at t = 0
        assert hit == (coherence > 0)


def _sweep_rows_by_the_certified_rule(j_max_values, temperatures, kind, **kw):
    """bound_sweep's rows, each built on its own, with the durations of certified_duration_above."""
    rows, flat = [], 0
    for temperature in temperatures:
        for j_max in j_max_values:
            basis = build_basis(j_max)
            obs = observable_matrix(basis, kind)
            rho0 = thermal_state(basis, 0.70652 / (KB_CM_PER_K * temperature), **kw)
            lin = build_target(rho0, obs, block_decomposition(basis, kind))
            dur, peak = certified_duration_above(lin.rho, obs, h0_matrix(basis), 0.5)
            flat += peak.flat
            row = (kind, j_max, temperature, build_target(rho0, obs).achieved, lin.achieved, dur.total, dur.longest)
            rows.append(row)
    return rows, flat


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("z_mode", ["full", "truncated"])
@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_bound_sweep_is_bit_identical_to_the_certified_rule(kind, z_mode, renormalize, monkeypatch):
    import rotorkick.evolution as evolution
    import rotorkick.target as target

    def refused(series):
        raise AssertionError("the bound sweep searched a global maximum")

    kw = dict(z_mode=z_mode, renormalize=renormalize)
    temperatures = [1.0, 5.0, 10.0, 50.0]
    with monkeypatch.context() as patch:
        for module in (evolution, target):
            patch.setattr(module, "global_max", refused)
        rows = bound_sweep(range(1, 17), temperatures, kind, b_cm=0.70652, kb_cm_per_k=KB_CM_PER_K, **kw)
    expected, flat = _sweep_rows_by_the_certified_rule(range(1, 17), temperatures, kind, **kw)

    def hexed(row):
        return [v.hex() if isinstance(v, float) else v for v in row]

    got = [
        (r.kind, r.j_max, r.temperature_k, r.optimal, r.linear, r.duration_linear, r.duration_linear_longest)
        for r in rows
    ]
    assert [hexed(r) for r in got] == [hexed(r) for r in expected]
    if kind == ALIGNMENT:  # every block of cos^2 theta at j_max = 1 holds one state: the flat rule decides
        assert flat >= len(temperatures)
