import numpy as np
import pytest
from oracles import haar_unitary, sampled_slope_span, sequential_lie_closure

from rotorkick import controllability

from rotorkick.basis import ALIGNMENT, ORIENTATION, Basis, BasisIndex, build_basis
from rotorkick.controllability import (
    block_trace_rank,
    controllability_report,
    dims_required,
    fixed_point_analysis,
    is_kick_stationary,
    lie_closure,
    two_level_obstruction,
)
from rotorkick.dynamics import KickSpec, apply_kick, free_propagate, make_kick
from rotorkick.operators import (
    DensityMatrix,
    HermitianOperator,
    cos_theta_matrix,
    h0_matrix,
    kick_unitary,
    observable_matrix,
    thermal_state,
)
from rotorkick.target import build_target
from rotorkick.basis import block_decomposition

# reference (dim_L, D, D') per j_max
ORIENTATION_TABLE = {1: (4, 4, 4), 2: (12, 15, 12), 3: (27, 38, 27), 4: (51, 77, 51), 5: (86, 136, 86)}
ALIGNMENT_TABLE = {
    1: (2, 5, 2),
    2: (5, 16, 5),
    3: (11, 39, 11),
    4: (22, 78, 22),
    5: (38, 137, 38),
    6: (61, 220, 61),
}


def _two_level_system():
    states = (BasisIndex(0, 0), BasisIndex(1, 0))
    basis = Basis(j_max=1, states=states)
    h0 = h0_matrix(basis)
    c = cos_theta_matrix(basis)
    kick = KickSpec(amplitude=2.0, kind=ORIENTATION, operator=c)
    return basis, h0, c, kick


def _line_basis(n):
    """n states of one m, so that from_matrix keeps any n x n matrix in one block."""
    return Basis(j_max=n - 1, states=tuple(BasisIndex(j, 0) for j in range(n)))


def _operators(basis, matrices, blocks=None):
    return [HermitianOperator.from_matrix(basis, m, blocks) for m in matrices]


def _dense_elements(blocks, elements):
    return [blocks.scatter(e) for e in elements]


def test_closure_of_commuting_diagonals():
    basis = _line_basis(3)
    d1, d2, d3 = _operators(basis, [np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 4.0, 6.0]), np.diag([1.0, 0.0, -1.0])])
    dim, _ = lie_closure([d1, d2])  # d2 is parallel to d1
    assert dim == 1
    dim, _ = lie_closure([d1, d3])
    assert dim == 2


def test_closure_rejects_non_skew_input():
    # i H is skew-Hermitian exactly when H is Hermitian, which the operator checks
    with pytest.raises(ValueError, match="not Hermitian"):
        lie_closure(_operators(_line_basis(2), [1j * np.eye(2)]))


def test_closure_rejects_operators_on_different_blocks():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    with pytest.raises(ValueError, match="one block decomposition"):
        lie_closure([h0, observable_matrix(basis, ALIGNMENT)])


def test_closure_scaling_invariance():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    c = cos_theta_matrix(basis)
    dim_a, _ = lie_closure([h0, c])
    dim_b, _ = lie_closure([HermitianOperator(basis, h0.blocks, 2 * h0.stack), c])
    assert dim_a == dim_b == 12


def test_closure_deterministic():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    c = cos_theta_matrix(basis)
    dim1, elems1 = lie_closure([h0, c])
    dim2, elems2 = lie_closure([h0, c])
    assert dim1 == dim2
    assert elems1.shape == (dim1, *h0.stack.shape)
    basis1, basis2 = _dense_elements(h0.blocks, elems1), _dense_elements(h0.blocks, elems2)
    for x, y in zip(basis1, basis2):
        assert np.max(np.abs(x - y)) < 1e-12
    gram1 = np.array([[np.vdot(x, y).real for y in basis1] for x in basis1])
    assert np.max(np.abs(gram1 - np.eye(dim1))) < 1e-12


@pytest.mark.parametrize("j_max", sorted(ORIENTATION_TABLE))
def test_orientation_reference_dimensions(j_max):
    report = controllability_report(j_max, ORIENTATION)
    dim_l, d, d_prime = ORIENTATION_TABLE[j_max]
    assert report.dim_l == dim_l
    assert report.dim_required == d
    assert report.dim_required_restricted == d_prime
    assert report.restricted_simultaneous
    assert report.simultaneous == (j_max == 1)


@pytest.mark.parametrize("j_max", sorted(ALIGNMENT_TABLE))
def test_alignment_reference_dimensions(j_max):
    report = controllability_report(j_max, ALIGNMENT)
    dim_l, d, d_prime = ALIGNMENT_TABLE[j_max]
    assert report.dim_l == dim_l
    assert report.dim_required == d
    assert report.dim_required_restricted == d_prime
    assert report.restricted_simultaneous
    assert not report.simultaneous


@pytest.mark.parametrize("kind, j_max, r", [(ORIENTATION, 6, 1), (ALIGNMENT, 7, 2)])
def test_closure_reaches_restricted_count_at_larger_cutoffs(kind, j_max, r):
    basis = build_basis(j_max)
    obs = observable_matrix(basis, kind)
    dim, _ = lie_closure([h0_matrix(basis).regroup(obs.blocks), obs])
    assert dim == dims_required(j_max, r, kind)[1]


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


def _block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[: a.shape[0], : a.shape[0]] = a
    out[a.shape[0] :, a.shape[0] :] = b
    return out


def test_closure_of_generic_pair_is_all_of_u_n():
    rng = np.random.default_rng(3)
    h, g = _random_hermitian(rng, 4), _random_hermitian(rng, 4)
    dim, _ = lie_closure(_operators(_line_basis(4), [h, g]))
    assert dim == 16
    # [h, h] and [h, h^2] vanish but for rounding, which the noise floor rejects
    assert lie_closure(_operators(_line_basis(4), [h]))[0] == 1
    assert lie_closure(_operators(_line_basis(4), [h, h @ h]))[0] == 2


def test_closure_counts_identical_blocks_once():
    rng = np.random.default_rng(5)
    a = [_random_hermitian(rng, 3), _random_hermitian(rng, 3)]
    other = [_random_hermitian(rng, 3), _random_hermitian(rng, 3)]
    dim_a, _ = lie_closure(_operators(_line_basis(3), a))
    assert dim_a == 9
    # two blocks of three states, at m = -1 and m = 1
    pair = Basis(j_max=3, states=tuple(BasisIndex(j, m) for m in (-1, 1) for j in (1, 2, 3)))
    blocks = block_decomposition(pair, ORIENTATION)
    assert [block.size for block in blocks.blocks] == [3, 3]
    dim_copies, elems = lie_closure(_operators(pair, [_block_diag(g, g) for g in a], blocks))
    assert dim_copies == dim_a
    assert np.array_equal(elems[:, 0], elems[:, 1])  # both copies carry the same element
    dense = _dense_elements(blocks, elems)
    gram = np.array([[np.vdot(x, y).real for y in dense] for x in dense])
    assert np.max(np.abs(gram - np.eye(dim_copies))) < 1e-12
    # two generic blocks: su(3) + su(3) plus a two-dimensional trace part
    dim_distinct, _ = lie_closure(_operators(pair, [_block_diag(g, h) for g, h in zip(a, other)], blocks))
    assert dim_distinct == 18


def test_closure_basis_is_closed_under_commutators():
    basis = build_basis(3)
    h0 = h0_matrix(basis)
    dim, stacks = lie_closure([h0, cos_theta_matrix(basis)])
    assert dim == 27
    elems = _dense_elements(h0.blocks, stacks)
    q = np.array([np.concatenate([e.real.ravel(), e.imag.ravel()]) for e in elems])
    for x in elems:
        for y in elems:
            comm = x @ y - y @ x
            v = np.concatenate([comm.real.ravel(), comm.imag.ravel()])
            assert np.linalg.norm(v - (q @ v) @ q) < 1e-9


def _same_closure(operators):
    dim, stacks = lie_closure(operators)
    dim_sequential, stacks_sequential = sequential_lie_closure(operators)
    return dim == dim_sequential and stacks.shape == stacks_sequential.shape and stacks.tobytes() == stacks_sequential.tobytes()


@pytest.mark.parametrize("kind, j_max", [(ORIENTATION, j) for j in range(1, 7)] + [(ALIGNMENT, j) for j in range(1, 8)])
def test_screened_closure_matches_sequential_oracle(kind, j_max):
    basis = build_basis(j_max)
    obs = observable_matrix(basis, kind)
    assert _same_closure([h0_matrix(basis).regroup(obs.blocks), obs])


def test_screened_closure_matches_sequential_oracle_on_generic_blocks():
    rng = np.random.default_rng(13)
    a = [_random_hermitian(rng, 6), _random_hermitian(rng, 6)]
    assert _same_closure(_operators(_line_basis(6), a))  # u(6): 36 elements, groups of up to GROUP candidates
    pair = Basis(j_max=4, states=tuple(BasisIndex(j, m) for m in (-1, 1) for j in (1, 2, 3, 4)))
    blocks = block_decomposition(pair, ORIENTATION)
    assert _same_closure(_operators(pair, [_block_diag(g[:4, :4], g[:4, :4]) for g in a], blocks))


def test_screen_draws_the_line_of_the_sequential_step():
    # candidates in the span of q plus 2e-10, 5e-11 and 0 of their norm outside it
    rng = np.random.default_rng(19)
    q = np.linalg.qr(rng.normal(size=(12, 5)))[0].T
    outside = rng.normal(size=12)
    outside -= (q @ outside) @ q
    outside /= np.linalg.norm(outside)
    inside = rng.normal(size=5) @ q
    candidates = np.array([inside + r * np.linalg.norm(inside) * outside for r in (2e-10, 5e-11, 0.0)] + [np.zeros(12)])
    assert controllability._survivors(q, candidates, controllability.RANK_TOL).tolist() == [0]
    for k, candidate in enumerate(candidates):
        rows = np.zeros((12, 12))
        rows[:5] = q
        assert controllability._orthonormalize(rows, 5, candidate, controllability.RANK_TOL) == (6 if k == 0 else 5)


def test_survivor_in_the_span_of_an_earlier_one_of_its_group_is_rejected(monkeypatch):
    # With x and y the rows of the generators a (diagonal) and b, the first
    # group is [x, a] = 0, [x, b], [y, a] and [y, b]; y is b less its part
    # along x, so the last two are parallel to [x, b].  The noise floor
    # drops [x, a] before the screen, the screen passes the other three,
    # and the sequential step keeps only the first of them.
    rng = np.random.default_rng(17)
    operators = _operators(_line_basis(3), [np.diag([1.0, 2.0, 4.0]), _random_hermitian(rng, 3)])
    events = []
    survivors, orthonormalize = controllability._survivors, controllability._orthonormalize

    def screen(q, candidates, tol):
        kept = survivors(q, candidates, tol)
        events.append(("screen", kept.tolist()))
        return kept

    def step(rows, dim, candidate, tol):
        grown = orthonormalize(rows, dim, candidate, tol)
        events.append(("step", grown > dim))
        return grown

    monkeypatch.setattr(controllability, "_survivors", screen)
    monkeypatch.setattr(controllability, "_orthonormalize", step)
    dim, _ = lie_closure(operators)
    assert dim == 9
    assert events[:2] == [("step", True), ("step", True)]  # the generators seed the basis
    assert events[2:6] == [("screen", [0, 1, 2]), ("step", True), ("step", False), ("step", False)]
    monkeypatch.undo()
    assert _same_closure(operators)


@pytest.mark.parametrize("j_max", range(1, 7))
def test_block_trace_ranks(j_max):
    assert block_trace_rank(j_max, ORIENTATION) == 1
    assert block_trace_rank(j_max, ALIGNMENT) == 2


def test_orientation_trace_entries():
    j_max = 4
    basis = build_basis(j_max)
    h0 = h0_matrix(basis)
    c = cos_theta_matrix(basis)
    assert h0.blocks == c.blocks == block_decomposition(basis, ORIENTATION)
    traces = np.trace(np.array([h0.stack, c.stack]), axis1=-2, axis2=-1).real
    for b, block in enumerate(h0.blocks.blocks):
        expected = float(sum(k * (k + 1) for k in range(abs(block.m), j_max + 1)))
        assert traces[0, b] == pytest.approx(expected, abs=1e-12)
        assert traces[1, b] == 0.0


def test_dims_required_tables_and_validation():
    for j_max, (_, d, d_prime) in ORIENTATION_TABLE.items():
        assert dims_required(j_max, 1, ORIENTATION) == (d, d_prime)
    for j_max, (_, d, d_prime) in ALIGNMENT_TABLE.items():
        assert dims_required(j_max, 2, ALIGNMENT) == (d, d_prime)
    with pytest.raises(ValueError):
        dims_required(0, 1)
    with pytest.raises(ValueError):
        dims_required(2, 0)


@pytest.mark.parametrize("j_max", range(2, 11))
def test_two_level_witness(j_max):
    report = two_level_obstruction(j_max)
    assert report.coupling == pytest.approx(1 / np.sqrt(2 * j_max + 1), abs=1e-12)
    assert report.e0 == (j_max - 1) * j_max
    assert report.e1 == (j_max + 1) * j_max
    assert report.gap_plus == report.gap_minus == 2 * j_max
    assert report.gaps_equal


def test_two_level_witness_needs_j_above_one():
    with pytest.raises(ValueError):
        two_level_obstruction(1)


def test_fixed_point_two_level_exact():
    basis, h0, c, kick = _two_level_system()
    report = fixed_point_analysis(h0, c)
    assert report.multiplicities == (1, 1)
    assert report.commutant_dim == 2
    assert report.bound == 2
    assert report.dim_span == 2
    assert report.saturated
    # symbolic cross-check: the Hermitian 2x2 space is spanned by
    # {I, C, iC', [C, iC']} with C the coupling; every rotated commutator
    # U+ i[H0, C] U is traceless and orthogonal to C, and the span has
    # dimension 2, so it is exactly the complement of span{I, C}.
    for amp in (0.0, 0.7, 2.0):
        u = kick.operator.blocks.scatter(kick_unitary(kick.operator, amp))
        rotated = u.conj().T @ (1j * (h0.matrix @ c.matrix - c.matrix @ h0.matrix)) @ u
        assert np.max(np.abs(rotated - rotated.conj().T)) < 1e-12
        assert abs(np.vdot(np.eye(2), rotated).real) < 1e-12
        assert abs(np.vdot(c.matrix, rotated).real) < 1e-12


def test_fixed_point_scalar_functional():
    basis = build_basis(1)
    h0 = h0_matrix(basis)
    ident = HermitianOperator.from_matrix(basis, np.eye(basis.dim))
    report = fixed_point_analysis(h0, ident)
    assert report.dim_span == 0
    assert report.bound == 0
    assert report.multiplicities == (basis.dim,)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("j_max", [1, 2, 3])
def test_fixed_point_bound_and_grid_saturation(kind, j_max):
    basis = build_basis(j_max)
    h0 = h0_matrix(basis)
    obs = observable_matrix(basis, kind)
    report = fixed_point_analysis(h0, obs)
    assert report.dim_span <= report.bound
    assert sum(report.multiplicities) == basis.dim
    assert report.dim_span == sampled_slope_span(h0.matrix, obs.matrix, np.random.default_rng(j_max))


# closed-form spans beyond j_max = 3, where a 64-point amplitude grid under-counts
EXACT_SPANS = {
    (ORIENTATION, 4): 26,
    (ORIENTATION, 6): 68,
    (ORIENTATION, 8): 140,
    (ALIGNMENT, 4): 14,
    (ALIGNMENT, 6): 44,
    (ALIGNMENT, 8): 100,
}


@pytest.mark.parametrize("kind, j_max", sorted(EXACT_SPANS))
def test_fixed_point_span_matches_sampled_oracle(kind, j_max):
    basis = build_basis(j_max)
    h0 = h0_matrix(basis)
    obs = observable_matrix(basis, kind)
    report = fixed_point_analysis(h0, obs)
    assert report.dim_span == EXACT_SPANS[kind, j_max]
    assert report.dim_span == sampled_slope_span(h0.matrix, obs.matrix, np.random.default_rng(j_max))
    assert report.dim_span <= report.bound


def _synthetic_functional(spectrum, seed=5):
    """A functional with the given spectrum and random eigenvectors, with the rotor H0 on len(spectrum) states."""
    n = len(spectrum)
    basis = Basis(j_max=n - 1, states=tuple(BasisIndex(j, 0) for j in range(n)))
    v = haar_unitary(n, np.random.default_rng(seed))
    functional = HermitianOperator.from_matrix(basis, (v * np.asarray(spectrum, dtype=float)) @ v.conj().T)
    return h0_matrix(basis), functional, v


def test_fixed_point_repeated_frequency_counts_once():
    # differences of an equally spaced spectrum: six pairs, three positive frequencies
    h0, functional, _ = _synthetic_functional([0.0, 1.0, 2.0, 3.0])
    report = fixed_point_analysis(h0, functional)
    assert report.dim_span == 6
    assert report.dim_span == sampled_slope_span(h0.matrix, functional.matrix, np.random.default_rng(0))


@pytest.mark.parametrize("split, span", [(1e-9, 6), (1e-14, 4), (0.0, 4)])
def test_fixed_point_frequency_clustering_tolerance(split, span):
    # frequencies 1, 1 + delta and 2 + delta; delta is relative to the spectral scale 2
    delta = 2.0 * split
    h0, functional, _ = _synthetic_functional([0.0, 1.0, 2.0 + delta])
    assert fixed_point_analysis(h0, functional).dim_span == span


def test_single_frequency_slope_is_not_stationary():
    h0, functional, v = _synthetic_functional([0.0, 1.0, 3.0])
    slope = v.conj().T @ (1j * (h0.matrix @ functional.matrix - functional.matrix @ h0.matrix)) @ v
    assert is_kick_stationary(DensityMatrix.from_matrix(h0.basis, np.eye(3, dtype=complex) / 3), h0, functional)
    # rho_10 C_01 = 1e-6 i |C_01| gives Tr[rho C_w] != 0 at w = -1 and its
    # mirror w = 1 only; the pre-kick slope 2 Re(rho_10 C_01) is zero, and
    # kicks rotate the rest into view
    rho = np.eye(3, dtype=complex) / 3
    rho[1, 0] = 1e-6j * np.conj(slope[0, 1]) / abs(slope[0, 1])
    rho[0, 1] = np.conj(rho[1, 0])
    state = DensityMatrix.from_matrix(h0.basis, v @ rho @ v.conj().T)
    assert abs(np.trace(state.matrix @ v @ slope @ v.conj().T)) < 1e-14
    assert not is_kick_stationary(state, h0, functional)


def test_fixed_point_spectrum_example():
    # orientation at j_max = 1: spectrum {+-1/sqrt3, 0, 0} gives commutant 6
    basis = build_basis(1)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    report = fixed_point_analysis(h0, obs)
    assert report.multiplicities == (1, 2, 1)
    assert report.commutant_dim == 6
    assert report.bound == 10


def test_stationary_states():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    kick = make_kick(basis, ORIENTATION, 2.0)
    rho0 = thermal_state(basis, beta=0.5)
    blocks = block_decomposition(basis, ORIENTATION)
    target = build_target(rho0, obs, blocks)
    assert is_kick_stationary(target.rho, h0, obs)
    mixed = DensityMatrix.from_matrix(basis, np.eye(basis.dim, dtype=complex) / basis.dim)
    assert is_kick_stationary(mixed, h0, obs)
    # a kicked thermal state mid-train is not stationary
    moving = free_propagate(apply_kick(rho0, kick), h0, 0.31)
    assert not is_kick_stationary(moving, h0, obs)


def test_random_commuting_states_are_stationary():
    rng = np.random.default_rng(11)
    basis = build_basis(2)  # N = 9
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    w, v = np.linalg.eigh(obs.matrix)
    # cluster the eigenvalues to find the degenerate sectors
    sectors = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > 1e-10:
            sectors.append(list(range(start, k)))
            start = k
    for _ in range(50):
        blocks_mat = np.zeros((basis.dim, basis.dim), dtype=complex)
        for sector in sectors:
            g = rng.normal(size=(len(sector), len(sector))) + 1j * rng.normal(size=(len(sector), len(sector)))
            blocks_mat[np.ix_(sector, sector)] = g @ g.conj().T
        mat = v @ blocks_mat @ v.conj().T
        mat = mat / np.trace(mat).real
        mat = 0.5 * (mat + mat.conj().T)
        rho = DensityMatrix.from_matrix(basis, mat)
        assert is_kick_stationary(rho, h0, obs)
