import math

import numpy as np
import pytest

from oracles import direct_partition_sum, index_of, members, quadrature_cos_power_element, spans
from rotorkick.basis import (
    ALIGNMENT,
    ORIENTATION,
    BlockDecomposition,
    block_decomposition,
    build_basis,
)
from rotorkick.config import PRESETS
from rotorkick.dynamics import S1, _Train, apply_kick, make_kick
from rotorkick.errors import NumericalError
from rotorkick.operators import (
    DensityMatrix,
    HermitianOperator,
    cos2_theta_matrix,
    cos_theta_matrix,
    diagonal_eigenvalues,
    embed_density,
    embed_operator,
    eigenvalue_multiplicities,
    h0_matrix,
    kick_unitary,
    observable_matrix,
    partition_function,
    project_operator,
    thermal_state,
)
from rotorkick.target import build_target


def _states(basis):
    """The (j, m) of every state, in basis order."""
    return list(zip(basis.j_values.tolist(), basis.m_values.tolist()))


def _coupling_mask(blocks):
    """(dim, dim) mask, True where an entry couples two different blocks."""
    block_of = np.empty(blocks.dim, dtype=int)
    for b, idx in enumerate(members(blocks)):
        block_of[idx] = b
    return block_of[:, None] != block_of[None, :]


def test_h0_diagonal_entries():
    basis = build_basis(1)
    h0 = h0_matrix(basis)
    assert np.allclose(np.diag(h0.matrix).real, [2.0, 0.0, 2.0, 2.0])
    assert np.all(h0.matrix == np.diag(np.diag(h0.matrix)))
    b2 = build_basis(2)
    assert h0_matrix(b2).matrix[index_of(b2, 2, 0), index_of(b2, 2, 0)] == 6.0


def test_cos_theta_reference_elements():
    basis = build_basis(4)
    c = cos_theta_matrix(basis)
    assert c.matrix[index_of(basis, 1, 0), index_of(basis, 0, 0)].real == pytest.approx(
        1 / math.sqrt(3), abs=1e-15
    )
    # top coupling in the m = j_max - 1 two-level block
    for j_max in range(2, 11):
        b = build_basis(j_max)
        cc = cos_theta_matrix(b)
        got = cc.matrix[index_of(b, j_max, j_max - 1), index_of(b, j_max - 1, j_max - 1)].real
        assert got == pytest.approx(1 / math.sqrt(2 * j_max + 1), abs=1e-15)
    # the 1x1 block at m = j_max carries no element
    top = index_of(basis, 4, 4)
    assert np.all(c.matrix[top] == 0)


def test_cos_theta_against_quadrature():
    basis = build_basis(4)
    c = cos_theta_matrix(basis)
    for a, (ja, ma) in enumerate(_states(basis)):
        for b, (jb, mb) in enumerate(_states(basis)):
            if ma != mb:
                continue
            expected = quadrature_cos_power_element(ja, jb, ma, 1)
            assert c.matrix[a, b].real == pytest.approx(expected, abs=1e-12)


def test_cos2_reference_elements():
    basis = build_basis(2)
    c2 = cos2_theta_matrix(basis)
    i00 = index_of(basis, 0, 0)
    assert c2.matrix[i00, i00].real == pytest.approx(1 / 3, abs=1e-15)
    assert c2.matrix[index_of(basis, 2, 0), i00].real == pytest.approx(2 / (3 * math.sqrt(5)), abs=1e-15)
    b1 = build_basis(1)
    assert np.trace(cos2_theta_matrix(b1).matrix).real == pytest.approx(4 / 3, abs=1e-14)


def test_cos2_against_quadrature():
    basis = build_basis(4)
    c2 = cos2_theta_matrix(basis)
    for a, (ja, ma) in enumerate(_states(basis)):
        for b, (jb, mb) in enumerate(_states(basis)):
            if ma != mb:
                continue
            expected = quadrature_cos_power_element(ja, jb, ma, 2)
            assert c2.matrix[a, b].real == pytest.approx(expected, abs=1e-12)


def test_cos2_closed_form_matches_dense_square():
    # cos^2 truncated to j_max is the square of cos on one more j shell, restricted
    for j_max in range(13):
        basis = build_basis(j_max)
        big = build_basis(j_max + 1)
        c = cos_theta_matrix(big).matrix.real
        idx = index_of(big, basis.j_values, basis.m_values)
        square = (c @ c)[np.ix_(idx, idx)]
        assert np.max(np.abs(cos2_theta_matrix(basis).matrix - square)) <= 1e-15


@pytest.mark.parametrize("j_max", [1, 3, 6])
def test_block_structure_exact_zeros(j_max):
    basis = build_basis(j_max)
    c = cos_theta_matrix(basis)
    c2 = cos2_theta_matrix(basis)
    off_o = _coupling_mask(block_decomposition(basis, ORIENTATION))
    off_a = _coupling_mask(block_decomposition(basis, ALIGNMENT))
    assert np.all(c.matrix[off_o] == 0)
    assert np.all(c2.matrix[off_a] == 0)
    # cos couples only neighboring j, cos^2 only j and j +- 2
    for a, (ja, ma) in enumerate(_states(basis)):
        for b, (jb, mb) in enumerate(_states(basis)):
            if c.matrix[a, b] != 0:
                assert abs(ja - jb) == 1 and ma == mb
            if c2.matrix[a, b] != 0:
                assert abs(ja - jb) in (0, 2) and ma == mb


@pytest.mark.parametrize("j_max", [1, 2, 4])
def test_cos2_projection_consistency(j_max):
    small = build_basis(j_max)
    large = build_basis(j_max + 3)
    c_small = cos2_theta_matrix(small).matrix
    c_large = cos2_theta_matrix(large).matrix
    idx = index_of(large, small.j_values, small.m_values)
    assert np.max(np.abs(c_small - c_large[np.ix_(idx, idx)])) < 1e-12


def test_thermal_zero_temperature_limit():
    basis = build_basis(3)
    rho = thermal_state(basis, beta=1e3).validate_spectrum()
    ground = index_of(basis, 0, 0)
    assert rho.matrix[ground, ground].real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_thermal_infinite_temperature_truncated():
    basis = build_basis(2)
    rho = thermal_state(basis, beta=1e-12, z_mode="truncated")
    assert np.allclose(np.diag(rho.matrix).real, 1 / basis.dim, atol=1e-12)


def test_thermal_licl_against_direct_sum():
    beta = 0.70652 / (0.6950348 * 5.0)
    basis = build_basis(8)
    rho = thermal_state(basis, beta)
    z = direct_partition_sum(beta)
    assert rho.matrix[index_of(basis, 0, 0), index_of(basis, 0, 0)].real == pytest.approx(1 / z, rel=1e-12)
    # trace deficit equals the population excluded by the cutoff
    excluded = sum(
        (2 * j + 1) * math.exp(-beta * j * (j + 1)) for j in range(9, 200)
    ) / z
    assert np.trace(rho.matrix).real == pytest.approx(1.0 - excluded, abs=1e-12)


def test_thermal_weight_ordering():
    basis = build_basis(5)
    rho = thermal_state(basis, beta=0.3)
    diag = np.diag(rho.matrix).real
    weights_by_jm = {state: diag[k] for k, state in enumerate(_states(basis))}
    for (j, m), w in weights_by_jm.items():
        if (j + 1, m) in weights_by_jm:
            assert weights_by_jm[(j + 1, m)] <= w
        if (j, m - 1) in weights_by_jm:
            assert weights_by_jm[(j, m - 1)] == pytest.approx(w, abs=1e-16)


def test_thermal_modes_and_renormalize():
    basis = build_basis(2)
    beta = 0.4
    full = thermal_state(basis, beta, z_mode="full")
    trunc = thermal_state(basis, beta, z_mode="truncated")
    renorm = thermal_state(basis, beta, z_mode="full", renormalize=True)
    assert np.trace(full.matrix).real < 1.0
    assert np.trace(trunc.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(renorm.matrix - trunc.matrix)) < 1e-14


@pytest.mark.parametrize("settings", [{}, {"z_mode": "truncated"}, {"renormalize": True}])
def test_thermal_state_on_m_shells_is_the_full_state_restricted(settings):
    # weights and normalization are those of every state with j <= j_max, bit for bit, seen or not
    full, shells = build_basis(10), build_basis(10, 2)
    whole, part = thermal_state(full, 0.3, **settings), thermal_state(shells, 0.3, **settings)
    seen = index_of(full, shells.j_values, shells.m_values)
    assert np.array_equal(part.diagonal, whole.diagonal[seen])
    assert part.trace_target == pytest.approx(whole.diagonal[seen].sum(), rel=1e-15)


def test_thermal_invalid_beta():
    basis = build_basis(1)
    with pytest.raises(ValueError):
        thermal_state(basis, beta=0.0)
    with pytest.raises(ValueError):
        thermal_state(basis, beta=-1.0)
    with pytest.raises(ValueError):
        thermal_state(basis, beta=1.0, z_mode="bogus")
    for beta in (math.nan, math.inf, -math.inf):  # not a failed partition sum
        with pytest.raises(ValueError, match="finite"):
            thermal_state(basis, beta)
        with pytest.raises(ValueError, match="finite"):
            partition_function(beta)


def test_kick_exponential_two_level_closed_form():
    # on the 2x2 m=0 block of j_max=1 with off-diagonal c:
    # exp(iA C) = cos(Ac) I + i sin(Ac)/c * C, eigenvalues +-c
    basis = build_basis(1)
    cmat = cos_theta_matrix(basis)
    c = 1 / math.sqrt(3)
    for amp in (0.5, 1.0, 2.0):
        u = cmat.blocks.scatter(kick_unitary(cmat, amp))
        idx = [index_of(basis, 0, 0), index_of(basis, 1, 0)]
        block = u[np.ix_(idx, idx)]
        expected = math.cos(amp * c) * np.eye(2) + 1j * math.sin(amp * c) / c * cmat.matrix[np.ix_(idx, idx)]
        assert np.max(np.abs(block - expected)) < 1e-12
        # the 1x1 blocks at m = +-1 see eigenvalue 0
        for m in (-1, 1):
            k = index_of(basis, 1, m)
            assert u[k, k] == pytest.approx(1.0, abs=1e-12)
    # a kick of amplitude zero is the identity
    assert np.max(np.abs(cmat.blocks.scatter(kick_unitary(cmat, 0.0)) - np.eye(basis.dim))) < 1e-12


@pytest.mark.parametrize("amp", [0.5, 1.0, 2.0, 5.0])
def test_kick_unitary_and_commuting(amp):
    basis = build_basis(4)
    c = cos_theta_matrix(basis)
    u = c.blocks.scatter(kick_unitary(c, amp))
    assert np.max(np.abs(u.conj().T @ u - np.eye(basis.dim))) < 1e-10
    assert np.max(np.abs(c.matrix @ u - u @ c.matrix)) < 1e-12


def _random_m_conserving(basis, seed):
    """A random complex Hermitian matrix that couples no two m blocks."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    return np.where(_coupling_mask(block_decomposition(basis, ORIENTATION)), 0, z + z.conj().T)


def test_kick_unitary_of_a_dense_matrix_acts_on_its_m_blocks():
    basis = build_basis(2)
    op = HermitianOperator.from_matrix(basis, _random_m_conserving(basis, 7))
    lam, vec = np.linalg.eigh(op.matrix)
    expected = (vec * np.exp(1.3j * lam)) @ vec.conj().T
    assert op.blocks is block_decomposition(basis, ORIENTATION)
    assert np.max(np.abs(op.blocks.scatter(kick_unitary(op, 1.3)) - expected)) < 1e-12


def test_spectrum_preserved_under_conjugation():
    basis = build_basis(3)
    rho = thermal_state(basis, beta=0.25)
    c = cos_theta_matrix(basis)
    u = c.blocks.scatter(kick_unitary(c, 2.0))
    conj = DensityMatrix.from_matrix(
        basis, u @ rho.matrix @ u.conj().T, trace_target=float(np.trace(rho.matrix).real)
    )
    assert np.max(np.abs(conj.eigenvalues - rho.eigenvalues)) < 1e-10


def test_hermitian_operator_validation():
    basis = build_basis(1)
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        HermitianOperator.from_matrix(basis, bad)
    good = np.eye(4)
    with pytest.raises(ValueError):
        HermitianOperator.from_matrix(build_basis(2), good)  # wrong size
    with pytest.raises(ValueError, match="blocks on 9 states"):
        HermitianOperator.from_matrix(basis, good, block_decomposition(build_basis(2), ORIENTATION))
    coupling = np.zeros((4, 4))
    coupling[0, 1] = coupling[1, 0] = 0.5  # couples m=-1 to m=0
    with pytest.raises(ValueError):
        HermitianOperator.from_matrix(basis, coupling, blocks=block_decomposition(basis, ORIENTATION))


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_layout_round_trip_and_regroup(kind):
    basis = build_basis(3)
    blocks = block_decomposition(basis, kind)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    dense = z + z.conj().T
    dense[_coupling_mask(blocks)] = 0
    op = HermitianOperator.from_matrix(basis, dense, blocks)
    assert np.array_equal(op.matrix, dense)
    assert op.regroup(block_decomposition(basis, kind)) is op  # the same blocks, kept with the basis
    equal = BlockDecomposition(kind, blocks.dim, blocks.m, blocks.classes, blocks.slots)
    assert op.regroup(equal) is op  # equal blocks, not the same object
    other = ALIGNMENT if kind == ORIENTATION else ORIENTATION
    with pytest.raises(ValueError, match=f"observable has off-diagonal entries.*from {kind} onto {other} blocks"):
        op.regroup(block_decomposition(basis, other), "observable")

    a, b = index_of(basis, 1, -1), index_of(basis, 1, 0)  # different m: couples blocks of either kind
    dense[a, b] = dense[b, a] = 1e-11
    for on in (blocks, None):
        with pytest.raises(ValueError, match="couples"):
            HermitianOperator.from_matrix(basis, dense, on)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_density_eigenvalues_come_from_the_blocks(kind):
    basis = build_basis(4)
    thermal = thermal_state(basis, beta=0.3)
    op = observable_matrix(basis, kind)
    kicked = thermal.regroup(op.blocks).conjugated(op.blocks, kick_unitary(op, 1.7))
    assert kicked.blocks == op.blocks
    for rho in (thermal, kicked):
        assert np.max(np.abs(rho.eigenvalues - np.linalg.eigvalsh(rho.matrix)[::-1])) <= 1e-14


def test_density_matrix_validation():
    basis = build_basis(1)
    mat = np.eye(4) / 4
    rho = DensityMatrix.from_matrix(basis, mat)
    assert rho.purity() == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(basis, np.eye(4))  # trace 4 vs declared 1
    neg = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(basis, neg).validate_spectrum()


def test_embedding_roundtrip():
    small = build_basis(2)
    big = build_basis(4)
    rho = thermal_state(small, beta=0.7)
    lifted = embed_density(rho, big)
    assert np.trace(lifted.matrix).real == pytest.approx(np.trace(rho.matrix).real, abs=1e-14)
    idx = index_of(big, small.j_values, small.m_values).tolist()
    assert np.max(np.abs(lifted.matrix[np.ix_(idx, idx)] - rho.matrix)) == 0.0
    c_small = cos_theta_matrix(small)
    lifted_op = embed_operator(c_small, big)
    assert np.max(np.abs(lifted_op.matrix[np.ix_(idx, idx)] - c_small.matrix)) == 0.0
    outside = [k for k in range(big.dim) if k not in idx]
    assert np.all(lifted_op.matrix[outside, :] == 0)


def test_eigenvalue_multiplicities():
    basis = build_basis(1)
    c = cos_theta_matrix(basis)
    assert eigenvalue_multiplicities(c) == [1, 2, 1]
    ident = HermitianOperator.from_matrix(basis, np.eye(4))
    assert eigenvalue_multiplicities(ident) == [4]


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_stack_dtypes_follow_the_math(kind):
    # H0, the thermal state, the observable and the target are real symmetric; only kicks make states complex
    small, big = build_basis(3), build_basis(5)
    rho = thermal_state(small, beta=0.4)
    obs = observable_matrix(small, kind)
    target = build_target(rho, obs, block_decomposition(small, kind))
    real = [h0_matrix(small), rho, obs, embed_operator(obs, big), embed_density(rho, big), target.rho]
    real.append(HermitianOperator.from_matrix(small, np.eye(small.dim, dtype=int)))
    assert all(op.stack.dtype == np.float64 for op in real)
    assert obs.eigensystem[1].dtype == np.float64 and obs.eigensystem[0].dtype == np.float64
    assert obs.with_eigenvalues(obs.eigensystem[0]).dtype == np.float64
    kick = make_kick(small, kind, 1.3)
    assert kick_unitary(kick.operator, 1.3).dtype == kick_unitary(kick.operator, -1.3).dtype == np.complex128
    kicked = apply_kick(rho, kick)
    assert kicked.stack.dtype == np.complex128
    # a complex stack stays complex, even with no imaginary part, and so do its eigenvectors
    whole = HermitianOperator.from_matrix(small, obs.matrix.astype(complex))
    assert whole.stack.dtype == whole.eigensystem[1].dtype == np.complex128


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_kick_unitary_is_built_once_and_conjugated_for_the_opposite_sign(kind):
    op = observable_matrix(build_basis(8), kind)
    u = kick_unitary(op, 1.7)
    assert kick_unitary(op, 1.7) is u and not u.flags.writeable
    minus = kick_unitary(op, -1.7)
    assert kick_unitary(op, -1.7) is minus and not minus.flags.writeable
    fresh = op.with_eigenvalues(np.exp(-1.7j * op.eigensystem[0]))
    assert np.max(np.abs(minus - fresh)) <= 1e-15
    with pytest.raises(ValueError):
        u[0, 0, 0] = 0.0
    kick_unitary(op, 0.4)
    assert kick_unitary(op, 1.7) is not u  # only the latest pair is kept


def test_kick_unitary_of_a_complex_operator_builds_each_sign():
    basis = build_basis(2)
    op = HermitianOperator.from_matrix(basis, _random_m_conserving(basis, 5))
    lam, vec = np.linalg.eigh(op.matrix)
    for amp in (0.9, -0.9):
        expected = (vec * np.exp(1j * amp * lam)) @ vec.conj().T
        assert np.max(np.abs(op.blocks.scatter(kick_unitary(op, amp)) - expected)) < 1e-12


def test_constructors_reject_nan():
    basis = build_basis(2)
    thermal = thermal_state(basis, beta=0.5)
    for entry in ((0, 0, 0), (2, 0, 1)):
        stack = thermal.stack.copy()
        stack[entry] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(basis, thermal.blocks, stack, trace_target=thermal.trace_target)
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(basis, thermal.blocks, stack)
    with pytest.raises(ValueError, match="deviates from declared value nan"):
        DensityMatrix(basis, thermal.blocks, thermal.stack, trace_target=float("nan"))


@pytest.mark.parametrize("j_other", [1, 3])
def test_regroup_onto_blocks_of_another_basis_size(j_other):
    rho = thermal_state(build_basis(2), 0.5)
    other = block_decomposition(build_basis(j_other), ALIGNMENT)
    with pytest.raises(ValueError, match=f"state on 9 states cannot move onto blocks on {other.dim} states"):
        rho.regroup(other, "state")


def test_exact_stacks_keep_the_shape_and_trace_checks():
    basis = build_basis(2)
    rho = thermal_state(basis, beta=0.5)
    doubled = np.broadcast_to(2 * np.eye(rho.stack.shape[-1]), rho.stack.shape)  # not unitary: trace times 4
    with pytest.raises(NumericalError, match="kicked state: trace"):
        rho.conjugated(rho.blocks, doubled)
    with pytest.raises(ValueError, match="stack shape"):
        DensityMatrix._exact(basis, rho.blocks, rho.stack[:-1].copy(), rho.trace_target)
    with pytest.raises(ValueError, match="deviates from declared value"):
        DensityMatrix._exact(basis, rho.blocks, rho.stack.copy(), 2 * rho.trace_target)


def _per_block_eigh(op):
    """The eigensystem of every block from its own eigh call, laid out like HermitianOperator.eigensystem.

    The eigenvectors take the stack's dtype, as eigh's do on each block.
    """
    n_blocks, size = op.stack.shape[:2]
    w, v = np.zeros((n_blocks, size)), np.zeros((n_blocks, size, size), dtype=op.stack.dtype)
    v[:] = np.eye(size)
    for b, span in enumerate(spans(op.blocks)):
        w[b, span], v[b, span, span] = np.linalg.eigh(op.stack[b, span, span])
    return w, v


@pytest.mark.parametrize("j_sim", [16, 96])
def test_diagonal_eigenvalues_are_those_eigh_returns(j_sim):
    # at j_sim 96 beta j (j + 1) reaches 1893, so many thermal weights underflow to 0
    basis = build_basis(j_sim)
    modes = {(config.beta, config.z_mode, config.renormalize) for config in PRESETS.values()}
    ops = [thermal_state(basis, *mode) for mode in sorted(modes)] + [h0_matrix(basis)]
    if j_sim == 96:
        assert any(np.any(op.diagonal == 0.0) for op in ops[:-1])
    for op in ops:
        w, v = op.eigensystem
        diagonal = np.diagonal(op.stack, axis1=-2, axis2=-1)
        # every block's eigenvalues are its entries sorted, bit for bit; eigh gives the same bytes except on a
        # block whose largest entry lies below 2**-485, which LAPACK's heevd rescales, moving the last bits
        eigh_w, exact = _per_block_eigh(op)[0], np.max(np.abs(diagonal), axis=-1) >= 2.0**-485
        for b, span in enumerate(spans(op.blocks)):
            assert w[b, span].tobytes() == np.sort(diagonal[b, span]).tobytes()
        assert w[exact].tobytes() == eigh_w[exact].tobytes()
        # the columns are a permutation, so the blocks rebuild to rounding
        assert np.array_equal(v @ np.swapaxes(v.conj(), -1, -2), np.broadcast_to(np.eye(v.shape[-1]), v.shape))
        assert np.allclose(op.with_eigenvalues(w), op.stack, rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("j_max, beta", [(16, 0.3), (30, 1.0), (96, 0.2)])
def test_diagonal_eigenvalues_and_thermal_spectrum_are_the_thermal_eigenvalues(kind, j_max, beta):
    basis = build_basis(j_max)
    blocks = block_decomposition(basis, kind)
    for settings in ({}, {"z_mode": "truncated"}, {"renormalize": True}):
        rho = thermal_state(basis, beta, **settings)
        weights = rho.diagonal
        scale = np.max(np.append(weights, 0.0)[blocks.slots], axis=-1)
        if j_max > 16:  # some blocks lie below 2**-485, where eigh would rescale and move the last bits
            assert np.any((scale > 0) & (scale < 2.0**-485))
        want = rho.regroup(blocks).eigensystem[0]
        assert diagonal_eigenvalues(blocks, weights).tobytes() == want.tobytes()
        assert np.sort(weights)[::-1].tobytes() == rho.eigenvalues.tobytes()


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_projection_inverts_the_embedding(kind):
    small, big = build_basis(4), build_basis(7)
    op = observable_matrix(small, kind)
    assert project_operator(embed_operator(op, big), small).stack.tobytes() == op.stack.tobytes()
    # the entries do not depend on the cutoff: the projection of the larger observable is the smaller one
    assert project_operator(observable_matrix(big, kind), small).stack.tobytes() == op.stack.tobytes()
    with pytest.raises(KeyError):
        project_operator(op, big)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_kick_eigensystem_solves_each_mirror_pair_once_with_the_loop_bits(preset, monkeypatch):
    import rotorkick.operators as operators

    config = PRESETS[preset]
    calls = []
    real = operators._eigh
    # _eigh solves a stack of blocks of one size at once: count the blocks
    monkeypatch.setattr(operators, "_eigh", lambda matrix: calls.append(np.prod(matrix.shape[:-2])) or real(matrix))
    for j in (config.j_max, config.j_sim):
        op = make_kick(build_basis(j), config.process, config.kick_amplitude).operator
        calls.clear()
        w, v = op.eigensystem
        assert sum(calls) == np.sum(op.blocks.m >= 0)
        expected_w, expected_v = _per_block_eigh(op)
        assert w.tobytes() == expected_w.tobytes() and v.tobytes() == expected_v.tobytes()


def _scalar_ladder(basis, kind):
    """The observable's real stack filled one state at a time from the scalar formula."""

    def c(j, m):
        return math.sqrt(((j + 1) ** 2 - m**2) / ((2 * j + 1) * (2 * j + 3)))

    blocks = block_decomposition(basis, kind)
    block_of, slot_of = np.empty(basis.dim, dtype=int), np.empty(basis.dim, dtype=int)
    for b, (idx, span) in enumerate(zip(members(blocks), spans(blocks))):
        block_of[idx], slot_of[idx] = b, range(span.start, span.stop)
    size = blocks.slots.shape[1]
    stack = np.zeros((blocks.n_blocks, size, size))
    present = set(_states(basis))
    for a, (j, m) in enumerate(_states(basis)):
        b, k = block_of[a], slot_of[a]
        if kind == ALIGNMENT:
            below = c(j - 1, m) if j > abs(m) else 0.0
            stack[b, k, k] = below**2 + c(j, m) ** 2
        step = 1 if kind == ORIENTATION else 2
        if (j + step, m) in present:
            l = slot_of[index_of(basis, j + step, m)]
            stack[b, k, l] = stack[b, l, k] = c(j, m) if kind == ORIENTATION else c(j, m) * c(j + 1, m)
    return stack


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_ladder_entries_equal_the_scalar_formula(kind):
    # at j_max 96 Python's ** (C pow) and a correctly rounded square differ in a few cos^2 entries
    for j_max in [*range(13), 96]:
        basis = build_basis(j_max)
        assert observable_matrix(basis, kind).stack.tobytes() == _scalar_ladder(basis, kind).tobytes()
    # the train's basis of one copy of each +-m pair holds only m >= 0
    basis = build_basis(6)
    kick = make_kick(basis, kind, 1.0)
    start = thermal_state(basis, 0.3).regroup(kick.operator.blocks)
    kept = _Train(start, S1, kick, h0_matrix(basis), None, None, None).kick.operator
    assert kept.dim < basis.dim
    assert observable_matrix(kept.basis, kind).stack.tobytes() == _scalar_ladder(kept.basis, kind).tobytes()
    assert observable_matrix(kept.basis, kind).stack.tobytes() == kept.stack.tobytes()
