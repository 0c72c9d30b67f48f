import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    block_diagonal_part,
    block_stack,
    direct_partition_sum,
    enumerated_states,
    grouped_blocks,
    members,
)
from rotorkick.basis import (
    ALIGNMENT,
    ORIENTATION,
    Basis,
    BlockDecomposition,
    block_decomposition,
    build_basis,
    single_block,
)
from rotorkick.config import PRESETS
from rotorkick.operators import (
    DensityMatrix,
    HermitianOperator,
    cos2_theta_matrix,
    embed_density,
    embed_operator,
    kick_unitary,
    thermal_state,
)


def _states(basis):
    return list(zip(basis.j_values.tolist(), basis.m_values.tolist()))


def test_dimension_examples():
    assert build_basis(0).dim == 1
    assert _states(build_basis(0)) == [(0, 0)]
    assert build_basis(3).dim == 16
    assert build_basis(8).dim == 81


def test_ordering_ascending_m_then_j():
    basis = build_basis(1)
    assert _states(basis) == [(1, -1), (0, 0), (1, 0), (1, 1)]


@given(st.integers(min_value=0, max_value=12))
def test_enumeration_complete_and_unique(j_max):
    basis = build_basis(j_max)
    assert basis.dim == (j_max + 1) ** 2
    seen = set(_states(basis))
    assert len(seen) == basis.dim
    for j in range(j_max + 1):
        for m in range(-j, j + 1):
            assert (j, m) in seen
    # flattened index lookup is consistent with enumeration order
    for k, (j, m) in enumerate(_states(basis)):
        assert basis.index_of(j, m) == k
    assert np.array_equal(basis.index_of(basis.j_values, basis.m_values), np.arange(basis.dim))


@pytest.mark.parametrize("j_max", range(13))
def test_build_basis_equals_the_nested_loop_enumeration(j_max):
    for m_max in (None, *range(j_max + 3)):
        basis = build_basis(j_max, m_max)
        assert _states(basis) == enumerated_states(j_max, m_max)
        assert basis.j_max == j_max and type(basis.j_max) is int
        for values in (basis.j_values, basis.m_values):
            assert values.dtype == np.dtype(int) and not values.flags.writeable


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=14))
def test_m_shells_are_the_states_of_the_full_basis_with_small_m(j_max, m_max):
    shells = build_basis(j_max, m_max)
    assert _states(shells) == [(j, m) for j, m in _states(build_basis(j_max)) if abs(m) <= m_max]
    assert shells.j_max == j_max and build_basis(j_max, m_max) is shells
    assert (shells is build_basis(j_max)) == (m_max >= j_max)


@pytest.mark.parametrize(
    "j_values, m_values, message",
    [
        ([0, -1], [0, 0], r"state \(j=-1, m=0\): 0 <= \|m\| <= j required"),
        ([0, 1], [0, 2], r"state \(j=1, m=2\): 0 <= \|m\| <= j required"),
        ([0, 1], [0, -2], r"state \(j=1, m=-2\): 0 <= \|m\| <= j required"),
        ([0, 1, 1], [0, 0], "equal length"),
        ([[0, 1]], [[0, 0]], "equal length"),
        ([1, 0, 2, 1], [0, 0, 1, 0], r"state \(j=1, m=0\): listed twice"),
        ([3, 3], [-3, -3], r"state \(j=3, m=-3\): listed twice"),
    ],
)
def test_invalid_states_rejected(j_values, m_values, message):
    with pytest.raises(ValueError, match=message):
        Basis(3, j_values, m_values)


def test_invalid_cutoffs_rejected():
    with pytest.raises(ValueError):
        build_basis(-1)
    with pytest.raises(ValueError):
        build_basis(3, -1)


def test_a_basis_holds_read_only_copies_and_compares_by_cutoff_and_states():
    j, m = np.array([1, 0, 1]), np.array([-1, 0, 0])
    basis = Basis(1, j, m)
    j[0] = 5  # the caller's array is not the basis's
    assert _states(basis) == [(1, -1), (0, 0), (1, 0)]
    with pytest.raises(ValueError):
        basis.j_values[0] = 0
    assert basis == Basis(1, [1, 0, 1], [-1, 0, 0])
    assert basis != Basis(2, [1, 0, 1], [-1, 0, 0])  # another cutoff
    assert basis != Basis(1, [0, 1, 1], [0, -1, 0])  # another order
    assert basis != Basis(1, [1, 0], [-1, 0])
    assert Basis(3, *map(np.array, zip(*enumerated_states(3)))) == build_basis(3)


def test_index_of_raises_key_error_for_an_absent_state():
    basis = build_basis(2, 1)
    assert basis.index_of(2, 1) == basis.dim - 1
    for j, m in [(2, 2), (3, 0), (1, -2), (-1, 0)]:
        with pytest.raises(KeyError):
            basis.index_of(j, m)
    with pytest.raises(KeyError, match=r"\(2, 2\)"):
        basis.index_of(2, 2)
    with pytest.raises(KeyError):
        basis.index_of(np.array([0, 2]), np.array([0, -2]))
    assert basis.index_of(np.array([[1, 0]]), np.array([[1, 0]])).tolist() == [[basis.dim - 2, 2]]


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_block_decomposition_groups_any_basis_as_the_loop_oracle(kind):
    rng = np.random.default_rng(3)
    for j_max in range(6):
        full = enumerated_states(j_max)
        for _ in range(20):
            states = [full[k] for k in rng.permutation(len(full))[: rng.integers(len(full) + 1)]]
            basis = Basis(j_max, [j for j, _ in states], [m for _, m in states])
            blocks = block_decomposition(basis, kind)
            for got, want in zip((blocks.m, blocks.classes, blocks.slots), grouped_blocks(states, kind)):
                assert got.dtype == np.intp and got.shape == want.shape and np.array_equal(got, want)


def test_a_decomposition_is_three_read_only_integer_arrays_and_compares_by_kind_dim_and_slots():
    basis = build_basis(500)
    blocks = block_decomposition(basis, ALIGNMENT)
    fields = {field.name: getattr(blocks, field.name) for field in dataclasses.fields(blocks)}
    arrays = {name: value for name, value in fields.items() if isinstance(value, np.ndarray)}
    assert sorted(arrays) == ["classes", "m", "slots"] and sorted(fields) == ["classes", "dim", "kind", "m", "slots"]
    assert all(a.dtype == np.intp and not a.flags.writeable for a in arrays.values())
    assert (blocks.kind, blocks.dim, blocks.n_blocks, blocks.slots.shape) == (ALIGNMENT, 501**2, 2000, (2000, 251))
    copy = BlockDecomposition(ALIGNMENT, basis.dim, np.zeros(2000), np.zeros(2000), blocks.slots.copy())
    assert copy == blocks and copy.slots is not blocks.slots  # m and classes play no part
    assert BlockDecomposition("none", basis.dim, blocks.m, blocks.classes, blocks.slots) != blocks
    assert BlockDecomposition(ALIGNMENT, basis.dim + 1, blocks.m, blocks.classes, blocks.slots) != blocks
    orientation = block_decomposition(basis, ORIENTATION)
    assert orientation != blocks and orientation != basis
    assert single_block(4) == BlockDecomposition("none", 4, [0], [0], [[0, 1, 2, 3]])


def test_orientation_blocks_j1():
    blocks = block_decomposition(build_basis(1), ORIENTATION)
    assert list(zip(blocks.m.tolist(), blocks.filled.sum(axis=-1).tolist())) == [(-1, 1), (0, 2), (1, 1)]


def test_orientation_blocks_j8():
    blocks = block_decomposition(build_basis(8), ORIENTATION)
    assert blocks.n_blocks == 17
    assert np.array_equal(blocks.filled.sum(axis=-1), 8 - np.abs(blocks.m) + 1)
    assert np.array_equal(blocks.m, np.arange(-8, 9)) and not blocks.classes.any()


def test_alignment_blocks_j2_m0():
    basis = build_basis(2)
    blocks = block_decomposition(basis, ALIGNMENT)
    even, odd = blocks.find(0, 0), blocks.find(0, 1)
    assert basis.j_values[members(blocks)[even]].tolist() == [0, 2]
    assert basis.j_values[members(blocks)[odd]].tolist() == [1]
    # |m| = 2 only supports j = 2, so the odd sub-block is omitted
    assert blocks.find(2, 1) == -1
    assert blocks.find(2, 0) == blocks.n_blocks - 1
    assert blocks.find(np.array([-2, 3]), np.array([0, 0])).tolist() == [0, -1]


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("j_max", range(14))
def test_blocks_partition_basis(j_max, kind):
    basis = build_basis(j_max)
    blocks = block_decomposition(basis, kind)
    states = [k for idx in members(blocks) for k in idx]
    assert sorted(states) == list(range(basis.dim))
    assert blocks.filled.sum() == basis.dim
    # |j, m> sits on slot j of its m block, on slot j // 2 of its (m, parity) block
    step = 1 if kind == ORIENTATION else 2
    b, slot = np.nonzero(blocks.filled)
    assert np.array_equal(slot, basis.j_values[blocks.slots[b, slot]] // step)
    assert blocks.slots.shape[1] == j_max // step + 1


@pytest.mark.parametrize("j_max", range(1, 9))
def test_alignment_parity_split(j_max):
    basis = build_basis(j_max)
    blocks = block_decomposition(basis, ALIGNMENT)
    per_m = {}
    for m, parity, idx in zip(blocks.m.tolist(), blocks.classes.tolist(), members(blocks)):
        assert set((basis.j_values[idx] % 2).tolist()) == {parity}
        per_m.setdefault(m, []).append(parity)
    for m, parities in per_m.items():
        assert len(parities) == len(set(parities))
        if len(parities) == 2:
            assert set(parities) == {0, 1}
            assert parities == [0, 1]  # even sub-block listed first


def test_block_ordering_deterministic():
    blocks = block_decomposition(build_basis(3), ALIGNMENT)
    keys = list(zip(blocks.m.tolist(), blocks.classes.tolist()))
    assert keys == sorted(keys)
    assert np.all(np.diff(2 * blocks.m + blocks.classes) > 0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        block_decomposition(build_basis(2), "circular")


LAYOUTS = ["m", "m-parity", "one"]


def _decomposition(basis, name):
    if name == "one":
        return single_block(basis.dim)
    return block_decomposition(basis, ORIENTATION if name == "m" else ALIGNMENT)


def _random_operator(basis, blocks, rng):
    """A random Hermitian matrix that couples no two of the given blocks."""
    z = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    return block_diagonal_part(z + z.conj().T, blocks)


@settings(max_examples=40, deadline=None)
@given(
    j_max=st.integers(0, 4),
    source=st.sampled_from(LAYOUTS),
    target=st.sampled_from(LAYOUTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_restack_matches_dense_oracle(j_max, source, target, seed):
    basis = build_basis(j_max)
    src, dst = _decomposition(basis, source), _decomposition(basis, target)
    # an operator on the (m, parity) blocks is block diagonal in every layout
    dense = _random_operator(basis, _decomposition(basis, "m-parity"), np.random.default_rng(seed))
    stack = block_stack(dense, src)
    moved = dst.restack(stack, src)
    assert np.array_equal(moved, block_stack(dense, dst))
    assert np.array_equal(src.restack(moved, dst), stack)  # and back, exactly


def test_restack_moves_the_thermal_state_and_back():
    basis = build_basis(5)
    beta = 0.3
    rho = thermal_state(basis, beta)
    weights = np.array([np.exp(-beta * j * (j + 1)) for j in basis.j_values.tolist()]) / direct_partition_sum(beta)
    dense = np.diag(weights).astype(complex)
    state = rho
    for name in ("m-parity", "one", "m"):
        state = state.regroup(_decomposition(basis, name))
        assert np.max(np.abs(state.stack - block_stack(dense, state.blocks))) <= 1e-15
    assert state.blocks == rho.blocks and np.array_equal(state.stack, rho.stack)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("source", LAYOUTS)
@pytest.mark.parametrize("target", LAYOUTS)
def test_regroup_moves_a_diagonal_stack_as_restack_does(source, target, dtype):
    basis = build_basis(4)
    src, dst = _decomposition(basis, source), _decomposition(basis, target)
    weights = np.random.default_rng(5).random(basis.dim) / basis.dim
    stack = np.asarray(block_stack(np.diag(weights), src).real, dtype=dtype)
    rho = DensityMatrix(basis, src, stack, trace_target=float(weights.sum()))
    moved = rho.regroup(dst)
    assert moved.stack.dtype == np.dtype(dtype) and moved.trace_target == rho.trace_target
    assert moved.stack.tobytes() == dst.restack(rho.stack, src).tobytes()
    assert not moved.stack.flags.writeable


@pytest.mark.parametrize("name", LAYOUTS)
def test_embedding_matches_the_dense_lift(name):
    # odd and even cutoffs on both sides: trailing padding in the odd-j alignment blocks of an even cutoff
    for j_max, j_sim in ((2, 3), (3, 4), (7, 13), (8, 16)):
        small, big = build_basis(j_max), build_basis(j_sim)
        src, dst = _decomposition(small, name), _decomposition(big, name)
        dense = _random_operator(small, src, np.random.default_rng(j_sim))
        op = HermitianOperator(small, src, block_stack(dense, src))
        idx = [_states(big).index(s) for s in _states(small)]
        lifted = np.zeros((big.dim, big.dim), dtype=complex)
        lifted[np.ix_(idx, idx)] = dense
        embedded = embed_operator(op, big)
        assert embedded.blocks == dst and np.array_equal(embedded.stack, block_stack(lifted, dst))
        assert np.array_equal(embedded.matrix, lifted)
        rho = DensityMatrix(small, src, block_stack(np.eye(small.dim) / small.dim, src))
        assert np.array_equal(embed_density(rho, big).matrix[np.ix_(idx, idx)], rho.matrix)


def test_restack_never_reads_padding():
    basis = build_basis(4)
    op = cos2_theta_matrix(basis)
    u = kick_unitary(op, 1.3)
    filled = op.blocks.filled
    padding = ~(filled[:, :, None] & filled[:, None, :])
    assert np.any(u[padding] == 1)  # a unitary's padding holds ones
    poisoned = np.where(padding, np.nan, u)  # any read of the padding would show
    dense = single_block(basis.dim).restack(poisoned, op.blocks)[0]
    assert np.array_equal(block_stack(dense, op.blocks)[~padding], u[~padding])
    assert np.array_equal(dense, block_diagonal_part(dense, op.blocks))
    for name in LAYOUTS:
        target = _decomposition(basis, name)
        assert np.array_equal(target.restack(poisoned, op.blocks), block_stack(dense, target))


# (source layout, target layout, pair of states whose entry lands in no target block)
COUPLINGS = [("one", "m", (1, -1), (1, 0)), ("m", "m-parity", (0, 0), (1, 0))]


@pytest.mark.parametrize("source, target, first, second", COUPLINGS)
@pytest.mark.parametrize(
    "value, tol, drops",
    [(1e-11, 1e-10, True), (1e-10, 1e-10, True), (1e-11, 1e-12, False), (np.nan, np.inf, False)],
)
def test_restack_drops_or_raises_on_entries_coupling_blocks(source, target, first, second, value, tol, drops):
    basis = build_basis(3)
    src, dst = _decomposition(basis, source), _decomposition(basis, target)
    dense = _random_operator(basis, dst, np.random.default_rng(11))
    a, b = basis.index_of(*first), basis.index_of(*second)
    coupled = dense.copy()
    coupled[a, b] = coupled[b, a] = value
    stack = block_stack(coupled, src)
    if drops:
        assert np.array_equal(dst.restack(stack, src, what="observable", tol=tol), block_stack(dense, dst))
    else:
        with pytest.raises(ValueError, match="observable couples states in different invariant blocks"):
            dst.restack(stack, src, what="observable", tol=tol)


def test_single_block_is_shared_and_read_only():
    whole = single_block(9)
    assert single_block(9) is whole
    blocks = block_decomposition(build_basis(2), ALIGNMENT)
    for layout in (whole, blocks):
        for array in (layout.slots, layout.filled, layout.classes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_mirrors_pair_each_block_with_its_minus_m_block_on_the_same_slots(kind):
    blocks = block_decomposition(build_basis(6), kind)
    mirror = blocks.mirrors
    assert not mirror.flags.writeable and np.all(mirror >= 0)
    assert np.array_equal(blocks.m[mirror], -blocks.m) and np.array_equal(blocks.classes[mirror], blocks.classes)
    assert np.array_equal(blocks.filled[mirror], blocks.filled)
    assert np.array_equal(mirror[mirror], np.arange(len(mirror)))
    assert np.array_equal(np.flatnonzero(mirror == np.arange(len(mirror))), np.flatnonzero(blocks.m == 0))
    # m = 0 is its own mirror, and never folds
    assert not blocks.folded([np.zeros(blocks.slots.shape)])[blocks.m == 0].any()


def test_a_block_without_a_minus_m_block_on_its_slots_has_no_mirror():
    # |1, 1> has no |1, -1>; the m = -2 block holds j = 2, 3 on slots 2, 3 and the m = 2 block j = 3 alone
    basis = Basis(3, [0, 1, 1, 2, 3, 3], [0, 0, 1, -2, -2, 2])
    blocks = block_decomposition(basis, ORIENTATION)
    assert blocks.m.tolist() == [-2, 0, 1, 2]
    assert blocks.mirrors.tolist() == [-1, 1, -1, -1]
    assert blocks.slots[0, 2:].tolist() == [3, 4] and blocks.slots[3, 2:].tolist() == [6, 5]  # 6: padding
    assert not blocks.folded([np.zeros(blocks.slots.shape)]).any()
    # the same j values, one on another slot: m = -2 from j = 2, m = 2 from j = 3
    assert not block_decomposition(Basis(3, [2, 3], [-2, 2]), ORIENTATION).folded([np.zeros((2, 4))]).any()


def test_single_block_folds_nothing():
    whole = single_block(5)
    assert whole.mirrors.tolist() == [0] and not whole.folded([np.zeros((1, 5, 5))]).any()


def test_folded_compares_bits_in_every_stack():
    blocks = block_decomposition(build_basis(2), ORIENTATION)  # m = -2..2
    stack, diagonal = np.zeros((5, 3, 3)), np.zeros((5, 3))

    def folded():
        return np.flatnonzero(blocks.folded([stack, diagonal])).tolist()

    assert folded() == [0, 1]
    stack[0, 2, 2] = -0.0  # equal to 0.0, but not bit-identical
    assert folded() == [1]
    diagonal[3, 1] = 1.0  # one entry of one stack
    assert folded() == []
    stack[0, 2, 2] = stack[4, 2, 2] = diagonal[1, 1] = 1.0  # the mirrors agree again
    assert folded() == [0, 1]
    assert np.flatnonzero(blocks.folded([])).tolist() == [0, 1]
    # alignment at j_max 8: (m=2, even) on slots 1-4 and (m=1, odd) on slots 0-3 both hold 4 states, no mirrors
    blocks = block_decomposition(build_basis(8), ALIGNMENT)
    even, odd = blocks.find(2, 0), blocks.find(1, 1)
    assert blocks.mirrors[even] == blocks.find(-2, 0) and blocks.mirrors[odd] == blocks.find(-1, 1)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_folded_marks_every_minus_m_block_of_the_presets(preset, monkeypatch):
    import rotorkick.cli as cli

    found = []
    real = BlockDecomposition.folded

    def recording(self, stacks):
        found.append((self, len(stacks), real(self, stacks)))
        return found[-1][2]

    monkeypatch.setattr(BlockDecomposition, "folded", recording)
    config = PRESETS[preset].with_overrides(j_sim=12)
    for mode in ("idealized", "physical"):
        cli._run_one_mode(config, mode)
    # the two trains fold several stacks; each eigensystem folds its operator's one
    assert sum(n > 1 for _, n, _ in found) == 2
    assert len(found) > 2
    for blocks, _, fold in found:
        assert np.array_equal(fold, blocks.m < 0)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_shared_bases_and_decompositions_are_built_once_and_read_only(kind):
    basis = build_basis(3)
    assert build_basis(3) is basis and build_basis(np.int64(3)) is basis and type(basis.j_max) is int
    assert block_decomposition(basis, kind) is block_decomposition(basis, kind)
    assert block_decomposition(build_basis(3), kind) is block_decomposition(basis, kind)
    before = basis.j_values.copy()
    with pytest.raises(ValueError, match="read-only"):
        basis.j_values[0] = 5
    assert np.array_equal(build_basis(3).j_values, before)
