import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_diagonal_part, block_stack, direct_partition_sum, enumerated_states, grouped_blocks
from rotorkick.basis import (
    ALIGNMENT,
    ORIENTATION,
    Basis,
    Block,
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
            assert [(b.m, b.parity, b.members, b.offset) for b in blocks.blocks] == grouped_blocks(states, kind)
            assert all(type(k) is int for b in blocks.blocks for k in (b.m, b.offset, *b.members))


def test_orientation_blocks_j1():
    blocks = block_decomposition(build_basis(1), ORIENTATION)
    assert [(b.m, b.size) for b in blocks.blocks] == [(-1, 1), (0, 2), (1, 1)]


def test_orientation_blocks_j8():
    blocks = block_decomposition(build_basis(8), ORIENTATION)
    assert blocks.n_blocks == 17
    for b in blocks.blocks:
        assert b.size == 8 - abs(b.m) + 1
        assert b.parity is None


def test_alignment_blocks_j2_m0():
    basis = build_basis(2)
    blocks = block_decomposition(basis, ALIGNMENT)
    by_key = {(b.m, b.parity): b for b in blocks.blocks}
    even = by_key[(0, 0)]
    odd = by_key[(0, 1)]
    assert [basis.j_values[k] for k in even.members] == [0, 2]
    assert [basis.j_values[k] for k in odd.members] == [1]
    # |m| = 2 only supports j = 2, so the odd sub-block is omitted
    assert (2, 1) not in by_key
    assert (2, 0) in by_key


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("j_max", range(14))
def test_blocks_partition_basis(j_max, kind):
    basis = build_basis(j_max)
    blocks = block_decomposition(basis, kind)
    members = [k for b in blocks.blocks for k in b.members]
    assert sorted(members) == list(range(basis.dim))
    assert sum(b.size for b in blocks.blocks) == basis.dim
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
    for b in blocks.blocks:
        parities = {basis.j_values[k] % 2 for k in b.members}
        assert parities == {b.parity}
        per_m.setdefault(b.m, []).append(b.parity)
    for m, parities in per_m.items():
        assert len(parities) == len(set(parities))
        if len(parities) == 2:
            assert set(parities) == {0, 1}
            assert parities == [0, 1]  # even sub-block listed first


def test_block_ordering_deterministic():
    blocks = block_decomposition(build_basis(3), ALIGNMENT)
    keys = [(b.m, b.parity) for b in blocks.blocks]
    assert keys == sorted(keys)


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


def test_copies_group_bit_identical_blocks_of_one_size():
    # sizes 1, 2, 1, 2: zero-padded alike, so only the size tells the blocks apart
    sizes = (1, 2, 1, 2)
    starts = np.cumsum((0, *sizes[:-1]))
    blocks = BlockDecomposition(
        kind="none",
        blocks=tuple(Block(m=None, parity=None, members=tuple(range(a, a + k))) for a, k in zip(starts, sizes)),
    )
    stack, diagonal = np.zeros((4, 2, 2)), np.zeros((4, 2))

    def folded():
        keep, source = blocks.copies([stack, diagonal])
        return np.flatnonzero(keep).tolist(), source.tolist()

    assert folded() == ([2, 3], [0, 1, 0, 1])
    stack[3, 1, 0] = -0.0  # equal to 0.0, but not bit-identical
    assert folded() == ([1, 2, 3], [1, 0, 1, 2])
    diagonal[0, 0] = 1.0  # one entry of one stack
    assert folded() == ([0, 1, 2, 3], [0, 1, 2, 3])
    # alignment at j_max 8: (m=2, even) on slots 1-4 and (m=1, odd) on slots 0-3 both hold 4 states
    blocks = block_decomposition(build_basis(8), ALIGNMENT)
    where = {(block.m, block.parity): b for b, block in enumerate(blocks.blocks)}
    even, odd = where[2, 0], where[1, 1]
    assert blocks.blocks[even].size == blocks.blocks[odd].size == 4
    keep, source = blocks.copies([np.zeros(blocks.slots.shape)])
    assert source[even] != source[odd] and keep[even] and keep[odd]  # each the last block on its slots


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_copies_match_every_mirror_pair_of_the_presets(preset, monkeypatch):
    import rotorkick.cli as cli

    found = []
    real = BlockDecomposition.copies

    def recording(self, stacks):
        found.append((self, len(stacks), real(self, stacks)))
        return found[-1][2]

    monkeypatch.setattr(BlockDecomposition, "copies", recording)
    config = PRESETS[preset].with_overrides(j_sim=12)
    for mode in ("idealized", "physical"):
        cli._run_one_mode(config, mode)
    # the two trains fold several stacks; each eigensystem folds its operator's one
    assert sum(n > 1 for _, n, _ in found) == 2
    assert len(found) > 2
    for blocks, _, (keep, source) in found:
        where = {(block.m, block.parity): b for b, block in enumerate(blocks.blocks)}
        assert np.flatnonzero(keep)[source].tolist() == [where[abs(block.m), block.parity] for block in blocks.blocks]


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
