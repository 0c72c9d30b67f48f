import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import oracles
import pytest
from oracles import (
    MODULUS,
    certified_closure,
    certify,
    decomposed_dims_required,
    echelon,
    extend,
    float_lie_closure,
    float_trace_rank,
    generators_mod_p,
    grouped_closure,
    grouped_count,
    haar_unitary,
    members,
    rational_observable,
    reduced_sum,
    sampled_slope_span,
    sequential_exact_closure,
    spans,
    square_trace,
    trace_rank,
)

from rotorkick import basis as basis_module
from rotorkick import controllability

from rotorkick.basis import ALIGNMENT, ORIENTATION, Basis, BlockDecomposition, build_basis
from rotorkick.controllability import (
    block_trace_rank,
    controllability_report,
    dims_required,
    fixed_point_analysis,
    is_kick_stationary,
    lie_closure,
    two_level_obstruction,
)
from rotorkick.errors import ConfigError, NumericalError
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
# D' at the cutoffs past the reference tables; the oracle's count reaches it at each
RESTRICTED = {
    (ORIENTATION, 6): 134,
    (ORIENTATION, 7): 197,
    (ORIENTATION, 8): 277,
    (ORIENTATION, 9): 376,
    (ALIGNMENT, 7): 91,
    (ALIGNMENT, 8): 130,
    (ALIGNMENT, 9): 178,
    (ALIGNMENT, 10): 237,
}


def _two_level_system():
    basis = Basis(j_max=1, j_values=[0, 1], m_values=[0, 0])
    h0 = h0_matrix(basis)
    c = cos_theta_matrix(basis)
    kick = KickSpec(amplitude=2.0, kind=ORIENTATION, operator=c)
    return basis, h0, c, kick


def _line_basis(n):
    """n states of one m, so that from_matrix keeps any n x n matrix in one block."""
    return Basis(j_max=n - 1, j_values=np.arange(n), m_values=np.zeros(n, dtype=int))


def _operators(basis, matrices, blocks=None):
    return [HermitianOperator.from_matrix(basis, m, blocks) for m in matrices]


def _dense_elements(blocks, elements):
    return [blocks.scatter(e) for e in elements]


def test_closure_of_commuting_diagonals():
    basis = _line_basis(3)
    d1, d2, d3 = _operators(basis, [np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 4.0, 6.0]), np.diag([1.0, 0.0, -1.0])])
    dim, _ = float_lie_closure([d1, d2])  # d2 is parallel to d1
    assert dim == 1
    dim, _ = float_lie_closure([d1, d3])
    assert dim == 2


def test_closure_rejects_non_skew_input():
    # i H is skew-Hermitian exactly when H is Hermitian, which the operator checks
    with pytest.raises(ValueError, match="not Hermitian"):
        float_lie_closure(_operators(_line_basis(2), [1j * np.eye(2)]))


def test_closure_rejects_operators_on_different_blocks():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    with pytest.raises(ValueError, match="one block decomposition"):
        float_lie_closure([h0, observable_matrix(basis, ALIGNMENT)])


def test_closure_scaling_invariance():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    c = cos_theta_matrix(basis)
    dim_a, _ = float_lie_closure([h0, c])
    dim_b, _ = float_lie_closure([HermitianOperator(basis, h0.blocks, 2 * h0.stack), c])
    assert dim_a == dim_b == 12


def test_closure_deterministic():
    basis = build_basis(2)
    h0 = h0_matrix(basis)
    c = cos_theta_matrix(basis)
    dim1, elems1 = float_lie_closure([h0, c])
    dim2, elems2 = float_lie_closure([h0, c])
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


@pytest.mark.parametrize("kind, j_max, r", [(kind, j, 1 if kind == ORIENTATION else 2) for kind, j in RESTRICTED])
def test_closure_reaches_restricted_count_at_larger_cutoffs(kind, j_max, r):
    dim, rows = grouped_count(rational_observable(j_max, kind))
    assert dim == len(rows) == RESTRICTED[kind, j_max] == dims_required(j_max, r, kind)[1]


@pytest.mark.parametrize("kind, j_max", [(ORIENTATION, j) for j in range(1, 11)] + [(ALIGNMENT, j) for j in range(1, 12)])
def test_closed_form_equals_the_count(kind, j_max):
    dim, r = lie_closure(j_max, kind)
    assert r == block_trace_rank(j_max, kind)
    assert dim == grouped_count(rational_observable(j_max, kind))[0]


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_the_certificate_holds_and_gives_the_closed_form(kind):
    # the block and pair checks pass, and their count is lie_closure's closed form
    for j_max in [*range(1, 61), 209]:
        assert certified_closure(j_max, kind) == lie_closure(j_max, kind)
        assert trace_rank(rational_observable(j_max, kind)) == block_trace_rank(j_max, kind)


def test_square_traces_are_reduced_and_exact():
    # equal pairs must mean equal traces, so every fraction comes back in lowest terms; the trace rank's sums too
    for band in rational_observable(12, ALIGNMENT):
        for q in (1, 2, 3):
            p, d = square_trace(band.edges, q)
            assert d > 0 and math.gcd(p, d) == 1
            assert Fraction(p, d) == sum(Fraction(w ** (4 * q) * a, b) for w, a, b in band.edges)
        p, d = reduced_sum(band.diagonal)
        assert d > 0 and math.gcd(p, d) == 1
        assert Fraction(p, d) == sum(Fraction(a, b) for a, b in band.diagonal)


def test_pair_check_computes_each_band_trace_once(monkeypatch):
    real, seen = oracles.square_trace, []

    def counted(edges, q):
        seen.append((id(edges), q))
        return real(edges, q)

    monkeypatch.setattr(oracles, "square_trace", counted)
    certified_closure(40, ALIGNMENT)
    assert len(seen) == len(set(seen)) > 0


def _orientation_band(**change):
    """The m = 0 band of orientation j_max = 2 from rational_observable, with the given fields replaced."""
    band = rational_observable(2, ORIENTATION)[0]
    assert band.js == [0, 1, 2] and band.edges == [(2, 1, 3), (4, 4, 15)]
    return replace(band, **change)


@pytest.mark.parametrize(
    "bands, counted, message",
    [
        # two copies of one block: the algebra is the diagonal copy of gl(3) on them, not sl(3) + sl(3) + r
        ([_orientation_band(), _orientation_band()], 9, "the blocks m=0 from j=0 and m=0 from j=0 may be linked"),
        # a zero coupling splits the block: gl(2) on slots 1 and 2, where H0 is 2 + diag(0, 4), not sl(3) + r
        ([_orientation_band(edges=[(2, 0, 3), (4, 4, 15)])], 4, "the block m=0 from j=0 has a zero coupling"),
        # equal |w|: H0 = diag(2, 6, 2) and O = all ones beside the diagonal both commute with swapping slots 0
        # and 2, so the algebra is gl(2) on the states even under the swap, O and H0 - 2 vanish on the odd one
        ([_orientation_band(js=[1, 2, 1], edges=[(4, 1, 1), (-4, 1, 1)])], 4, "the block m=0 from j=1 has a zero"),
    ],
    ids=["linked-copies", "zero-coupling", "equal-frequencies"],
)
def test_a_failed_certificate_is_a_numerical_error(bands, counted, message):
    with pytest.raises(NumericalError, match=message):
        certify(bands, 2, ORIENTATION)
    closed_form = sum(len(band.js) ** 2 - 1 for band in bands) + trace_rank(bands)
    assert grouped_count(bands)[0] == counted < closed_form
    if len(bands) == 2:  # one copy passes: the pair check fails
        assert certify(bands[:1], 2, ORIENTATION) == (counted, 1)


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
    dim, _ = float_lie_closure(_operators(_line_basis(4), [h, g]))
    assert dim == 16
    # [h, h] and [h, h^2] vanish but for rounding, which the noise floor rejects
    assert float_lie_closure(_operators(_line_basis(4), [h]))[0] == 1
    assert float_lie_closure(_operators(_line_basis(4), [h, h @ h]))[0] == 2


def test_closure_counts_identical_blocks_once():
    rng = np.random.default_rng(5)
    a = [_random_hermitian(rng, 3), _random_hermitian(rng, 3)]
    other = [_random_hermitian(rng, 3), _random_hermitian(rng, 3)]
    dim_a, _ = float_lie_closure(_operators(_line_basis(3), a))
    assert dim_a == 9
    # two blocks of three states, at m = -1 and m = 1
    pair = Basis(j_max=3, j_values=[1, 2, 3, 1, 2, 3], m_values=[-1, -1, -1, 1, 1, 1])
    blocks = block_decomposition(pair, ORIENTATION)
    assert blocks.filled.sum(axis=-1).tolist() == [3, 3]
    dim_copies, elems = float_lie_closure(_operators(pair, [_block_diag(g, g) for g in a], blocks))
    assert dim_copies == dim_a
    assert np.array_equal(elems[:, 0], elems[:, 1])  # both copies carry the same element
    dense = _dense_elements(blocks, elems)
    gram = np.array([[np.vdot(x, y).real for y in dense] for x in dense])
    assert np.max(np.abs(gram - np.eye(dim_copies))) < 1e-12
    # two generic blocks: su(3) + su(3) plus a two-dimensional trace part
    dim_distinct, _ = float_lie_closure(_operators(pair, [_block_diag(g, h) for g, h in zip(a, other)], blocks))
    assert dim_distinct == 18


def test_closure_basis_is_closed_under_commutators():
    basis = build_basis(3)
    h0 = h0_matrix(basis)
    dim, stacks = float_lie_closure([h0, cos_theta_matrix(basis)])
    assert dim == 27
    elems = _dense_elements(h0.blocks, stacks)
    q = np.array([np.concatenate([e.real.ravel(), e.imag.ravel()]) for e in elems])
    for x in elems:
        for y in elems:
            comm = x @ y - y @ x
            v = np.concatenate([comm.real.ravel(), comm.imag.ravel()])
            assert np.linalg.norm(v - (q @ v) @ q) < 1e-9


@pytest.mark.parametrize("kind, j_max", [(ORIENTATION, j) for j in range(1, 7)] + [(ALIGNMENT, j) for j in range(1, 8)])
def test_screened_closure_matches_sequential_oracle(kind, j_max):
    # brackets with the generators only, screened in groups, against all pairs one at a time
    bands = rational_observable(j_max, kind)
    sizes, generators = generators_mod_p(bands)
    rows = grouped_count(bands)[1]
    assert rows.dtype == np.int64
    assert np.array_equal(rows, sequential_exact_closure(generators, sizes, MODULUS))


def _random_rows(rng, sizes, copies=1):
    """Two random generator rows mod p on blocks of the given sizes, each block repeated copies times."""
    p = MODULUS
    rows = []
    for _ in range(2):
        blocks = [rng.integers(0, p, size=(n, n)) for n in sizes]
        rows.append(np.concatenate([b.ravel() for b in blocks for _ in range(copies)]))
    return np.array(rows, dtype=np.int64)


def test_screened_closure_matches_sequential_oracle_on_generic_blocks():
    rng = np.random.default_rng(13)
    p = MODULUS
    for sizes, copies, dim in (([6], 1, 36), ([4, 3], 1, 25), ([3], 2, 9)):
        generators = _random_rows(rng, sizes, copies)
        blocks = [n for n in sizes for _ in range(copies)]
        rows = grouped_closure(generators, blocks)
        assert len(rows) == dim  # gl(6); gl(4) + gl(3); two equal copies of gl(3) count once
        assert np.array_equal(rows, sequential_exact_closure(generators, blocks, p))


def test_survivor_in_the_span_of_an_earlier_one_of_its_group_is_rejected():
    # the group [c, 3 c + r, r] against the rows r: c and 3 c + r both pass
    # the screen, and pivoting keeps only the first
    p = MODULUS
    rng = np.random.default_rng(17)
    basis, pivots = echelon(rng.integers(0, p, size=(3, 8)))
    c = rng.integers(0, p, size=8)
    r = (5 * basis[0] + 7 * basis[2]) % p
    group = np.array([c, (3 * c + r) % p, r])
    assert ((group - (group[:, pivots] @ basis) % p) % p).any(axis=1).tolist() == [True, True, False]
    rows, grown, new = extend(basis, pivots, group)
    assert len(new) == 1 and len(rows) == 4
    residual = (c - (c[pivots] @ basis) % p) % p
    lead = np.flatnonzero(residual)[0]
    assert np.array_equal(new[0], residual * pow(int(residual[lead]), -1, p) % p)
    # still reduced: every row is 1 at its own pivot and 0 at the others
    assert np.array_equal(rows[:, grown], np.eye(4, dtype=np.int64))


@pytest.mark.parametrize("kind, j_max", [(ORIENTATION, j) for j in range(1, 6)] + [(ALIGNMENT, j) for j in range(1, 7)])
def test_exact_count_matches_float_oracle(kind, j_max):
    basis = build_basis(j_max)
    obs = observable_matrix(basis, kind)
    assert lie_closure(j_max, kind)[0] == float_lie_closure([h0_matrix(basis).regroup(obs.blocks), obs])[0]


@pytest.mark.parametrize("kind, j_max", [(ORIENTATION, 5), (ALIGNMENT, 6), (ORIENTATION, 8)])
def test_exact_basis_is_closed_under_brackets_with_the_generators(kind, j_max):
    p = MODULUS
    bands = rational_observable(j_max, kind)
    sizes, generators = generators_mod_p(bands)
    dim, rows = grouped_count(bands)
    pivots = np.array([np.flatnonzero(row)[0] for row in rows])
    assert np.all(np.diff(pivots) > 0) and np.array_equal(rows[:, pivots], np.eye(dim, dtype=np.int64))
    for x in generators:
        brackets = []
        for f in rows:
            lo, parts = 0, []
            for n in sizes:
                a, b = x[lo : lo + n * n].reshape(n, n), f[lo : lo + n * n].reshape(n, n)
                parts.append((a @ b - b @ a).ravel())
                lo += n * n
            brackets.append(np.concatenate(parts) % p)
        brackets = np.array(brackets)
        assert not np.any((brackets - (brackets[:, pivots] @ rows) % p) % p)
    assert not np.any((generators - (generators[:, pivots] @ rows) % p) % p)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("j_max", range(1, 21))
def test_rational_generators_match_the_float_operators(kind, j_max):
    # T F T^-1, with T built from the float couplings, against the exact entries
    basis = build_basis(j_max)
    obs = observable_matrix(basis, kind)
    h0 = h0_matrix(basis).regroup(obs.blocks)
    kept = np.flatnonzero(obs.blocks.m >= 0)
    exact = rational_observable(j_max, kind)
    assert len(exact) == len(kept)
    for b, band in zip(kept, exact):
        span, n = spans(obs.blocks)[b], len(band.js)
        assert band.m == obs.blocks.m[b] and band.js == basis.j_values[members(obs.blocks)[b]].tolist()
        f = obs.stack[b, span, span].real
        t = np.cumprod(np.concatenate([[1.0], 1.0 / np.diag(f, 1)]))
        similar = t[:, None] * f / t[None, :]
        rational = np.diag([a / d for a, d in band.diagonal])
        rational[range(n - 1), range(1, n)] = [a / d for _, a, d in band.edges]
        rational[range(1, n), range(n - 1)] = 1.0
        assert np.all(np.abs(similar - rational) <= 1e-15 * np.abs(rational))
        energies = [j * (j + 1) for j in band.js]
        assert np.array_equal(h0.stack[b, span, span].real, np.diag(energies))
        assert [w for w, _, _ in band.edges] == np.diff(energies).tolist()


@pytest.mark.parametrize("kind, r", [(ORIENTATION, 1), (ALIGNMENT, 2)])
def test_cutoffs_have_no_ceiling(kind, r):
    # 209 is the first cutoff at which a count in int64 mod 1,000,003 could overflow; the closed form needs no bound
    assert lie_closure(209, kind) == (dims_required(209, r, kind)[1], r)
    with pytest.raises(ConfigError, match="j_max >= 1"):
        lie_closure(0, kind)


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("j_max", [0, -1])
def test_every_exact_count_rejects_a_cutoff_below_1_as_a_config_error(kind, j_max):
    for count in (lie_closure, block_trace_rank, lambda j_max, kind: dims_required(j_max, 1, kind)):
        with pytest.raises(ConfigError, match=f"controllability needs j_max >= 1, got {j_max}"):
            count(j_max, kind)


@pytest.mark.parametrize("j_max", range(1, 7))
def test_block_trace_ranks(j_max):
    assert block_trace_rank(j_max, ORIENTATION) == 1
    assert block_trace_rank(j_max, ALIGNMENT) == 2


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
def test_block_trace_rank_matches_the_float_rank(kind):
    for j_max in range(1, 41):
        basis = build_basis(j_max)
        assert block_trace_rank(j_max, kind) == float_trace_rank(h0_matrix(basis), observable_matrix(basis, kind))


@pytest.mark.parametrize("kind, j_max", [(ORIENTATION, 5), (ALIGNMENT, 6)])
def test_controllability_report_builds_no_float_operator(kind, j_max, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("the report built a float operator")

    expected = controllability_report(j_max, kind)
    monkeypatch.setattr(controllability, "h0_matrix", built)
    monkeypatch.setattr(controllability, "observable_matrix", built)
    assert controllability_report(j_max, kind) == expected


@pytest.mark.parametrize("kind, j_max", [(ORIENTATION, 5), (ALIGNMENT, 6)])
def test_controllability_report_builds_no_basis(kind, j_max, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("the report built a basis or a block decomposition")

    expected = controllability_report(j_max, kind)
    monkeypatch.setattr(basis_module, "_BASES", {})  # no basis built earlier is at hand
    monkeypatch.setattr(Basis, "__post_init__", built)
    monkeypatch.setattr(BlockDecomposition, "__init__", built)
    assert controllability_report(j_max, kind) == expected
    with pytest.raises(AssertionError, match="built a basis"):
        build_basis(j_max)


def test_orientation_trace_entries():
    j_max = 4
    basis = build_basis(j_max)
    h0 = h0_matrix(basis)
    c = cos_theta_matrix(basis)
    assert h0.blocks == c.blocks == block_decomposition(basis, ORIENTATION)
    traces = np.trace(np.array([h0.stack, c.stack]), axis1=-2, axis2=-1).real
    for b, m in enumerate(h0.blocks.m.tolist()):
        expected = float(sum(k * (k + 1) for k in range(abs(m), j_max + 1)))
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


@pytest.mark.parametrize("kind, r", [(ORIENTATION, 1), (ALIGNMENT, 2)])
def test_dims_required_equals_the_sums_over_the_built_blocks(kind, r):
    for j_max in range(1, 41):
        assert dims_required(j_max, r, kind) == decomposed_dims_required(j_max, r, kind)


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


def test_fixed_point_frequency_shared_by_two_blocks_counts_once():
    # at orientation j_max = 13 the m = 5 and m = 10 cos(theta) blocks both hold the eigenvalues +-1/sqrt(5), so
    # the frequency 2/sqrt(5) occurs in both; taken block by block, the distinct frequencies would give 502
    basis = build_basis(13)
    obs = observable_matrix(basis, ORIENTATION)
    assert fixed_point_analysis(h0_matrix(basis), obs).dim_span == 500
    values = obs.eigensystem[0]
    for b, m in enumerate(obs.blocks.m.tolist()):
        if m in (5, 10):
            spectrum = values[b, obs.blocks.filled[b]]
            for lam in (1 / np.sqrt(5), -1 / np.sqrt(5)):
                assert np.min(np.abs(spectrum - lam)) <= 1e-15


def _synthetic_functional(spectrum, seed=5):
    """A functional with the given spectrum and random eigenvectors, with the rotor H0 on len(spectrum) states."""
    n = len(spectrum)
    basis = Basis(j_max=n - 1, j_values=np.arange(n), m_values=np.zeros(n, dtype=int))
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
