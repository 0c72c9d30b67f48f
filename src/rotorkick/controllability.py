"""Lie-algebra controllability tests and fixed-point diagnostics.

The dynamical Lie algebra generated by i*H0 and i*O decides whether every
invariant block can be steered independently by the one shared control
field.  Simultaneous controllability of all blocks requires one dimension
count; exploiting the identical dynamics of the m and -m blocks relaxes it
to a smaller count.  A separate count characterizes the fixed points of
the greedy kick iteration: states commuting with the driving functional are
the only fixed points exactly when the span of the kick-rotated slope
operators saturates its commutant-complement bound.  That span is read off
in closed form from the frequency components of the slope operator in the
functional's eigenbasis.  Both work block by block on the operators'
invariant-block stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ORIENTATION, block_decomposition, build_basis, check_process_kind
from .errors import NumericalError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    cluster_labels,
    eigenvalue_multiplicities,
    h0_matrix,
    observable_matrix,
)

RANK_TOL = 1e-10
STATIONARY_TOL = 1e-10
# Lie-closure candidates built and screened together: enough to spread the
# Python work of a group thin, few enough to keep its temporaries small.
GROUP = 64
# The most multiply-adds in one matrix product of the screen.  OpenBLAS runs
# a product this small on the calling thread (65536 times its
# GEMM_MULTITHREAD_THRESHOLD of 4).  A threaded product waits for every core
# it was split over, so on a virtual machine that loses one core for a while
# a closure stalls for up to a second.
SERIAL_PRODUCT = 2**18


def _commutators(xs: np.ndarray, ys: np.ndarray, layout) -> np.ndarray:
    """Compact [xs[i], ys[i]] for every row i, one batched matmul per distinct block.

    For skew-Hermitian x and y, y x = (x y)+, so [x, y] = x y - (x y)+, which
    is skew-Hermitian to the last bit.
    """
    out = np.empty_like(ys)
    for lo, hi, size, scale in layout:
        a = xs[:, lo:hi].reshape(-1, size, size)
        b = ys[:, lo:hi].reshape(-1, size, size)
        # rows hold sqrt(copies) times the block, so the weighted commutator is [a, b] / sqrt(copies)
        ab = scale * (a @ b)
        out[:, lo:hi] = (ab - ab.conj().transpose(0, 2, 1)).reshape(len(ys), hi - lo)
    return out


def _residuals(candidates: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The candidates less their projections onto the orthonormal rows q, by classical Gram-Schmidt.

    q is taken a few rows at a time, so that each product stays within
    SERIAL_PRODUCT multiply-adds where one row allows it.
    """
    res = candidates.copy()
    step = max(1, SERIAL_PRODUCT // max(1, candidates.size))
    for lo in range(0, len(q), step):
        part = q[lo : lo + step]
        res -= (candidates @ part.T) @ part
    return res


def _survivors(q: np.ndarray, candidates: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the candidates whose residual against the rows q passes the test of _orthonormalize.

    The same classical Gram-Schmidt applied twice, on all candidates at
    once.  Another pass, or more rows, can only shrink a residual, so a
    candidate that fails here fails there, and the second pass runs only on
    the candidates that pass the first.
    """
    bound = tol * np.linalg.norm(candidates, axis=1)
    res = _residuals(candidates, q)
    live = np.flatnonzero(np.linalg.norm(res, axis=1) > bound)
    return live[np.linalg.norm(_residuals(res[live], q), axis=1) > bound[live]]


def _orthonormalize(rows: np.ndarray, dim: int, candidate: np.ndarray, tol: float) -> int:
    """Store the normalized residual of candidate against rows[:dim] unless it is negligible.

    Classical Gram-Schmidt applied twice; the residual is judged relative to
    the candidate's own norm.  Returns the new number of rows.
    """
    scale = np.sqrt(candidate @ candidate)
    if scale == 0.0:
        return dim
    q = rows[:dim]
    res = candidate - (q @ candidate) @ q
    res -= (q @ res) @ q
    norm = np.sqrt(res @ res)
    if norm <= tol * scale:
        return dim
    rows[dim] = res / norm
    return dim + 1


def _grow(elems: np.ndarray, excluded: int, dim: int, fresh: np.ndarray, layout, tol: float) -> int:
    """Add to elems every independent commutator of an element with the previous round's new ones.

    Rounds run until one adds nothing.  Within a round the candidates
    [x, f] come x-major, f-minor, GROUP at a time: a group is built by one
    batched commutator and screened against the rows found before it, and
    only its survivors go through _orthonormalize one by one, in order, so
    every accepted row is the one the one-at-a-time loop would accept.
    Returns the new number of rows.
    """
    rows = elems.view(np.float64)
    while len(fresh):
        start = dim
        count = (start - excluded) * len(fresh)
        for first in range(0, count, GROUP):
            x, f = np.divmod(np.arange(first, min(first + GROUP, count)), len(fresh))
            candidates = _commutators(elems[excluded + x], fresh[f], layout).view(np.float64)
            for k in _survivors(rows[:dim], candidates, tol):
                dim = _orthonormalize(rows, dim, candidates[k], tol)
        fresh = elems[start:dim]
    return dim


def lie_closure(operators: list[HermitianOperator], tol: float = RANK_TOL) -> tuple[int, np.ndarray]:
    """Dimension and orthonormal basis of the real Lie algebra generated by i H for the operators H.

    Repeatedly commutes every basis element with the elements found in the
    previous round, orthonormalizes under the trace inner product
    Re Tr[X+ Y], and keeps residuals whose relative norm exceeds tol.  The
    count is a real dimension, as for u(N).  The operators must share one
    block decomposition (ValueError otherwise), on whose blocks every
    commutator stays.  Blocks on which every operator is the same
    (BlockDecomposition.copies), such as the m and -m blocks of the rotor,
    carry the same restriction of the whole algebra, so the arithmetic runs
    on one copy of each, weighted by the square root of its number of
    copies so that inner products equal those of the full matrices.  The
    skew-Hermitian basis elements are returned as block stacks laid out
    like the operators' stacks, with a leading axis of length dim.
    """
    if not operators:
        return 0, np.zeros((0, 0, 0, 0), dtype=complex)
    blocks = operators[0].blocks
    if any(op.blocks != blocks for op in operators):
        raise ValueError("lie_closure needs operators on one block decomposition; regroup them first")
    keep, source = blocks.copies([op.stack for op in operators])
    distinct = np.flatnonzero(keep)
    weights = np.sqrt(np.bincount(source))
    sizes = blocks.filled[keep].sum(axis=1)
    layout = []
    width = 0
    for size, weight in zip(sizes, weights):
        layout.append((width, width + size * size, size, 1.0 / weight))
        width += size * size
    compact = np.array(
        [
            np.concatenate([w * (1j * op.stack[b, :k, :k]).ravel() for b, k, w in zip(distinct, sizes, weights)])
            for op in operators
        ]
    )
    # Basis rows in compact complex form; the float view interleaves [Re, Im],
    # so a dot product of two rows is Re Tr[X+ Y].  No more than 2 * width
    # real vectors can be orthonormal.
    elems = np.zeros((2 * width, width), dtype=complex)
    rows = elems.view(np.float64)

    # Commutators are traceless on every block, so the block traces of any
    # element lie in the span of the generators' block traces.  The other
    # trace directions lead the rows as fixed, excluded directions.  Left in,
    # the rounding along them grows each time a small residual is normalized:
    # rejected residuals at orientation j_max = 7 reach 6e-11, and alignment
    # j_max = 8 closes at 133, above D' = 130.
    traces = np.zeros((len(distinct), width), dtype=complex)
    for b, (lo, hi, size, _) in enumerate(layout):
        traces[b, lo:hi] = 1j * np.eye(size).ravel() / np.sqrt(size)
    units = traces.view(np.float64)
    left, s, _ = np.linalg.svd(units @ compact.view(np.float64).T)
    rank = int(np.sum(s > tol * s[0]))
    excluded = len(distinct) - rank
    rows[:excluded] = left[:, rank:].T @ units

    dim = excluded
    accepted = []
    for g in compact:  # the first round commutes with the raw, unnormalized generators
        grown = _orthonormalize(rows, dim, g.view(np.float64), tol)
        if grown > dim:
            accepted.append(g)
        dim = grown
    dim = _grow(elems, excluded, dim, np.array(accepted), layout, tol)
    found = elems[excluded:dim]

    size = blocks.slots.shape[1]
    one_copy = np.zeros((len(found), len(distinct), size, size), dtype=complex)
    for d, (lo, hi, k, scale) in enumerate(layout):
        one_copy[:, d, :k, :k] = scale * found[:, lo:hi].reshape(-1, k, k)
    return len(found), one_copy[:, source]


def block_trace_rank(j_max: int, kind: str) -> int:
    """Rank of the per-block trace matrix [Tr H0 | Tr O] over the invariant blocks.

    Orientation blocks are the m subspaces; alignment additionally resolves
    the parity of j.  cos(theta) is traceless in every block, so the
    orientation rank is 1; the alignment matrix carries two independent
    columns.
    """
    check_process_kind(kind)
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    return _trace_rank(*_generators(j_max, kind))


def _generators(j_max: int, kind: str) -> tuple[HermitianOperator, HermitianOperator]:
    """H0 and the observable of the process, both on the observable's blocks."""
    basis = build_basis(j_max)
    obs = observable_matrix(basis, kind)
    return h0_matrix(basis).regroup(obs.blocks), obs


def _trace_rank(h0: HermitianOperator, obs: HermitianOperator) -> int:
    """Rank of [Tr H0 | Tr O] over the blocks the two operators share, read off their stack diagonals."""
    t = np.trace(np.array([h0.stack, obs.stack]), axis1=-2, axis2=-1).real.T
    s = np.linalg.svd(t, compute_uv=False)
    return int(np.sum(s > RANK_TOL * s[0]))


def dims_required(j_max: int, r: int, kind: str = ORIENTATION) -> tuple[int, int]:
    """Lie-algebra dimensions demanded for simultaneous controllability.

    Both counts are r plus size^2 - 1 summed over invariant blocks.  The
    first takes every m block independently; the second exploits the
    m <-> -m symmetry and only counts the process's blocks with m >= 0 (for
    alignment, the parity-resolved sub-blocks).
    """
    check_process_kind(kind)
    if j_max < 1 or r < 1:
        raise ValueError("j_max and r must be at least 1")
    basis = build_basis(j_max)
    d_general = r + sum(b.size**2 - 1 for b in block_decomposition(basis, ORIENTATION).blocks)
    d_restricted = r + sum(b.size**2 - 1 for b in block_decomposition(basis, kind).blocks if b.m >= 0)
    return d_general, d_restricted


@dataclass(frozen=True)
class LieAlgebraReport:
    """Computed algebra dimension versus the simultaneous-controllability counts."""

    j_max: int
    kind: str
    dim_l: int
    rank: int
    dim_required: int
    dim_required_restricted: int

    @property
    def simultaneous(self) -> bool:
        return self.dim_l == self.dim_required

    @property
    def restricted_simultaneous(self) -> bool:
        return self.dim_l == self.dim_required_restricted

    def to_jsonable(self) -> dict:
        return {
            "j_max": self.j_max,
            "process": self.kind,
            "dim_L": self.dim_l,
            "r": self.rank,
            "D": self.dim_required,
            "D_prime": self.dim_required_restricted,
            "simultaneous": self.simultaneous,
            "restricted_simultaneous": self.restricted_simultaneous,
        }


def controllability_report(j_max: int, kind: str) -> LieAlgebraReport:
    """Close the algebra of the rotor generators and compare with the required counts.

    D' bounds the dimension from above, so a larger computed dimension is a
    numerical failure and raises NumericalError.
    """
    h0, obs = _generators(j_max, kind)
    dim_l, _ = lie_closure([h0, obs])
    r = _trace_rank(h0, obs)
    d, d_prime = dims_required(j_max, r, kind)
    if dim_l > d_prime:
        raise NumericalError(
            f"Lie closure at j_max={j_max} ({kind}) found dimension {dim_l}, above the bound D'={d_prime}"
        )
    return LieAlgebraReport(
        j_max=j_max,
        kind=kind,
        dim_l=dim_l,
        rank=r,
        dim_required=d,
        dim_required_restricted=d_prime,
    )


@dataclass(frozen=True)
class TwoLevelReport:
    """The pair of two-level blocks at m = +-(j_max - 1) that blocks simultaneous control."""

    j_max: int
    coupling: float  # off-diagonal cos(theta) element, same in both blocks
    e0: float
    e1: float
    gap_plus: float
    gap_minus: float

    @property
    def gaps_equal(self) -> bool:
        return self.gap_plus == self.gap_minus


def two_level_obstruction(j_max: int) -> TwoLevelReport:
    """Extract the m = +-(j_max - 1) two-level blocks and verify their equal gaps.

    Two uncoupled two-level systems with identical transition frequencies and
    identical couplings cannot be steered independently by one shared field.
    """
    if j_max <= 1:
        raise ValueError("two-level obstruction needs j_max > 1")
    basis = build_basis(j_max)
    obs = observable_matrix(basis, ORIENTATION)
    energies = h0_matrix(basis).diagonal
    block, slot = obs.blocks.places
    m = j_max - 1
    couplings = []
    gaps = []
    for sign in (1, -1):
        a = basis.index_of(j_max - 1, sign * m)
        b = basis.index_of(j_max, sign * m)
        couplings.append(float(obs.stack[block[a], slot[a], slot[b]].real))
        gaps.append(float(energies[b] - energies[a]))
    e0 = float(energies[basis.index_of(j_max - 1, m)])
    e1 = float(energies[basis.index_of(j_max, m)])
    if not abs(couplings[0] - couplings[1]) <= 1e-15:
        raise NumericalError(f"m = +-{m} couplings differ: {couplings[0]!r} and {couplings[1]!r}")
    if not abs(couplings[0] - 1.0 / np.sqrt(2 * j_max + 1)) <= 1e-12:
        raise NumericalError(f"m = {m} coupling {couplings[0]!r} is not 1/sqrt(2 j_max + 1)")
    return TwoLevelReport(
        j_max=j_max,
        coupling=couplings[0],
        e0=e0,
        e1=e1,
        gap_plus=gaps[0],
        gap_minus=gaps[1],
    )


def _slope_frequencies(
    h0: HermitianOperator, functional: HermitianOperator
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The slope operator C = i[H0, B] in B's eigenbasis, entry by entry, with frequency clusters.

    In block b of B, with eigenvectors v_b, entry (k, l) is
    C_kl = -i w_kl (v_b+ H0_b v_b)_kl with w_kl = lambda_k - lambda_l, and
    the kick U(a) = exp(i a B) turns it into exp(-i a w_kl) C_kl.  So
    U(a)+ C U(a) = sum_w exp(-i a w) C_w, where C_w keeps the entries at
    frequency w.  H0 must couple no two blocks of B (ValueError), so
    neither does C.  Returns the entries of the filled within-block pairs
    (k, l), flattened block by block, their cluster labels (ascending in
    w), the label of w = 0 (labels above it are the positive frequencies)
    and the mask of those pairs in a block stack.
    """
    values, vectors = functional.eigensystem
    filled = functional.blocks.filled
    pairs = filled[:, :, None] & filled[:, None, :]
    w = (values[:, :, None] - values[:, None, :])[pairs]
    h = h0.regroup(functional.blocks, "h0").stack
    c = -1j * w * (vectors.conj().transpose(0, 2, 1) @ h @ vectors)[pairs]
    labels = cluster_labels(w, np.max(np.abs(values), initial=0.0))
    return c, labels, int(labels[0]), pairs  # entry (0, 0) of block 0 sits at w = 0 exactly


@dataclass(frozen=True)
class FixedPointReport:
    """Span of the rotated slope operators versus its commutant-complement bound."""

    dim: int
    dim_span: int
    multiplicities: tuple[int, ...]
    commutant_dim: int
    bound: int  # N^2 - sum(n_i^2)

    @property
    def saturated(self) -> bool:
        """True when only states commuting with the functional are fixed points."""
        return self.dim_span == self.bound

    def to_jsonable(self) -> dict:
        return {
            "N": self.dim,
            "dim_span": self.dim_span,
            "multiplicities": list(self.multiplicities),
            "commutant_dim": self.commutant_dim,
            "bound": self.bound,
            "saturated": self.saturated,
        }


def fixed_point_analysis(
    h0: HermitianOperator,
    functional: HermitianOperator,
    tol: float = RANK_TOL,
) -> FixedPointReport:
    """Dimension of span{ U(a)+ i[H0, B] U(a) : a real } against N^2 - sum of squared multiplicities.

    B is the driving functional and U(a) = exp(i a B) the kick it generates.
    The span is the real span of the frequency components C_w of the slope
    operator: each w > 0 with C_w != 0 contributes C_w + C_w+ and
    i(C_w - C_w+), and C_0 vanishes.  A component counts when its norm
    exceeds tol times the norm of C.  B-commuting states annihilate every
    spanning operator, so the span can never exceed the complement of B's
    commutant; saturation means those states are the only stationary ones.
    """
    c, labels, zero, _ = _slope_frequencies(h0, functional)
    norms = np.sqrt(np.bincount(labels, weights=np.abs(c) ** 2))
    total = float(np.linalg.norm(c))
    dim_span = 2 * int(np.sum(norms[zero + 1 :] > tol * total)) if total > 0 else 0
    n = functional.dim
    mult = tuple(eigenvalue_multiplicities(functional))
    commutant = int(sum(k**2 for k in mult))
    return FixedPointReport(
        dim=n,
        dim_span=dim_span,
        multiplicities=mult,
        commutant_dim=commutant,
        bound=n * n - commutant,
    )


def is_kick_stationary(
    rho: DensityMatrix,
    h0: HermitianOperator,
    functional: HermitianOperator,
    tol: float = STATIONARY_TOL,
) -> bool:
    """True when the functional slope of rho vanishes after every kick of the family exp(i a B).

    The slope after a kick of amplitude a is Tr[rho U(a)+ C U(a)] =
    sum_w exp(-i a w) Tr[rho C_w], which vanishes for every a exactly when
    |Tr[rho C_w]| <= tol at every frequency w.  Fixed points of the greedy
    iteration all pass this test.
    """
    c, labels, _, pairs = _slope_frequencies(h0, functional)
    v = functional.eigensystem[1]
    seen = rho.regroup(functional.blocks, "state", np.inf).stack  # C couples no two blocks of B
    terms = (v.conj().transpose(0, 2, 1) @ seen @ v).transpose(0, 2, 1)[pairs] * c  # rho_lk C_kl
    traces = np.bincount(labels, weights=terms.real) + 1j * np.bincount(labels, weights=terms.imag)
    return bool(np.all(np.abs(traces) <= tol))
