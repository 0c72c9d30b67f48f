"""Operators and states on the truncated rotor basis, kept as stacks of invariant blocks.

Internal units: hbar = 1, energies in units of the rotational constant B,
time in units of 1/B.  The field-free spectrum j(j+1) then has purely even
integer level spacings, so free evolution is periodic with period pi.

Every operator of the package conserves m, and cos^2(theta) also the parity
of j, so an operator is stored as the stack of its invariant blocks (see
BlockDecomposition.slots), on the layout of the process it belongs to.
This module alone decides which blocks an operator carries.  An operator
with an off-diagonal entry never changes layout; one with none, such as H0
or a thermal state, moves onto other blocks by its diagonal
(HermitianOperator.regroup).  from_matrix is the only dense entry and
.matrix the only dense exit.

It also decides a stack's dtype, which follows the math: H0, the thermal
state, cos(theta), cos^2(theta) and whatever is built from their
eigenvectors are real symmetric and kept as float64 stacks; only the kick
unitaries and the states they conjugate are complex128.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import (
    ALIGNMENT,
    ORIENTATION,
    Basis,
    BlockDecomposition,
    block_decomposition,
    build_basis,
)
from .errors import NumericalError

HERM_TOL = 1e-12
PSD_TOL = 1e-10
UNITARITY_TOL = 1e-10
CLUSTER_TOL = 1e-12  # relative gap below which eigenvalues or frequencies coincide


def _dagger(stack: np.ndarray) -> np.ndarray:
    return np.swapaxes(stack.conj(), -1, -2)


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        n = matrix.shape[-1]
        scale = float(np.max(np.abs(matrix))) if n else 0.0
        raise NumericalError(
            f"eigensolver failed on a {n}x{n} Hermitian matrix (max entry {scale:.3e})"
        ) from exc


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian operator over a basis, kept as the stack of its invariant blocks.

    stack[b] holds block b of `blocks` on its slots, zero-padded (see
    BlockDecomposition.slots), so no entry couples two blocks.  A real
    stack is kept as float64, a complex one as complex128.
    from_matrix() reads a dense matrix; .matrix is the dense view.
    """

    basis: Basis
    blocks: BlockDecomposition
    stack: np.ndarray

    def __post_init__(self) -> None:
        stack = np.array(self.stack, dtype=complex if np.iscomplexobj(self.stack) else float)
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        self._check_shape()
        dev = float(np.max(np.abs(stack - _dagger(stack)), initial=0.0))
        if not dev <= HERM_TOL:  # NaN included
            raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")

    def _check_shape(self) -> None:
        size = self.blocks.slots.shape[1]
        expected = (self.blocks.n_blocks, size, size)
        if self.blocks.dim != self.basis.dim or self.stack.shape != expected:
            raise ValueError(
                f"stack shape {self.stack.shape} does not match the blocks {expected} of a {self.basis.dim}-state basis"
            )

    @classmethod
    def _exact(cls, basis: Basis, blocks: BlockDecomposition, stack: np.ndarray, **fields):
        """An operator on a real or complex stack that is Hermitian by construction.

        Such a stack is filled symmetrically, symmetrized exactly as in
        conjugated, or a Hermitian one scaled entrywise by unit phases
        p_a conj(p_b), which moves |s - s+| by rounding only.  It is taken
        as it is, made read-only and not copied, and its Hermiticity is not
        checked again; its shape (and a state's trace) is.
        """
        op = object.__new__(cls)
        for name, value in {"basis": basis, "blocks": blocks, "stack": stack, **fields}.items():
            object.__setattr__(op, name, value)
        stack.flags.writeable = False
        op._check_shape()
        return op

    @classmethod
    def from_matrix(cls, basis: Basis, matrix, blocks: BlockDecomposition | None = None, **fields):
        """The operator of a dense (dim, dim) matrix on blocks of basis, by default its m blocks.

        ValueError if the matrix couples two blocks or holds NaN, or if it
        or the blocks do not fit the basis.  fields go to the constructor,
        such as a state's trace_target.
        """
        matrix = np.asarray(matrix)
        blocks = block_decomposition(basis, ORIENTATION) if blocks is None else blocks
        if matrix.shape != (basis.dim, basis.dim) or blocks.dim != basis.dim:
            raise ValueError(f"matrix {matrix.shape} or blocks on {blocks.dim} states do not fit {basis.dim} states")
        # padding slots read the zero last row and column
        stack = np.pad(matrix, (0, 1))[blocks.slots[:, :, None], blocks.slots[:, None, :]]
        if not np.array_equal(blocks.scatter(stack), matrix):  # an entry off the blocks, or a NaN
            raise ValueError("matrix couples states in different invariant blocks, or holds NaN")
        return cls(basis, blocks, stack, **fields)

    def regroup(self, blocks: BlockDecomposition, what: str = "operator"):
        """The same operator on blocks of its basis, in the same dtype: self when they are its own.

        Only an operator with no off-diagonal entry moves: it is rebuilt on
        the new blocks from its diagonal.  Any other raises ValueError
        naming `what` and both layouts, as do blocks of a basis of another
        size.
        """
        if blocks.dim != self.dim:
            raise ValueError(f"{what} on {self.dim} states cannot move onto blocks on {blocks.dim} states")
        if blocks == self.blocks:
            return self
        if not self._is_diagonal:
            raise ValueError(
                f"{what} has off-diagonal entries, so it cannot move from {self.blocks.kind} onto {blocks.kind} blocks"
            )
        stack = _diagonal_stack(blocks, self.blocks.scatter_diagonal(np.diagonal(self.stack, axis1=-2, axis2=-1)))
        return replace(self, blocks=blocks, stack=stack)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (dim, dim) matrix, read-only."""
        mat = self.blocks.scatter(self.stack)
        mat.flags.writeable = False
        return mat

    @cached_property
    def _is_diagonal(self) -> bool:
        """True if the stack holds no nonzero (or NaN) entry off its diagonal."""
        return np.count_nonzero(self.stack) == np.count_nonzero(np.diagonal(self.stack, axis1=-2, axis2=-1))

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Per block (eigenvalues ascending, eigenvector columns).

        Each block's eigenvalues and eigenvectors sit on its own slots.
        Padding slots get eigenvalue 0 and unit eigenvectors, so every
        function of the operator acts as f(0) times the identity there.  The
        eigenvectors take the stack's dtype, so a real block goes to the real
        symmetric solver.  A stack with no off-diagonal entry, such as a
        thermal state or H0, reads its eigensystem off the diagonal exactly:
        each block's sorted entries and permutation columns, with no eigh
        call.  Any other stack solves each block that does not fold onto
        its mirror (BlockDecomposition.folded); a folded -m block takes its
        mirror's eigensystem.  solve_eigensystems fills it in for several
        operators at once.
        """
        return _eigensystems([self])[0]

    @cached_property
    def _exponentials(self) -> dict[float, np.ndarray]:
        """The latest block stacks of exp(i a op), keyed by a; filled by kick_unitary."""
        return {}

    def with_eigenvalues(self, values: np.ndarray) -> np.ndarray:
        """The stack with this operator's eigenvectors and eigenvalues values[b, k] in block b; real for real both."""
        v = self.eigensystem[1]
        return (v * values[..., None, :]) @ _dagger(v)

    @property
    def diagonal(self) -> np.ndarray:
        """The real diagonal in the basis."""
        return self.blocks.scatter_diagonal(np.diagonal(self.stack, axis1=-2, axis2=-1).real)

    def energies(self) -> np.ndarray:
        """The diagonal of an operator diagonal in the basis, such as the level energies of H0.

        ValueError if any off-diagonal entry is nonzero.
        """
        if not self._is_diagonal:
            raise ValueError("h0 must be diagonal in the stored basis")
        return self.diagonal


def _sorted_diagonal(blocks: BlockDecomposition, diagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A diagonal stack's eigenvalues read off its (n_blocks, width) diagonal: (values, order).

    values holds each block's entries ascending on its members' slots and
    0 on padding, the exact eigenvalues; order is the permutation of the
    slots that sorts them.
    """
    filled = blocks.filled
    ahead = np.cumsum(filled, axis=-1) == 0  # padding before the members sorts first, the rest last
    order = np.argsort(np.where(filled, diagonal, np.where(ahead, -np.inf, np.inf)), axis=-1, kind="stable")
    return np.take_along_axis(diagonal, order, axis=-1), order


def _eigensystems(ops) -> list[tuple[np.ndarray, np.ndarray]]:
    """The eigensystem of each operator, the blocks of one size and dtype solved across all of them in one eigh call.

    eigh solves a stack of matrices one matrix at a time, so each block
    gets the bits it gets alone.
    """
    systems, copied, pending = [], [], {}
    for op in ops:
        n_blocks, size = op.stack.shape[:2]
        w = np.zeros((n_blocks, size))
        v = np.zeros((n_blocks, size, size), dtype=op.stack.dtype)
        systems.append((w, v))
        if op._is_diagonal:
            # no off-diagonal entry: the sorted diagonal and permutation columns
            w[:], order = _sorted_diagonal(op.blocks, np.diagonal(op.stack, axis1=-2, axis2=-1).real)
            v[np.arange(n_blocks)[:, None], order, np.arange(size)] = 1.0
            continue
        v[:] = np.eye(size)
        filled = op.blocks.filled
        fold = op.blocks.folded([op.stack])
        for b, first, n in zip(np.flatnonzero(~fold), filled.argmax(axis=-1)[~fold], filled.sum(axis=-1)[~fold]):
            span = slice(first, first + n)
            matrix = op.stack[b, span, span]
            pending.setdefault((n, matrix.dtype), []).append((w, v, b, span, matrix))
        copied.append((w, v, fold, op.blocks.mirrors[fold]))
    for group in pending.values():
        matrices = [matrix for *_, matrix in group]
        # a lone block is solved as a view, without np.stack's copy
        values, vectors = _eigh(matrices[0][None] if len(matrices) == 1 else np.stack(matrices))
        for (w, v, b, span, _), wb, vb in zip(group, values, vectors):
            w[b, span], v[b, span, span] = wb, vb
    for w, v, fold, mirror in copied:  # a folded block has its mirror's eigensystem
        w[fold], v[fold] = w[mirror], v[mirror]
    return systems


def solve_eigensystems(ops) -> None:
    """Fill in the eigensystem of every operator in ops that has none yet, as _eigensystems solves them together."""
    todo = [op for op in ops if "eigensystem" not in op.__dict__]
    for op, system in zip(todo, _eigensystems(todo)):
        op.__dict__["eigensystem"] = system  # where cached_property keeps it


def diagonal_eigenvalues(blocks: BlockDecomposition, values: np.ndarray) -> np.ndarray:
    """eigensystem[0] of the operator diag(values) on blocks, for a real basis vector values, without building it."""
    return _sorted_diagonal(blocks, np.append(values, 0.0)[blocks.slots])[0]  # padding slots read the appended zero


@dataclass(frozen=True, eq=False)
class DensityMatrix(HermitianOperator):
    """Hermitian, positive semidefinite state with a declared trace, kept as a block stack.

    The declared trace is 1 for normalized states and can be below 1 for
    states projected out of a larger thermal ensemble.  Spectral data comes
    from the per-block eigensystem and is cached; positivity is checked on
    demand.
    """

    trace_target: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check_trace()

    def _check_trace(self) -> None:
        tr = float(np.trace(self.stack, axis1=-2, axis2=-1).sum().real)
        if not abs(tr - self.trace_target) <= HERM_TOL * max(1.0, abs(self.trace_target)):  # NaN included
            raise ValueError(f"trace {tr!r} deviates from declared value {self.trace_target!r}")

    @classmethod
    def _exact(cls, basis: Basis, blocks: BlockDecomposition, stack: np.ndarray, trace_target: float = 1.0):
        state = super()._exact(basis, blocks, stack, trace_target=trace_target)
        state._check_trace()
        return state

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, descending, from the eigensystem of each block."""
        return np.sort(self.eigensystem[0][self.blocks.filled])[::-1]

    def validate_spectrum(self) -> "DensityMatrix":
        """Check positivity and the 0 <= w_k <= 1 window; returns self for chaining."""
        w = self.eigenvalues
        if w[-1] < -PSD_TOL:
            raise ValueError(f"state has negative eigenvalue {w[-1]:.3e}")
        if w[0] > 1.0 + PSD_TOL:
            raise ValueError(f"state has eigenvalue above one: {w[0]:.6f}")
        return self

    def expectation(self, op: HermitianOperator) -> float:
        """Tr[op rho], real part, on op's blocks, or on rho's for a diagonal op: the other must move there (regroup)."""
        state = self if op._is_diagonal else self.regroup(op.blocks, "state")
        seen = op.regroup(state.blocks, "operator")
        return float(np.sum(seen.stack * np.swapaxes(state.stack, -1, -2)).real)

    def purity(self) -> float:
        return self.expectation(self)

    def conjugated(self, blocks: BlockDecomposition, u: np.ndarray) -> "DensityMatrix":
        """u rho u+ for a stack u of unitaries on blocks, with the roundoff asymmetry scrubbed.

        The state is conjugated on those blocks, where it moves first if it
        is diagonal, as a thermal state is (regroup); a state with an
        off-diagonal entry on other blocks, or on blocks of another basis
        size, raises ValueError.  NumericalError when the trace drifts from
        trace_target beyond HERM_TOL.
        """
        state = self.regroup(blocks, "state")
        mat = u @ state.stack @ _dagger(u)
        try:
            return DensityMatrix._exact(state.basis, state.blocks, 0.5 * (mat + _dagger(mat)), state.trace_target)
        except ValueError as exc:  # a unitary keeps the trace, so a deviation is numerical drift
            raise NumericalError(f"kicked state: {exc}") from exc


def _diagonal_stack(blocks: BlockDecomposition, values: np.ndarray) -> np.ndarray:
    """The stack of diag(values) on blocks, for a basis vector values, in its dtype."""
    n_blocks, size = blocks.slots.shape
    stack = np.zeros((n_blocks, size, size), dtype=values.dtype)
    diagonal = np.arange(size)
    stack[:, diagonal, diagonal] = np.append(values, 0)[blocks.slots]  # padding slots read the appended zero
    return stack


def _ladder(basis: Basis, kind: str, diagonal, step: int, coupling) -> HermitianOperator:
    """Operator on the blocks of a process kind with closed-form entries.

    <j m|X|j m> = diagonal(j, m) and <j+step m|X|j m> = <j m|X|j+step m> =
    coupling(j, m), both evaluated on arrays of (j, m); step keeps both
    states in one block, on neighbouring slots, so the partner of the
    member on slot k is the member on slot k + 1.
    """
    blocks = block_decomposition(basis, kind)
    n_blocks, size = blocks.slots.shape
    j, m = blocks.rows(basis.j_values)[blocks.classes], blocks.m
    stack = np.zeros((n_blocks, size, size))
    b, k = np.nonzero(blocks.filled)
    stack[b, k, k] = diagonal(j[b, k], m[b])
    b, k = np.nonzero(blocks.filled[:, :-1] & blocks.filled[:, 1:])
    stack[b, k, k + 1] = stack[b, k + 1, k] = coupling(j[b, k], m[b])
    return HermitianOperator._exact(basis, blocks, stack)


def level_energies(j: np.ndarray) -> np.ndarray:
    """The field-free energies j(j+1), in units of B, of states with the given j."""
    return j * (j + 1.0)


def h0_matrix(basis: Basis) -> HermitianOperator:
    """Field-free Hamiltonian: diagonal j(j+1) in units of B, on the m blocks."""
    blocks = block_decomposition(basis, ORIENTATION)
    return HermitianOperator._exact(basis, blocks, _diagonal_stack(blocks, level_energies(basis.j_values)))


def squared_cos_theta_element(j, m):
    """cos_theta_element(j, m)^2 as (numerator, denominator) = ((j+1)^2 - m^2, (2j+1)(2j+3)); integer arrays allowed."""
    return (j + 1) ** 2 - m**2, (2 * j + 1) * (2 * j + 3)


def cos_theta_element(j, m):
    """<j+1, m|cos(theta)|j, m> between spherical harmonics of equal m; j and m may be integer arrays."""
    num, den = squared_cos_theta_element(j, m)
    return np.sqrt(num / den)


def cos_theta_matrix(basis: Basis) -> HermitianOperator:
    """cos(theta) truncated to the basis: couples j <-> j+1 within each m block."""
    return _ladder(basis, ORIENTATION, lambda j, m: 0.0, 1, cos_theta_element)


def cos2_theta_matrix(basis: Basis) -> HermitianOperator:
    """cos^2(theta) truncated to the basis: couples j <-> j, j+-2 within each m block.

    The entries are those of the square of cos(theta) on the basis enlarged
    by one j shell, in closed form: with c(j, m) = cos_theta_element(j, m),
    <j m|cos^2|j m> = c(j-1, m)^2 + c(j, m)^2 (the first term only for
    j > |m|) and <j+2 m|cos^2|j m> = c(j, m) c(j+1, m).
    """

    def diagonal(j, m):
        below = np.where(j > abs(m), cos_theta_element(j - 1, m), 0.0)
        # float_power is C pow(), as Python's ** on a float; it is not always the correctly rounded x * x
        return np.float_power(below, 2) + np.float_power(cos_theta_element(j, m), 2)

    return _ladder(
        basis, ALIGNMENT, diagonal, 2, lambda j, m: cos_theta_element(j, m) * cos_theta_element(j + 1, m)
    )


def observable_matrix(basis: Basis, kind: str) -> HermitianOperator:
    """The process observable: cos(theta) for orientation, cos^2(theta) for alignment."""
    if kind == ORIENTATION:
        return cos_theta_matrix(basis)
    if kind == ALIGNMENT:
        return cos2_theta_matrix(basis)
    raise ValueError(f"unknown process kind {kind!r}")


_PARTITION_SUMS: dict[float, float] = {}


def _check_beta(beta: float) -> None:
    if not 0 < beta < np.inf:  # NaN included
        raise ValueError(f"beta must be positive and finite, got {beta}")


def partition_function(beta: float) -> float:
    """Untruncated rotational partition sum over all (j, m), converged to relative 1e-12.

    Each beta is summed once; later calls return the same sum.
    """
    _check_beta(beta)
    if beta in _PARTITION_SUMS:
        return _PARTITION_SUMS[beta]
    total = 0.0
    j0 = 0
    chunk = 4096
    while True:
        js = np.arange(j0, j0 + chunk, dtype=float)
        terms = (2 * js + 1) * np.exp(-beta * js * (js + 1))
        total += float(terms.sum())
        # terms decay super-exponentially once past the peak near 1/sqrt(beta)
        if terms[-1] < total * 1e-18:
            _PARTITION_SUMS[beta] = total
            return total
        j0 += chunk
        if j0 > 20_000_000:
            raise NumericalError(f"partition sum did not converge for beta={beta}")


def boltzmann_weights(j: np.ndarray, beta: float, z_mode: str = "full", renormalize: bool = False):
    """The thermal weights exp(-beta j(j+1)) / Z of states with the given j, and their sum: (weights, trace).

    z_mode="full" divides by the untruncated partition sum, z_mode="truncated"
    by the sum of exp(-beta j(j+1)) over j in its order; with
    renormalize=True the weights are rescaled to sum to one.  thermal_state
    takes its weights from here, the bound sweep its thermal spectra.
    """
    _check_beta(beta)
    if z_mode not in ("full", "truncated"):
        raise ValueError(f"unknown z_mode {z_mode!r}")
    boltzmann = np.exp(-beta * j * (j + 1))
    z = partition_function(beta) if z_mode == "full" else float(boltzmann.sum())
    weights = boltzmann / z
    trace = float(weights.sum())
    if renormalize:
        return weights / trace, 1.0
    return weights, trace


def thermal_state(
    basis: Basis,
    beta: float,
    z_mode: str = "full",
    renormalize: bool = False,
) -> DensityMatrix:
    """Boltzmann state over rotational levels: diagonal exp(-beta j(j+1)) / Z.

    z_mode="full" normalizes with the untruncated partition sum, so the
    projected state carries trace below one (the deficit is the population
    excluded by the cutoff); z_mode="truncated" sums Z over every state with
    j <= basis.j_max.  With renormalize=True the weights are rescaled so that
    those states hold unit trace.  Both sums run over all of them in the
    order of build_basis(basis.j_max), also for a basis that holds only some
    m shells of them; such a state declares the trace of its own states.
    """
    top = basis.j_max
    weights, trace = boltzmann_weights(build_basis(top).j_values, beta, z_mode, renormalize)
    weights = weights[top * (top + 1) // 2 + basis.j_values]  # the m = 0 run holds j = 0..top; a weight depends on j
    if basis.dim != (top + 1) ** 2:  # some states with j <= top are not in the basis
        trace = float(weights.sum())
    blocks = block_decomposition(basis, ORIENTATION)
    return DensityMatrix._exact(basis, blocks, _diagonal_stack(blocks, weights), trace_target=trace)


def kick_unitary(op: HermitianOperator, amplitude: float) -> np.ndarray:
    """exp(i * amplitude * op) as the read-only stack of its block unitaries, laid out like op.stack.

    Built from op's eigensystem in each block, verified unitary to 1e-10,
    and kept with op until another amplitude is asked for, so a train
    builds it once.  For a real op, exp(-i a op) is the complex conjugate
    of exp(i a op) and is kept with it; the conjugate deviates from
    unitarity exactly as much as the checked original.
    """
    cache = op._exponentials
    if amplitude not in cache:
        u = op.with_eigenvalues(np.exp(1j * amplitude * op.eigensystem[0]))
        dev = float(np.max(np.abs(_dagger(u) @ u - np.eye(u.shape[-1])), initial=0.0))
        if not dev <= UNITARITY_TOL:
            raise NumericalError(f"kick exponential failed unitarity check: {dev:.3e}")
        cache.clear()
        cache[amplitude] = u
        if not np.any(op.stack.imag):
            cache.setdefault(-amplitude, u.conj())
        for built in cache.values():
            built.flags.writeable = False
    return cache[amplitude]


def _blocks_of(blocks: BlockDecomposition, of: BlockDecomposition) -> np.ndarray:
    """The block of blocks with each block's (m, class) of `of`; KeyError if one has none."""
    at = blocks.find(of.m, of.classes)
    if np.any(at < 0):
        raise KeyError(f"no block with m={of.m[at < 0][0]} and class {of.classes[at < 0][0]}")
    return at


def _embedded(x: HermitianOperator, big_basis: Basis) -> tuple[BlockDecomposition, np.ndarray]:
    """x's stack zero-padded into a larger basis holding all of x's states.

    The result lives on the big basis's blocks of the same kind as x's, in
    the dtype of x's stack.  A state keeps its slot, so each block of x is
    copied onto the leading slots of the big block of the same (m, parity).
    KeyError if the big basis lacks one of x's states.
    """
    blocks = block_decomposition(big_basis, x.blocks.kind)
    big = np.zeros((blocks.n_blocks,) + 2 * blocks.slots.shape[1:], dtype=x.stack.dtype)
    size = x.stack.shape[1]
    big[_blocks_of(blocks, x.blocks), :size, :size] = x.stack
    return blocks, big


def embed_density(rho: DensityMatrix, big_basis: Basis) -> DensityMatrix:
    """Zero-pad a state into a larger basis containing all of its states."""
    return DensityMatrix._exact(big_basis, *_embedded(rho, big_basis), trace_target=rho.trace_target)


def embed_operator(op: HermitianOperator, big_basis: Basis) -> HermitianOperator:
    """Zero-pad an operator into a larger basis: the projected operator P op P."""
    return HermitianOperator._exact(big_basis, *_embedded(op, big_basis))


def project_operator(op: HermitianOperator, small_basis: Basis) -> HermitianOperator:
    """P op P on a smaller basis of op's states, on its blocks of op's kind: embed_operator's inverse.

    A state keeps its slot, so each block here is the leading slots of
    op's block of the same (m, parity), with the slots it does not fill
    set to zero.  An operator whose entries do not depend on the cutoff,
    such as observable_matrix(build_basis(J), kind), projects onto the
    same operator at any smaller cutoff, bit for bit.  KeyError if op has
    no block of one of the small basis's (m, parity).
    """
    blocks = block_decomposition(small_basis, op.blocks.kind)
    width = blocks.slots.shape[1]
    cut = op.stack[_blocks_of(op.blocks, blocks), :width, :width]
    inside = blocks.filled[:, :, None] & blocks.filled[:, None, :]
    return HermitianOperator._exact(small_basis, blocks, np.where(inside, cut, 0.0))


def cluster_labels(values: np.ndarray, scale: float) -> np.ndarray:
    """Cluster index of every value, numbered in ascending order of value.

    Neighbours in sorted order share a cluster when their gap is at most
    CLUSTER_TOL * max(scale, 1), so a cluster is a chain of such gaps.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    labels = np.empty(values.size, dtype=np.int64)
    labels[order] = np.cumsum(np.diff(ordered, prepend=ordered[:1]) > CLUSTER_TOL * max(scale, 1.0))
    return labels


def eigenvalue_multiplicities(op: HermitianOperator) -> list[int]:
    """Multiplicities of the eigenvalues, clustering gaps below CLUSTER_TOL * max(||op||, 1)."""
    w = op.eigensystem[0][op.blocks.filled]
    return np.bincount(cluster_labels(w, np.max(np.abs(w), initial=0.0))).tolist()
