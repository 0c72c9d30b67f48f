"""Operators and states on the truncated rotor basis, kept as stacks of invariant blocks.

Internal units: hbar = 1, energies in units of the rotational constant B,
time in units of 1/B.  The field-free spectrum j(j+1) then has purely even
integer level spacings, so free evolution is periodic with period pi.

Every operator of the package conserves m, and cos^2(theta) also the parity
of j, so an operator is stored as the stack of its invariant blocks (see
BlockDecomposition.slots).  This module alone decides which blocks an
operator carries; BlockDecomposition.restack moves a stack between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .basis import (
    ALIGNMENT,
    ORIENTATION,
    PROCESS_KINDS,
    Basis,
    BlockDecomposition,
    block_decomposition,
    single_block,
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

    stack[b] holds block b of `blocks`, zero-padded to the largest block
    (see BlockDecomposition.slots), so no entry couples two blocks.
    from_matrix() restacks a dense matrix; .matrix is the dense view.
    """

    basis: Basis
    blocks: BlockDecomposition
    stack: np.ndarray

    def __post_init__(self) -> None:
        stack = np.array(self.stack, dtype=complex)
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        size = self.blocks.slots.shape[1]
        expected = (self.blocks.n_blocks, size, size)
        if self.blocks.dim != self.basis.dim or stack.shape != expected:
            raise ValueError(
                f"stack shape {stack.shape} does not match the blocks {expected} of a {self.basis.dim}-state basis"
            )
        dev = float(np.max(np.abs(stack - _dagger(stack)), initial=0.0))
        if not dev <= HERM_TOL:  # NaN included
            raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")

    @classmethod
    def from_matrix(cls, basis: Basis, matrix, blocks: BlockDecomposition | None = None, **fields):
        """The operator of a dense (dim, dim) matrix on blocks, by default one block of all states.

        ValueError if the matrix couples two blocks.  fields go to the
        constructor, such as a state's trace_target.
        """
        matrix = np.asarray(matrix)
        if matrix.shape != (basis.dim, basis.dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match basis dimension {basis.dim}")
        whole = single_block(basis.dim)
        blocks = whole if blocks is None else blocks
        return cls(basis, blocks, blocks.restack(matrix[None], whole), **fields)

    def regroup(self, blocks: BlockDecomposition, what: str = "operator", tol: float = 0.0):
        """The same operator on other blocks of its basis: self when they are equal, else restacked.

        Entries coupling two of the new blocks are dropped when none exceeds
        tol in magnitude; otherwise ValueError naming `what`, as for blocks
        of a basis of another size.
        """
        if blocks.dim != self.dim:
            raise ValueError(f"{what} on {self.dim} states cannot move onto the blocks of a {blocks.dim}-state basis")
        if blocks == self.blocks:
            return self
        return replace(self, blocks=blocks, stack=blocks.restack(self.stack, self.blocks, what=what, tol=tol))

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
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Per block (eigenvalues ascending, eigenvector columns).

        Padding slots get eigenvalue 0 and unit eigenvectors, so every
        function of the operator acts as f(0) times the identity there.
        """
        n_blocks, size = self.stack.shape[:2]
        w = np.zeros((n_blocks, size))
        v = np.zeros((n_blocks, size, size), dtype=complex)
        v[:] = np.eye(size)
        for b, block in enumerate(self.blocks.blocks):
            k = block.size
            w[b, :k], v[b, :k, :k] = _eigh(self.stack[b, :k, :k])
        return w, v

    @cached_property
    def _exponentials(self) -> dict[float, np.ndarray]:
        """The latest block stacks of exp(i a op), keyed by a; filled by kick_unitary."""
        return {}

    def with_eigenvalues(self, values: np.ndarray) -> np.ndarray:
        """The stack with this operator's eigenvectors and eigenvalues values[b, k] in block b."""
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
        if np.count_nonzero(self.stack) != np.count_nonzero(np.diagonal(self.stack, axis1=-2, axis2=-1)):
            raise ValueError("h0 must be diagonal in the stored basis")
        return self.diagonal


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
        tr = float(np.trace(self.stack, axis1=-2, axis2=-1).sum().real)
        if not abs(tr - self.trace_target) <= HERM_TOL * max(1.0, abs(self.trace_target)):  # NaN included
            raise ValueError(f"trace {tr!r} deviates from declared value {self.trace_target!r}")

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
        """Tr[op rho], real part; op's entries coupling two of rho's blocks meet zeros and are dropped."""
        seen = op.regroup(self.blocks, "operator", np.inf)
        return float(np.sum(seen.stack * np.swapaxes(self.stack, -1, -2)).real)

    def purity(self) -> float:
        return self.expectation(self)

    def conjugated(self, blocks: BlockDecomposition, u: np.ndarray) -> "DensityMatrix":
        """u rho u+ for a stack u of unitaries on blocks, with the roundoff asymmetry scrubbed.

        A state on other blocks, which may couple those, is conjugated on one
        block of all states.  NumericalError when the trace drifts from
        trace_target beyond HERM_TOL.
        """
        state = self
        if blocks != self.blocks:
            whole = single_block(self.dim)
            state, u = self.regroup(whole), whole.restack(u, blocks)
        mat = u @ state.stack @ _dagger(u)
        try:
            return replace(state, stack=0.5 * (mat + _dagger(mat)))
        except ValueError as exc:  # a unitary keeps the trace, so a deviation is numerical drift
            raise NumericalError(f"kicked state: {exc}") from exc


def _on_m_blocks(basis: Basis, values: np.ndarray) -> tuple[BlockDecomposition, np.ndarray]:
    """The m blocks of the basis, which every operator of the package conserves, and diag(values) on them."""
    blocks = block_decomposition(basis, ORIENTATION)
    d = np.append(values, 0.0)[blocks.slots]  # padding slots read the appended zero
    return blocks, d[..., None] * np.eye(d.shape[-1])


def _ladder(basis: Basis, kind: str, diagonal, step: int, coupling) -> HermitianOperator:
    """Operator on the blocks of a process kind with closed-form entries.

    <j m|X|j m> = diagonal(j, m) and <j+step m|X|j m> = <j m|X|j+step m> =
    coupling(j, m); step keeps both states in one block.
    """
    blocks = block_decomposition(basis, kind)
    block_of, slot_of = (p.tolist() for p in blocks.places)
    size = blocks.slots.shape[1]
    stack = np.zeros((blocks.n_blocks, size, size))
    for a, s in enumerate(basis.states):
        b, k = block_of[a], slot_of[a]
        stack[b, k, k] = diagonal(s.j, s.m)
        if basis.contains(s.j + step, s.m):
            l = slot_of[basis.index_of(s.j + step, s.m)]
            stack[b, k, l] = stack[b, l, k] = coupling(s.j, s.m)
    return HermitianOperator(basis, blocks, stack)


def h0_matrix(basis: Basis) -> HermitianOperator:
    """Field-free Hamiltonian: diagonal j(j+1) in units of B, on the m blocks."""
    return HermitianOperator(basis, *_on_m_blocks(basis, basis.j_values * (basis.j_values + 1.0)))


def cos_theta_element(j: int, m: int) -> float:
    """<j+1, m|cos(theta)|j, m> between spherical harmonics of equal m."""
    return math.sqrt(((j + 1) ** 2 - m**2) / ((2 * j + 1) * (2 * j + 3)))


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

    def diagonal(j: int, m: int) -> float:
        below = cos_theta_element(j - 1, m) if j > abs(m) else 0.0
        return below**2 + cos_theta_element(j, m) ** 2

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


def partition_function(beta: float) -> float:
    """Untruncated rotational partition sum over all (j, m), converged to relative 1e-12."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    total = 0.0
    j0 = 0
    chunk = 4096
    while True:
        js = np.arange(j0, j0 + chunk, dtype=float)
        terms = (2 * js + 1) * np.exp(-beta * js * (js + 1))
        total += float(terms.sum())
        # terms decay super-exponentially once past the peak near 1/sqrt(beta)
        if terms[-1] < total * 1e-18:
            return total
        j0 += chunk
        if j0 > 20_000_000:
            raise NumericalError(f"partition sum did not converge for beta={beta}")


def thermal_state(
    basis: Basis,
    beta: float,
    z_mode: str = "full",
    renormalize: bool = False,
) -> DensityMatrix:
    """Boltzmann state over rotational levels: diagonal exp(-beta j(j+1)) / Z.

    z_mode="full" normalizes with the untruncated partition sum, so the
    projected state carries trace below one (the deficit is the population
    excluded by the cutoff); z_mode="truncated" sums Z over the basis only.
    With renormalize=True the projected state is rescaled to unit trace.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if z_mode not in ("full", "truncated"):
        raise ValueError(f"unknown z_mode {z_mode!r}")
    j = basis.j_values.astype(float)
    boltzmann = np.exp(-beta * j * (j + 1))
    z = partition_function(beta) if z_mode == "full" else float(boltzmann.sum())
    weights = boltzmann / z
    trace = float(weights.sum())
    if renormalize:
        weights = weights / trace
        trace = 1.0
    return DensityMatrix(basis, *_on_m_blocks(basis, weights), trace_target=trace)


def hermitian_function(op: HermitianOperator, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian operator through its spectral decomposition; the dense result."""
    w = op.eigensystem[0]
    filled = op.blocks.filled
    values = np.zeros(w.shape, dtype=complex)
    values[filled] = f(w[filled])
    return op.blocks.scatter(op.with_eigenvalues(values))


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


def _embedded(x: HermitianOperator, big_basis: Basis) -> tuple[BlockDecomposition, np.ndarray]:
    """x's stack zero-padded into a larger basis holding all of x's states.

    The result lives on the big basis's blocks of the same kind as x's, one
    block of all states if x resolves no symmetry.  KeyError if the big
    basis lacks one of x's states.
    """
    kind = x.blocks.kind
    blocks = block_decomposition(big_basis, kind) if kind in PROCESS_KINDS else single_block(big_basis.dim)
    index = np.full(big_basis.dim, x.dim)  # big-basis states outside x's basis read zeros
    index[[big_basis.index_of(s.j, s.m) for s in x.basis.states]] = np.arange(x.dim)
    return blocks, blocks.restack(x.stack, x.blocks, index)


def embed_density(rho: DensityMatrix, big_basis: Basis) -> DensityMatrix:
    """Zero-pad a state into a larger basis containing all of its states."""
    return DensityMatrix(big_basis, *_embedded(rho, big_basis), trace_target=rho.trace_target)


def embed_operator(op: HermitianOperator, big_basis: Basis) -> HermitianOperator:
    """Zero-pad an operator into a larger basis: the projected operator P op P."""
    return HermitianOperator(big_basis, *_embedded(op, big_basis))


def cluster_labels(values: np.ndarray, scale: float, rel_tol: float = CLUSTER_TOL) -> np.ndarray:
    """Cluster index of every value, numbered in ascending order of value.

    Neighbours in sorted order share a cluster when their gap is at most
    rel_tol * max(scale, 1), so a cluster is a chain of such gaps.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    labels = np.empty(values.size, dtype=np.int64)
    labels[order] = np.cumsum(np.diff(ordered, prepend=ordered[:1]) > rel_tol * max(scale, 1.0))
    return labels


def eigenvalue_multiplicities(op: HermitianOperator, rel_tol: float = CLUSTER_TOL) -> list[int]:
    """Multiplicities of the eigenvalues, clustering gaps below rel_tol * max(||op||, 1)."""
    w = op.eigensystem[0][op.blocks.filled]
    return np.bincount(cluster_labels(w, np.max(np.abs(w), initial=0.0), rel_tol)).tolist()
