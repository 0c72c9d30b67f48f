"""Operators on the truncated rotor basis: dense, or as stacks of invariant blocks.

Internal units: hbar = 1, energies in units of the rotational constant B,
time in units of 1/B.  The field-free spectrum j(j+1) then has purely even
integer level spacings, so free evolution is periodic with period pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .basis import ALIGNMENT, ORIENTATION, Basis, BlockDecomposition, block_decomposition, single_block
from .errors import NumericalError

HERM_TOL = 1e-12
PSD_TOL = 1e-10
UNITARITY_TOL = 1e-10
CLUSTER_TOL = 1e-12  # relative gap below which eigenvalues or frequencies coincide


def _as_locked_complex(matrix) -> np.ndarray:
    mat = np.array(matrix, dtype=complex)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense Hermitian matrix over a basis, with optional invariant-block metadata."""

    basis: Basis
    matrix: np.ndarray
    blocks: BlockDecomposition | None = None

    def __post_init__(self) -> None:
        mat = _as_locked_complex(self.matrix)
        object.__setattr__(self, "matrix", mat)
        n = self.basis.dim
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match basis dimension {n}")
        dev = np.max(np.abs(mat - mat.conj().T)) if n else 0.0
        if dev > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")
        if self.blocks is not None:
            off = self.blocks.coupling_mask(n)
            if np.any(mat[off] != 0):
                raise ValueError("matrix couples states in different blocks")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, eigenvector columns)."""
        return _eigh(self.matrix)

    @cached_property
    def block_form(self) -> "BlockOperator":
        """The operator as a stack of its invariant blocks (one block without metadata)."""
        blocks = self.blocks if self.blocks is not None else single_block(self.dim)
        return BlockOperator(blocks, blocks.gather(self.matrix))

    def block_trace(self, block) -> float:
        return float(sum(self.matrix[k, k].real for k in block.members))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite state with a declared trace.

    The declared trace is 1 for normalized states and can be below 1 for
    states projected out of a larger thermal ensemble.  Spectral data is
    computed lazily and cached; positivity is checked on demand.
    """

    basis: Basis
    matrix: np.ndarray
    trace_target: float = 1.0

    def __post_init__(self) -> None:
        mat = _as_locked_complex(self.matrix)
        object.__setattr__(self, "matrix", mat)
        n = self.basis.dim
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match basis dimension {n}")
        dev = np.max(np.abs(mat - mat.conj().T)) if n else 0.0
        if dev > HERM_TOL:
            raise ValueError(f"state is not Hermitian: max deviation {dev:.3e}")
        tr = float(np.trace(mat).real)
        if abs(tr - self.trace_target) > HERM_TOL * max(1.0, abs(self.trace_target)):
            raise ValueError(f"trace {tr!r} deviates from declared value {self.trace_target!r}")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues descending, matching eigenvector columns)."""
        w, v = np.linalg.eigh(self.matrix)
        return w[::-1].copy(), v[:, ::-1].copy()

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum[0]

    def validate_spectrum(self) -> "DensityMatrix":
        """Check positivity and the 0 <= w_k <= 1 window; returns self for chaining."""
        w = self.eigenvalues
        if w[-1] < -PSD_TOL:
            raise ValueError(f"state has negative eigenvalue {w[-1]:.3e}")
        if w[0] > 1.0 + PSD_TOL:
            raise ValueError(f"state has eigenvalue above one: {w[0]:.6f}")
        return self

    def expectation(self, op: HermitianOperator) -> float:
        """Tr[op rho], real part (the imaginary residue is pure roundoff)."""
        return float(np.sum(op.matrix * self.matrix.T).real)

    def overlap(self, other: "DensityMatrix") -> float:
        """Tr[rho other]."""
        return float(np.sum(self.matrix * other.matrix.T).real)

    def purity(self) -> float:
        return float(np.sum(self.matrix * self.matrix.T).real)

    @property
    def populations(self) -> np.ndarray:
        return np.diag(self.matrix).real


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        n = matrix.shape[-1]
        scale = float(np.max(np.abs(matrix))) if n else 0.0
        raise NumericalError(
            f"eigensolver failed on a {n}x{n} Hermitian matrix (max entry {scale:.3e})"
        ) from exc


def _dagger(stack: np.ndarray) -> np.ndarray:
    return np.swapaxes(stack.conj(), -1, -2)


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Hermitian operator kept as the stack of its invariant blocks.

    stack[b] holds block b of `blocks`, zero-padded to the largest block
    (see BlockDecomposition.slots).
    """

    blocks: BlockDecomposition
    stack: np.ndarray

    def to_matrix(self, stack: np.ndarray) -> np.ndarray:
        """The dense matrix of a stack laid out like this operator's."""
        return self.blocks.scatter(stack)

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

    def with_eigenvalues(self, values: np.ndarray) -> np.ndarray:
        """The stack with this operator's eigenvectors and eigenvalues values[b, k] in block b."""
        v = self.eigensystem[1]
        return (v * values[..., None, :]) @ _dagger(v)


@dataclass(frozen=True, eq=False)
class BlockDensity:
    """A block-diagonal DensityMatrix kept as the stack of its invariant blocks.

    The pulse-train loop propagates this form; to_density() gives the dense
    state back.  stack follows the layout of BlockDecomposition.slots.
    """

    basis: Basis
    blocks: BlockDecomposition
    stack: np.ndarray
    trace_target: float = 1.0

    @classmethod
    def from_density(cls, rho: DensityMatrix, blocks: BlockDecomposition) -> "BlockDensity":
        """Split a state into blocks; ValueError if it couples two of them."""
        return cls(rho.basis, blocks, blocks.gather(rho.matrix, "state"), rho.trace_target)

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.basis, self.blocks.scatter(self.stack), trace_target=self.trace_target)

    def conjugated(self, u: np.ndarray) -> "BlockDensity":
        """u rho u+ for a stack of block unitaries, with the roundoff asymmetry scrubbed."""
        mat = u @ self.stack @ _dagger(u)
        return replace(self, stack=0.5 * (mat + _dagger(mat)))

    @property
    def populations(self) -> np.ndarray:
        return self.blocks.scatter_diagonal(np.diagonal(self.stack, axis1=-2, axis2=-1).real)

    def check_drift(self, where: str) -> None:
        """NumericalError when the trace has drifted from trace_target beyond HERM_TOL.

        Hermiticity needs no check: conjugated() symmetrizes every state.
        """
        trace = float(np.trace(self.stack, axis1=-2, axis2=-1).sum().real)
        if not abs(trace - self.trace_target) <= HERM_TOL * max(1.0, abs(self.trace_target)):
            raise NumericalError(
                f"{where}: state trace drifted to {trace!r} from {self.trace_target!r} (tolerance {HERM_TOL:g})"
            )


def h0_matrix(basis: Basis) -> HermitianOperator:
    """Field-free Hamiltonian: diagonal j(j+1) in units of B."""
    energies = basis.j_values * (basis.j_values + 1)
    return HermitianOperator(basis, np.diag(energies.astype(float)))


def cos_theta_element(j: int, m: int) -> float:
    """<j+1, m|cos(theta)|j, m> between spherical harmonics of equal m."""
    return math.sqrt(((j + 1) ** 2 - m**2) / ((2 * j + 1) * (2 * j + 3)))


def cos_theta_matrix(basis: Basis) -> HermitianOperator:
    """cos(theta) truncated to the basis: couples j <-> j+1 within each m block."""
    n = basis.dim
    mat = np.zeros((n, n))
    for a, s in enumerate(basis.states):
        if basis.contains(s.j + 1, s.m):
            b = basis.index_of(s.j + 1, s.m)
            mat[a, b] = mat[b, a] = cos_theta_element(s.j, s.m)
    return HermitianOperator(basis, mat, blocks=block_decomposition(basis, ORIENTATION))


def cos2_theta_matrix(basis: Basis) -> HermitianOperator:
    """cos^2(theta) truncated to the basis: couples j <-> j, j+-2 within each m block.

    The entries are those of the square of cos(theta) on the basis enlarged
    by one j shell, in closed form: with c(j, m) = cos_theta_element(j, m),
    <j m|cos^2|j m> = c(j-1, m)^2 + c(j, m)^2 (the first term only for
    j > |m|) and <j+2 m|cos^2|j m> = c(j, m) c(j+1, m).
    """
    n = basis.dim
    mat = np.zeros((n, n))
    for a, s in enumerate(basis.states):
        below = cos_theta_element(s.j - 1, s.m) if s.j > abs(s.m) else 0.0
        mat[a, a] = below**2 + cos_theta_element(s.j, s.m) ** 2
        if basis.contains(s.j + 2, s.m):
            b = basis.index_of(s.j + 2, s.m)
            mat[a, b] = mat[b, a] = cos_theta_element(s.j, s.m) * cos_theta_element(s.j + 1, s.m)
    return HermitianOperator(basis, mat, blocks=block_decomposition(basis, ALIGNMENT))


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
    return DensityMatrix(basis, np.diag(weights.astype(complex)), trace_target=trace)


def hermitian_function(op: HermitianOperator, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian operator through its spectral decomposition."""
    w, v = op.eigensystem
    return (v * f(w)) @ v.conj().T


def kick_unitary(op: HermitianOperator | BlockOperator, amplitude: float) -> np.ndarray:
    """exp(i * amplitude * op) from op's eigensystem in each invariant block.

    A BlockOperator gives the stack of block unitaries, a HermitianOperator
    the dense matrix.  Every block is verified unitary to 1e-10.
    """
    form = op.block_form if isinstance(op, HermitianOperator) else op
    u = form.with_eigenvalues(np.exp(1j * amplitude * form.eigensystem[0]))
    dev = float(np.max(np.abs(_dagger(u) @ u - np.eye(u.shape[-1])), initial=0.0))
    if not dev <= UNITARITY_TOL:
        raise NumericalError(f"kick exponential failed unitarity check: {dev:.3e}")
    return u if form is op else form.to_matrix(u)


def embed_density(rho: DensityMatrix, big_basis: Basis) -> DensityMatrix:
    """Zero-pad a state into a larger basis containing all of its states."""
    idx = [big_basis.index_of(s.j, s.m) for s in rho.basis.states]
    mat = np.zeros((big_basis.dim, big_basis.dim), dtype=complex)
    mat[np.ix_(idx, idx)] = rho.matrix
    return DensityMatrix(big_basis, mat, trace_target=rho.trace_target)


def embed_operator(op: HermitianOperator, big_basis: Basis) -> HermitianOperator:
    """Zero-pad an operator into a larger basis: the projected operator P op P."""
    idx = [big_basis.index_of(s.j, s.m) for s in op.basis.states]
    mat = np.zeros((big_basis.dim, big_basis.dim), dtype=complex)
    mat[np.ix_(idx, idx)] = op.matrix
    return HermitianOperator(big_basis, mat)


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
    w = op.eigensystem[0]
    return np.bincount(cluster_labels(w, np.max(np.abs(w), initial=0.0), rel_tol)).tolist()
