"""Kinematically optimal targets and attainability bounds for mixed rotor states.

Under purely unitary evolution the best attainable expectation of an
observable from a given state is reached by pairing the sorted spectrum of
the state with the sorted spectrum of the observable, largest with largest.
Restricting to block-respecting unitaries (linearly polarized driving) the
pairing is carried out inside every invariant block separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BlockDecomposition, block_decomposition, build_basis
# global_max is not called here; it stays importable as target.global_max, where the perfbench tracer patches it
from .evolution import FrequencyLattice, LevelSetMeasure, TraceSeries, global_max, measure_above  # noqa: F401
from .operators import DensityMatrix, HermitianOperator, h0_matrix, observable_matrix, thermal_state

GLOBAL_SCOPE = "global"
BLOCKWISE_SCOPE = "blockwise"

_OFF_BLOCK_TOL = 1e-12


@dataclass(frozen=True)
class PairingResult:
    """Optimal assignment of state weights to observable eigenvalues.

    permutation[k] is the index (into the weight list as given) paired with
    the k-th eigenvalue as given; value is the achieved expectation.
    """

    permutation: tuple[int, ...]
    value: float


def optimal_pairing(weights, eigenvalues) -> PairingResult:
    """Pair the k-th largest weight with the k-th largest eigenvalue.

    Ties break by input position (stable), so the result is deterministic.
    """
    perm, value = _pairing(weights, eigenvalues)
    return PairingResult(permutation=tuple(perm.tolist()), value=value)


def _pairing(weights, eigenvalues) -> tuple[np.ndarray, float]:
    """optimal_pairing's permutation as an index array, and its value."""
    w = np.asarray(weights, dtype=float)
    x = np.asarray(eigenvalues, dtype=float)
    if w.shape != x.shape or w.ndim != 1:
        raise ValueError(f"weights and eigenvalues must be equal-length vectors, got {w.shape} and {x.shape}")
    if w.size and (w.min() < -1e-9 or w.max() > 1 + 1e-9):
        raise ValueError("weights must lie in [0, 1]")
    order_w = np.argsort(-w, kind="stable")
    order_x = np.argsort(-x, kind="stable")
    perm = np.empty(w.size, dtype=int)
    perm[order_x] = order_w
    return perm, float(np.dot(x[order_x], w[order_w]))


@dataclass(frozen=True, eq=False)
class TargetState:
    """Density matrix commuting with the observable that realizes a kinematical bound."""

    rho: DensityMatrix
    scope: str  # "global" (any unitary) or "blockwise" (block-respecting unitaries)
    achieved: float


def _paired_weights(
    rho0: DensityMatrix, obs: HermitianOperator, blocks: BlockDecomposition | None
) -> tuple[HermitianOperator, np.ndarray, np.ndarray]:
    """The observable on the pairing's blocks, and the weights w paired with its eigenvalues chi there.

    The bound the pairing reaches is sum(w * chi); see build_target.
    """
    if rho0.basis is not obs.basis and rho0.basis != obs.basis:
        raise ValueError("state and observable live on different bases")
    if blocks is None:
        form = obs
        chi = form.eigensystem[0]
        filled = form.blocks.filled
        weights = rho0.eigenvalues
        # eigenvalues flattened in block order: the stable pairing keeps basis order on ties
        w = np.zeros_like(chi)
        w[filled] = weights[_pairing(weights, chi[filled])[0]]
    else:
        form = obs.regroup(blocks, "observable", _OFF_BLOCK_TOL)
        chi = form.eigensystem[0]
        # ascending in each block, like chi: largest meets largest
        w = rho0.regroup(blocks, "state", _OFF_BLOCK_TOL).eigensystem[0]
    return form, w, chi


def build_target(
    rho0: DensityMatrix,
    obs: HermitianOperator,
    blocks: BlockDecomposition | None = None,
) -> TargetState:
    """Assemble the state maximizing Tr[obs rho] over unitaries acting on rho0.

    The target is built on the eigenvectors of obs in each of its invariant
    blocks, weighted with eigenvalues of rho0.
    With blocks=None every unitary is admissible: the whole spectrum of
    rho0, sorted, is paired with the eigenvalues of all blocks, sorted.
    With a block decomposition both inputs must be block diagonal in it
    (off-block entries up to 1e-12 are dropped, larger ones raise
    ValueError), and the pairing runs inside each block.  Degenerate
    observable eigenvalues are filled in deterministic basis order, which
    leaves the achieved expectation unchanged.
    """
    form, w, chi = _paired_weights(rho0, obs, blocks)
    stack = form.with_eigenvalues(w)
    stack = 0.5 * (stack + np.swapaxes(stack.conj(), -1, -2))  # Hermitian bit for bit
    rho_f = DensityMatrix._exact(rho0.basis, form.blocks, stack, trace_target=rho0.trace_target)
    scope = GLOBAL_SCOPE if blocks is None else BLOCKWISE_SCOPE
    return TargetState(rho=rho_f, scope=scope, achieved=float(np.sum(w * chi)))


def _lattice(blocks: BlockDecomposition, h0: HermitianOperator) -> FrequencyLattice:
    """The frequency lattice of h0's energies on the block stacks of blocks."""
    return FrequencyLattice(blocks.rows(h0.energies()), blocks.classes)


def duration_above(
    rho: DensityMatrix, obs: HermitianOperator, h0: HermitianOperator | FrequencyLattice, threshold: float
) -> LevelSetMeasure:
    """Fraction of a free-evolution period with Tr[obs rho(t)] at or above threshold.

    h0 is the free Hamiltonian, or the FrequencyLattice of its energies on
    obs.blocks, which a caller measuring many states on one basis builds
    once (bound_sweep does).  A threshold outside the open range of obs's
    eigenvalues raises ValueError naming the cutoff.  A flat series
    (TraceSeries.flat_value, the rule global_max applies first) lies above
    the threshold for the whole period or for none of it; no maximum is
    searched.  Otherwise the period is measured by evolution.measure_above,
    whose crossings are roots of the exact series refined to roundoff; the
    measure and the longest circular run do not depend on where the period
    starts.  Returns both the summed measure and the longest contiguous
    stretch, in units of the rotational period.
    """
    eig = obs.eigensystem[0][obs.blocks.filled]
    lo, hi = eig.min(), eig.max()
    if not (lo < threshold < hi):
        raise ValueError(
            f"threshold {threshold} outside the observable range [{lo:.6f}, {hi:.6f}] at j_max = {obs.basis.j_max}"
        )
    # entries of rho coupling two blocks of obs never meet an entry of obs, so they are dropped
    state = rho.regroup(obs.blocks, "state", np.inf)
    lattice = h0 if isinstance(h0, FrequencyLattice) else _lattice(obs.blocks, h0)
    series = TraceSeries(state.stack, obs.stack, lattice)
    flat = series.flat_value()
    if flat is not None:
        hit = 1.0 if flat >= threshold else 0.0
        return LevelSetMeasure(total=hit, longest=hit)
    return measure_above(series, threshold)


@dataclass(frozen=True)
class SweepRow:
    """One point of the bound sweep: bounds and target persistence at (j_max, T)."""

    kind: str
    j_max: int
    temperature_k: float
    optimal: float
    linear: float
    duration_linear: float
    duration_linear_longest: float


def bound_sweep(
    j_max_values,
    temperatures_k,
    kind: str,
    b_cm: float,
    kb_cm_per_k: float,
    z_mode: str = "full",
    renormalize: bool = False,
    threshold: float = 0.5,
) -> list[SweepRow]:
    """Kinematical bounds and blockwise-target persistence over a (j_max, T) grid.

    Rows run temperature-major: every cutoff at the first temperature, then
    at the next.  Basis, observable, blocks and the frequency lattice of h0
    on the blocks are built once per cutoff and shared by all temperatures.
    Each (cutoff, temperature) then computes what its row holds and no
    more: the optimal bound is the sum of build_target's pairing, with no
    target state built; the linear bound is the blockwise target's
    expectation; and the durations come from one duration_above call on
    that target, with no global maximum searched.
    """
    temperatures = list(temperatures_k)
    for temperature in temperatures:
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
    per_temperature: list[list[SweepRow]] = [[] for _ in temperatures]
    for j_max in j_max_values:
        basis = build_basis(j_max)
        obs = observable_matrix(basis, kind)
        blocks = block_decomposition(basis, kind)
        lattice = _lattice(blocks, h0_matrix(basis))
        for temperature, rows in zip(temperatures, per_temperature):
            beta = b_cm / (kb_cm_per_k * temperature)
            rho0 = thermal_state(basis, beta, z_mode=z_mode, renormalize=renormalize)
            _, w, chi = _paired_weights(rho0, obs, None)  # the optimal bound needs no target state
            lin = build_target(rho0, obs, blocks)
            dur = duration_above(lin.rho, obs, lattice, threshold)
            rows.append(
                SweepRow(
                    kind=kind,
                    j_max=j_max,
                    temperature_k=temperature,
                    optimal=float(np.sum(w * chi)),
                    linear=lin.achieved,
                    duration_linear=dur.total,
                    duration_linear_longest=dur.longest,
                )
            )
    return [row for rows in per_temperature for row in rows]
