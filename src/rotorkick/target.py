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

from .basis import BlockDecomposition, build_basis
# global_max is not called here; it stays importable as target.global_max, where the perfbench tracer patches it
from .evolution import FrequencyLattice, LevelSetMeasure, TraceSeries, global_max, measure_above  # noqa: F401
from .operators import (
    DensityMatrix,
    HermitianOperator,
    boltzmann_weights,
    diagonal_eigenvalues,
    level_energies,
    observable_matrix,
    project_operator,
    solve_eigensystems,
)

GLOBAL_SCOPE = "global"
BLOCKWISE_SCOPE = "blockwise"

_GROUP_ENTRIES = 2**16  # stack entries (512 kB of float64) that one group of a bound sweep may hold in any case


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


def _global_weights(spectrum: np.ndarray, obs: HermitianOperator) -> np.ndarray:
    """The weights paired with obs's eigenvalues chi when a state's spectrum, descending, meets all of obs's blocks."""
    chi = obs.eigensystem[0]
    filled = obs.blocks.filled
    # eigenvalues flattened in block order: the stable pairing keeps basis order on ties
    w = np.zeros_like(chi)
    w[filled] = spectrum[_pairing(spectrum, chi[filled])[0]]
    return w


def _paired_weights(
    rho0: DensityMatrix, obs: HermitianOperator, blocks: BlockDecomposition | None
) -> tuple[HermitianOperator, np.ndarray]:
    """The observable on the pairing's blocks, and the weights w paired with its eigenvalues chi there.

    The bound the pairing reaches is sum(w * chi); see build_target.
    """
    if rho0.basis is not obs.basis and rho0.basis != obs.basis:
        raise ValueError("state and observable live on different bases")
    if blocks is None:
        return obs, _global_weights(rho0.eigenvalues, obs)
    form = obs.regroup(blocks, "observable")
    # ascending in each block, like chi: largest meets largest
    return form, rho0.regroup(blocks, "state").eigensystem[0]


def _target(form: HermitianOperator, w: np.ndarray, trace_target: float, scope: str) -> TargetState:
    """The state with form's eigenvectors and weights w in its blocks, and the expectation sum(w * chi) it reaches."""
    stack = form.with_eigenvalues(w)
    stack = 0.5 * (stack + np.swapaxes(stack.conj(), -1, -2))  # Hermitian bit for bit
    rho_f = DensityMatrix._exact(form.basis, form.blocks, stack, trace_target=trace_target)
    return TargetState(rho=rho_f, scope=scope, achieved=float(np.sum(w * form.eigensystem[0])))


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
    With a block decomposition both inputs must sit on it, or be diagonal
    and move there (HermitianOperator.regroup; ValueError otherwise), and
    the pairing runs inside each block.  Degenerate observable eigenvalues
    are filled in deterministic basis order, which leaves the achieved
    expectation unchanged.
    """
    form, w = _paired_weights(rho0, obs, blocks)
    return _target(form, w, rho0.trace_target, GLOBAL_SCOPE if blocks is None else BLOCKWISE_SCOPE)


def _lattice(blocks: BlockDecomposition, energies: np.ndarray) -> FrequencyLattice:
    """The frequency lattice of the level energies, a basis vector, on the block stacks of blocks."""
    return FrequencyLattice(blocks.rows(energies), blocks.classes)


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
    state = rho.regroup(obs.blocks, "state")
    lattice = h0 if isinstance(h0, FrequencyLattice) else _lattice(obs.blocks, h0.energies())
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

    Rows run temperature-major: every cutoff, in the order given, at the
    first temperature, then at the next.  The observable and the basis are
    built once, at the top cutoff.  Every cutoff takes its observable from
    the leading slots of that one (project_operator), and the j of its
    states, whence their energies and Boltzmann weights, from the top
    basis's states with j <= j_max.  The observables' eigensystems are
    solved a group of cutoffs at a time, one eigh call per block size
    (solve_eigensystems); a group holds at most as many stack entries as
    the top cutoff's observable or 2**16, whichever is more, or one cutoff.  Each cutoff builds the
    frequency lattice of its energies once and shares it by all
    temperatures.  A thermal state is diagonal, so its spectrum is its
    Boltzmann weights (boltzmann_weights, as thermal_state takes them):
    sorted over all blocks, and sorted per block by diagonal_eigenvalues,
    as its eigensystem reads them; no thermal state is built.  Each (cutoff, temperature) then computes what
    its row holds and no more: the optimal bound is the sum of
    build_target's global pairing of that spectrum, with no target state
    built; the linear bound is the expectation of the blockwise target;
    and the durations come from one duration_above call on that target,
    with no global maximum searched.  The results are bit for bit those of
    thermal_state, observable_matrix, build_target and duration_above at
    each cutoff on its own.
    """
    cutoffs = list(j_max_values)
    temperatures = list(temperatures_k)
    for temperature in temperatures:
        if not 0 < temperature < np.inf:  # NaN included
            raise ValueError(f"temperature must be positive and finite, got {temperature}")
    if not cutoffs:
        return []
    per_temperature: list[list[SweepRow]] = [[] for _ in temperatures]
    top = observable_matrix(build_basis(max(cutoffs)), kind)
    for j_max, (obs, j) in zip(cutoffs, _projections(top, cutoffs)):
        lattice = _lattice(obs.blocks, level_energies(j))
        for temperature, rows in zip(temperatures, per_temperature):
            weights, trace = boltzmann_weights(j, b_cm / (kb_cm_per_k * temperature), z_mode, renormalize)
            # the optimal bound needs no target state
            optimal = float(np.sum(_global_weights(np.sort(weights)[::-1], obs) * obs.eigensystem[0]))
            lin = _target(obs, diagonal_eigenvalues(obs.blocks, weights), trace, BLOCKWISE_SCOPE)
            dur = duration_above(lin.rho, obs, lattice, threshold)
            rows.append(
                SweepRow(
                    kind=kind,
                    j_max=j_max,
                    temperature_k=temperature,
                    optimal=optimal,
                    linear=lin.achieved,
                    duration_linear=dur.total,
                    duration_linear_longest=dur.longest,
                )
            )
    return [row for rows in per_temperature for row in rows]


def _projections(top: HermitianOperator, cutoffs: list[int]):
    """For each cutoff J in order: top projected onto build_basis(J), with its eigensystem, and the j of its states.

    Consecutive cutoffs form a group while their stacks hold at most as
    many entries as top's, or _GROUP_ENTRIES if that is more; the
    eigensystems of a group are solved together.  So a sweep to a small
    top cutoff solves in one group, and memory stays within a few
    top-sized stacks however many cutoffs there are.
    """
    budget = max(top.stack.size, _GROUP_ENTRIES)
    group: dict[int, HermitianOperator] = {}
    listed: list[int] = []
    for j_max in cutoffs:
        if j_max not in group:
            obs = project_operator(top, build_basis(j_max))
            if group and sum(op.stack.size for op in group.values()) + obs.stack.size > budget:
                yield from _solved(top, group, listed)
                group, listed = {}, []
            group[j_max] = obs
        listed.append(j_max)
    yield from _solved(top, group, listed)


def _solved(top: HermitianOperator, group: dict[int, HermitianOperator], listed: list[int]):
    """The group's projections with their eigensystems, in the order listed, each with the j of its states."""
    solve_eigensystems(list(group.values()))
    j_top = top.basis.j_values  # a cutoff's states are the top basis's with j <= J, in the same order
    return [(group[j_max], j_top[j_top <= j_max]) for j_max in listed]
