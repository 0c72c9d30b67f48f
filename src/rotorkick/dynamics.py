"""Sudden-kick pulse trains: free propagation, greedy kick scheduling, diagnostics.

A train alternates exact free evolution with instantaneous unitary kicks
exp(i A O), O being the process observable.  The greedy schedules fire a
kick whenever the driving functional (observable expectation for S1,
normalized overlap with the target state for S2) reaches its global maximum
within one free-evolution period.

Every operator of a train conserves m (and, for alignment, the parity of
j), so the train runs on the invariant blocks of the kick's process: kicks,
free evolution, slopes and trace series all act on block stacks (see
BlockDecomposition.slots), and no step costs more than one block's cube.
Every block of one class holds the same j on a slot, so the energies are
one row per class (BlockDecomposition.rows).
Where every input holds the same bits in the -m block as in its mirror,
the m block, as the thermal state, cos(theta) and cos^2(theta) do, the
train folds the pair onto the m block and weighs it twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, block_decomposition, check_process_kind
from .errors import NumericalError
from .evolution import PERIOD, FrequencyLattice, LevelSetMeasure, TraceSeries, global_max, measure_above
from .operators import DensityMatrix, HermitianOperator, kick_unitary, observable_matrix
from .target import TargetState

SLOPE_TOL = 1e-10
SERIES_POINTS = 2048  # samples per free-evolution period in the TimeSeries of a train

S1 = "S1"
S2 = "S2"
STRATEGIES = (S1, S2)


def _rotate(matrix: np.ndarray, energies: np.ndarray, classes: np.ndarray, t: float) -> np.ndarray:
    """rho_ab -> rho_ab * exp(-i (E_a - E_b) t) for a block stack whose block b has the energies of row classes[b]."""
    phase = np.exp(-1j * energies * t)
    return matrix * (phase[:, :, None] * phase.conj()[:, None, :])[classes]


def _commutator(energies: np.ndarray, classes: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[H0, B]_ab = (E_a - E_b) B_ab for H0 = diag(energies) and a block stack whose block b has row classes[b]."""
    return (energies[:, :, None] - energies[:, None, :])[classes] * b


def _trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr[a b] of two matrices or two block stacks."""
    return complex(np.sum(a * np.swapaxes(b, -1, -2)))


def _slope(rho_matrix: np.ndarray, commutator: np.ndarray) -> float:
    # d/dt Tr[B rho(t)] = Re( i Tr[rho [H0, B]] ) under free evolution
    return (1j * _trace_product(rho_matrix, commutator)).real


def free_propagate(rho: DensityMatrix, h0: HermitianOperator, t: float) -> DensityMatrix:
    """Exact free evolution: rho_ab -> rho_ab * exp(-i (E_a - E_b) t)."""
    if h0.dim != rho.dim:
        raise ValueError(f"h0 on {h0.dim} states cannot propagate a state on {rho.dim} states")
    stack = _rotate(rho.stack, rho.blocks.rows(h0.energies()), rho.blocks.classes, t)
    return DensityMatrix._exact(rho.basis, rho.blocks, stack, rho.trace_target)


@dataclass(frozen=True, eq=False)
class KickSpec:
    """Template for a sudden kick exp(i * amplitude * operator).

    The generator is carried in `operator`, on the invariant blocks of the
    kick's process (ValueError if it couples two).
    """

    amplitude: float
    kind: str
    operator: HermitianOperator

    def __post_init__(self) -> None:
        check_process_kind(self.kind)
        if not np.isfinite(self.amplitude):
            raise ValueError("kick amplitude must be finite")
        blocks = block_decomposition(self.operator.basis, self.kind)
        object.__setattr__(self, "operator", self.operator.regroup(blocks, "kick generator"))


def make_kick(basis: Basis, kind: str, amplitude: float) -> KickSpec:
    """Kick whose generator is the process observable on the given basis."""
    return KickSpec(amplitude=amplitude, kind=kind, operator=observable_matrix(basis, kind))


def apply_kick(rho: DensityMatrix, kick: KickSpec, amplitude: float | None = None) -> DensityMatrix:
    """rho -> U rho U+ for the kick unitary; spectrum-preserving.

    A state on the blocks of the kick's process is conjugated block by
    block; any other, which may couple those blocks, on one block of all
    states.
    """
    a = kick.amplitude if amplitude is None else amplitude
    return rho.conjugated(kick.operator.blocks, kick_unitary(kick.operator, a))


def post_kick_slope(
    rho: DensityMatrix,
    kick: KickSpec,
    h0: HermitianOperator,
    functional: HermitianOperator,
    amplitude: float | None = None,
) -> float:
    """Time derivative of Tr[functional rho(t)] immediately after kicking rho.

    Entries of the kicked state coupling two of the functional's blocks never meet it, so they are dropped.
    """
    blocks = functional.blocks
    comm = _commutator(blocks.rows(h0.energies()), blocks.classes, functional.stack)
    return _slope(apply_kick(rho, kick, amplitude).regroup(functional.blocks, "state", np.inf).stack, comm)


def leakage(rho: DensityMatrix, j_max: int) -> float:
    """Population carried by states with j above the cutoff."""
    mask = rho.basis.j_values > j_max
    return float(rho.diagonal[mask].sum())


@dataclass
class PulseTrainRecord:
    """Outcome of one greedy train: per-kick data plus post-train figures of merit."""

    strategy: str
    kick_times: list[float] = field(default_factory=list)
    amplitudes: list[float] = field(default_factory=list)
    pre_kick_values: list[float] = field(default_factory=list)
    post_kick_slopes: list[float] = field(default_factory=list)
    maxima: list[float] = field(default_factory=list)
    stop_reason: str = ""
    warnings: list[str] = field(default_factory=list)
    final_efficiency: float = float("nan")
    final_efficiency_time: float = float("nan")
    final_projection: float | None = None
    final_duration: LevelSetMeasure | None = None

    @property
    def n_kicks(self) -> int:
        return len(self.kick_times)

    def to_jsonable(self) -> dict:
        return {
            "strategy": self.strategy,
            "n_kicks": self.n_kicks,
            "times_over_Trot": [t / PERIOD for t in self.kick_times],
            "amplitudes": self.amplitudes,
            "maxima": self.maxima,
            "pre_kick_values": self.pre_kick_values,
            "post_kick_slopes": self.post_kick_slopes,
            "stop_reason": self.stop_reason,
            "warnings": self.warnings,
            "final_efficiency": self.final_efficiency,
            "final_efficiency_time_over_Trot": self.final_efficiency_time / PERIOD,
            "final_projection": self.final_projection,
            "final_duration_above": None
            if self.final_duration is None
            else {"total": self.final_duration.total, "longest": self.final_duration.longest},
        }


@dataclass
class TimeSeries:
    """Sampled Tr[O rho(t)] and target overlap along a train, with kick markers."""

    times: np.ndarray
    expectation: np.ndarray
    projection: np.ndarray | None
    kick_flags: np.ndarray


class _SeriesAccumulator:
    """Collect samples segment by segment; each segment has its own series origin.

    Grid samples sit at the times k * PERIOD / points.  A segment spans at
    most one period, so its samples are one FFT grid of each series in the
    list that _Train.series returns.
    """

    def __init__(self, points: int):
        self.points = points
        self.step = PERIOD / points
        self.times: list[float] = []
        self.samples: list[np.ndarray] = []  # (number of series, samples) per segment or event
        self.flags: list[int] = []
        self._next_k = 0

    def _first_k(self, t: float) -> int:
        """The first grid index k >= 0 whose time k * step is not before t - 1e-15."""
        bound = t - 1e-15
        k = max(int(np.ceil(bound / self.step)), 0)
        if k > 0 and (k - 1) * self.step >= bound:  # the division rounded up
            return k - 1
        return k + 1 if k * self.step < bound else k

    def segment(self, origin: float, t_to: float, series: list[TraceSeries]) -> None:
        """Grid samples in [origin, t_to) not taken yet, evaluated from the state valid at origin."""
        start = max(self._next_k, self._first_k(origin))
        self._next_k = max(self._next_k, self._first_k(t_to))
        n = self._next_k - start
        if n <= 0:
            return
        wrap = np.arange(n) % self.points
        tau0 = start * self.step - origin
        self.times.extend((np.arange(start, self._next_k) * self.step).tolist())
        self.samples.append(np.array([s.grid_values(tau0, self.points)[wrap] for s in series]))
        self.flags.extend([0] * n)

    def event(self, t: float, origin: float, series: list[TraceSeries], flag: int) -> None:
        self.times.append(t)
        self.samples.append(np.array([[s.value(t - origin)] for s in series]))
        self.flags.append(flag)

    def build(self) -> TimeSeries:
        samples = np.concatenate(self.samples, axis=1)
        return TimeSeries(
            times=np.array(self.times),
            expectation=samples[0],
            projection=samples[1] if len(samples) > 1 else None,
            kick_flags=np.array(self.flags, dtype=int),
        )


class _Train:
    """What a greedy train derives once from its inputs, with one method per step.

    It runs on the kick's blocks that do not fold onto their +-m mirror
    (BlockDecomposition.folded over every input, see run_strategy); fold()
    drops the folded blocks of the initial state.  functionals holds the
    observable and, with a target, its projector, each block weighed by 2
    where its mirror folded onto it; drive picks the one the strategy
    drives on.  The train holds no state.
    """

    def __init__(self, start: DensityMatrix, strategy, kick, h0, target, observable, leak_guard_j):
        blocks = kick.operator.blocks
        energies, j = blocks.rows(h0.energies()), blocks.rows(start.basis.j_values)
        stacks = [(kick.operator if observable is None else observable).regroup(blocks, "observable").stack]
        if target is not None:
            stacks.append(target.rho.regroup(blocks, "target state").stack / target.rho.purity())
        basis = start.basis
        folded = blocks.folded([start.stack, kick.operator.stack, *stacks])
        self.keep = ~folded
        weights = np.bincount(blocks.mirrors[folded], minlength=blocks.n_blocks)[self.keep] + 1  # 2 for a mirror

        # the kept states, in basis order, have the kept blocks in the same order
        kept = np.sort(blocks.slots[self.keep][blocks.filled[self.keep]])
        kept_basis = Basis(basis.j_max, basis.j_values[kept], basis.m_values[kept])
        kept_blocks = block_decomposition(kept_basis, blocks.kind)
        kept_kick = HermitianOperator(kept_basis, kept_blocks, kick.operator.stack[self.keep])
        self.kick = KickSpec(kick.amplitude, kick.kind, kept_kick)
        self.energies, self.classes = energies, kept_blocks.classes
        self.lattice = FrequencyLattice(energies, self.classes)
        self.functionals = [weights[:, None, None] * stack[self.keep] for stack in stacks]
        self.drive = 0 if strategy == S1 else 1
        self.comm = _commutator(energies, self.classes, self.functionals[self.drive])
        if leak_guard_j is not None:  # the population above the guard, each kept state weighed as its block
            self.leak_weights = (j[self.classes] > leak_guard_j) * kept_blocks.filled * weights[:, None]

    def fold(self, start: DensityMatrix) -> DensityMatrix:
        """The kept blocks of the initial state; they declare their own trace."""
        dropped = float(np.trace(start.stack[~self.keep], axis1=-2, axis2=-1).sum().real)
        op = self.kick.operator
        return DensityMatrix(op.basis, op.blocks, start.stack[self.keep], trace_target=start.trace_target - dropped)

    def series(self, rho: DensityMatrix) -> list[TraceSeries]:
        """The series of every functional, the observable's first, with rho at their origin."""
        return [TraceSeries(rho.stack, functional, self.lattice) for functional in self.functionals]

    def propagate(self, rho: DensityMatrix, t: float) -> DensityMatrix:
        stack = _rotate(rho.stack, self.energies, self.classes, t)
        return DensityMatrix._exact(rho.basis, rho.blocks, stack, rho.trace_target)

    def kicked(self, rho: DensityMatrix, amplitude: float) -> tuple[DensityMatrix, float]:
        """rho kicked with the amplitude, and the drive's slope right after."""
        kicked = apply_kick(rho, self.kick, amplitude)
        return kicked, _slope(kicked.stack, self.comm)

    def leakage(self, rho: DensityMatrix) -> float:
        return float(np.sum(np.diagonal(rho.stack, axis1=-2, axis2=-1).real * self.leak_weights))


def run_strategy(
    rho0: DensityMatrix,
    strategy: str,
    kick: KickSpec,
    h0: HermitianOperator,
    target: TargetState | None = None,
    observable: HermitianOperator | None = None,
    max_kicks: int = 15,
    gain_tol: float = 1e-4,
    duration_threshold: float = 0.5,
    leak_guard_j: int | None = None,
) -> tuple[PulseTrainRecord, TimeSeries]:
    """Run a greedy pulse train and sample the resulting dynamics.

    S1 drives on Tr[O rho], S2 on Tr[rho_F rho] / Tr[rho_F^2]; both fire the
    next kick at the earliest global maximum of the driving functional within
    one free-evolution period.  The kick sign flips per kick when -A yields a
    larger post-kick slope.  The train stops at max_kicks, or earlier when
    the gain between consecutive maxima falls below gain_tol (relative) while
    no kick sign can produce a slope above 1e-10, i.e. at a fixed point of
    the iteration.  The returned series holds SERIES_POINTS samples per
    period and extends one full period past the last kick.

    `observable` is the operator the strategy drives on and the efficiency is
    measured with; it defaults to the kick generator.  When the dynamics runs
    in an enlarged simulation space, pass the control-space observable zero-
    padded into that space, so that both propagations chase the same figure
    of merit.  leak_guard_j, when set, attaches a warning whenever the states
    of the basis with j above it hold more than 1e-4 population after a
    kick; on a basis of some m shells (build_basis with m_max) that counts
    those shells only.

    The train runs on the invariant blocks of the kick's process: an input
    state, observable or target that couples two of them raises ValueError,
    and a kicked state whose trace drifts beyond HERM_TOL raises
    NumericalError naming the kick.  A block with m < 0 on which every
    input (state, observable, target and kick generator) holds the same
    bits as on its mirror, the block with -m, the same class and the same
    slots, folds onto the mirror (BlockDecomposition.folded): the train runs
    on the basis of the states of the other blocks.  Kicks keep each
    block's trace, so the kept state declares the trace of the kept blocks,
    and the observable, target and slope weigh a block by 2 where its
    mirror folded onto it, as do the leakage warnings.  A state that breaks
    one +-m pair runs that pair on both copies and still folds the others.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == S2 and target is None:
        raise ValueError("strategy S2 requires a target state")
    if max_kicks < 0:
        raise ValueError("max_kicks must be non-negative")
    for name, op in (("target state", None if target is None else target.rho), ("observable", observable), ("h0", h0)):
        if op is not None and op.dim != rho0.dim:
            raise ValueError(f"{name} on {op.dim} states and initial state on {rho0.dim} live on different bases")

    # every input must respect the kick's invariant blocks; regroup raises otherwise
    start = rho0.regroup(kick.operator.blocks, "state")
    train = _Train(start, strategy, kick, h0, target, observable, leak_guard_j)
    rho = train.fold(start)
    record = PulseTrainRecord(strategy=strategy)
    acc = _SeriesAccumulator(SERIES_POINTS)
    t_now = 0.0
    prev_max = _trace_product(rho.stack, train.functionals[train.drive]).real
    series = train.series(rho)
    peaks = {}  # functional index -> its global_max on the final series, when the last pass found it

    for _ in range(max_kicks):
        res = global_max(series[train.drive])
        t_star = t_now + res.t
        if record.kick_times and t_star <= record.kick_times[-1]:
            t_star = record.kick_times[-1] + 1e-9  # keep kick times strictly increasing
        record.maxima.append(res.value)

        at_max = train.propagate(rho, t_star - t_now)
        try:
            kicked_plus, slope_plus = train.kicked(at_max, kick.amplitude)
            kicked_minus, slope_minus = train.kicked(at_max, -kick.amplitude)
        except NumericalError as exc:
            raise NumericalError(f"kick {record.n_kicks + 1}: {exc}") from exc
        steep = max(abs(slope_plus), abs(slope_minus)) >= SLOPE_TOL
        if slope_minus > slope_plus and steep:
            amplitude, kicked, slope = -kick.amplitude, kicked_minus, slope_minus
        else:
            amplitude, kicked, slope = kick.amplitude, kicked_plus, slope_plus
        del at_max, kicked_plus, kicked_minus  # the other candidate is dead; keep one kicked stack, not three

        if res.value - prev_max < gain_tol * max(abs(prev_max), 1e-30) and not steep:
            record.stop_reason = "converged"
            peaks[train.drive] = res
            break

        acc.segment(t_now, t_star, series)
        rho = kicked
        t_now = t_star
        prev_max = res.value

        record.kick_times.append(t_star)
        record.amplitudes.append(amplitude)
        record.pre_kick_values.append(res.value)
        record.post_kick_slopes.append(slope)

        series = train.series(rho)
        acc.event(t_star, t_star, series, flag=1)

        if leak_guard_j is not None:
            shell = train.leakage(rho)
            if shell > 1e-4:
                record.warnings.append(
                    f"population {shell:.3e} above j={leak_guard_j} after kick {record.n_kicks}"
                )
    else:
        record.stop_reason = "max_kicks"

    # post-train window: one full period beyond the last event
    acc.segment(t_now, t_now + PERIOD, series)
    acc.event(t_now + PERIOD, t_now, series, flag=0)

    final_max = peaks.get(0) or global_max(series[0])
    record.final_efficiency = final_max.value
    record.final_efficiency_time = t_now + final_max.t
    if target is not None:
        record.final_projection = (peaks.get(1) or global_max(series[1])).value
    record.final_duration = measure_above(series[0], duration_threshold)
    # close the maxima sequence with the post-train maximum of the driving functional
    record.maxima.append(final_max.value if strategy == S1 else record.final_projection)
    return record, acc.build()
