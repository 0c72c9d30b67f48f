"""Independent oracles for the test suite.

These deliberately avoid the package's own code paths: matrix elements come
from quadrature over associated Legendre functions, pairings from exhaustive
permutation search, partition sums from direct summation, and Lie
algebras from brackets of every pair of elements.  float_lie_closure is the
floating-point closure the package used before its exact count,
float_trace_rank the SVD rank of the block traces it used before its
integer count, decomposed_dims_required the counts D and D' summed over
the blocks of a built basis, as the package took them before it read
them off the block sizes in closed form, full_basis_physical_run the
physical-mode train on every state with j <= j_sim, as the CLI ran it
before it kept only the m shells that the control space sees,
certified_duration_above the duration
rule of the bound sweep as it was before it stopped searching the global
maximum, vectorized_roots the root finder as it was before it kept its
bookkeeping in Python floats, unpruned_global_max the maximum search
as it was before it dropped the steps that the first sampled maximum
already clears, and grouped_count the count of dim_L mod a prime that
the package ran before its closed form was proved to hold at every
cutoff.  grouped_count brackets the generators with groups of new rows
and is itself checked against sequential_exact_closure, which brackets
every pair one at a time; both run on dense generators that
generators_mod_p builds from the rational bands.  rational_observable
holds each block with m >= 0 as two bands of Python integers, and
certified_closure runs on them the block and pair checks that the
package ran before it read (dim_L, r) off its closed form; trace_rank
counts r from the same bands.
enumerated_states lists the states of a cutoff by nested loops, and
grouped_blocks groups the states of a basis one at a time, as the
package did before it held a basis as two integer arrays.  members and
spans read each block's states and slots off a decomposition's slots and
filled, and replayed reruns a train's kicks on every block of the kick
with the public free_propagate and apply_kick.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lpmv


def _theta_part(j: int, m: int, x: np.ndarray) -> np.ndarray:
    """Normalized polar part of the spherical harmonic Y_jm on x = cos(theta)."""
    am = abs(m)
    norm = math.sqrt((2 * j + 1) / 2.0 * math.factorial(j - am) / math.factorial(j + am))
    return norm * lpmv(am, j, x)


def quadrature_cos_power_element(j1: int, j2: int, m: int, power: int) -> float:
    """<j1 m| cos^power(theta) |j2 m> by Gauss-Legendre quadrature (exact: polynomial integrand)."""
    nodes, weights = np.polynomial.legendre.leggauss(j1 + j2 + power + 8)
    f = _theta_part(j1, m, nodes) * nodes**power * _theta_part(j2, m, nodes)
    return float(np.dot(weights, f))


def brute_force_pairing(weights, eigenvalues) -> float:
    """Best expectation over every permutation of the weights."""
    w = list(weights)
    x = list(eigenvalues)
    best = -math.inf
    for perm in itertools.permutations(range(len(w))):
        val = sum(x[k] * w[perm[k]] for k in range(len(w)))
        best = max(best, val)
    return best


def direct_partition_sum(beta: float, j_top: int = 400) -> float:
    """Sum (2j+1) exp(-beta j(j+1)) term by term."""
    return sum((2 * j + 1) * math.exp(-beta * j * (j + 1)) for j in range(j_top + 1))


def enumerated_states(j_max: int, m_max: int | None = None) -> list[tuple[int, int]]:
    """Every (j, m) with |m| <= j <= j_max and |m| <= m_max, in ascending m, then ascending j."""
    m_cut = j_max if m_max is None else min(m_max, j_max)
    return [(j, m) for m in range(-m_cut, m_cut + 1) for j in range(abs(m), j_max + 1)]


def grouped_blocks(states, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, classes, slots) of the invariant blocks of the states (j, m) of a basis, by a loop per state.

    Blocks ascend in m, even j before odd for alignment (class the parity
    of j, 0 for orientation).  A block's members keep basis order on the
    slots from its first member's j on, halved for alignment; the other
    slots hold the number of states.
    """
    step = 2 if kind == "alignment" else 1
    groups: dict = {}
    for k, (j, m) in enumerate(states):
        groups.setdefault((m, j % step), []).append(k)
    keys = sorted(groups)
    rows = [[len(states)] * (states[groups[key][0]][0] // step) + groups[key] for key in keys]
    slots = np.full((len(rows), max(map(len, rows), default=0)), len(states))
    for b, row in enumerate(rows):
        slots[b, : len(row)] = row
    return np.array([m for m, _ in keys], dtype=int), np.array([c for _, c in keys], dtype=int), slots


def members(blocks) -> list[list[int]]:
    """The basis indices of every block, in slot order, read off the layout."""
    return [row[mask].tolist() for row, mask in zip(blocks.slots, blocks.filled)]


def spans(blocks) -> list[slice]:
    """The consecutive slots of every block, read off filled."""
    return [slice(int(mask.argmax()), int(mask.argmax() + mask.sum())) for mask in blocks.filled]


def replayed(record, rho0, h0, kick, n):
    """The state right after the n-th kick of the record, propagated on all blocks of the kick."""
    from rotorkick.dynamics import apply_kick, free_propagate

    rho, t_now = rho0.regroup(kick.operator.blocks), 0.0
    for t, amplitude in zip(record.kick_times[:n], record.amplitudes[:n]):
        rho, t_now = apply_kick(free_propagate(rho, h0, t - t_now), kick, amplitude), t
    return rho


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def block_unitary(n: int, blocks, rng: np.random.Generator) -> np.ndarray:
    """Unitary acting as an independent Haar unitary inside every block."""
    u = np.eye(n, dtype=complex)
    for idx in members(blocks):
        u[np.ix_(idx, idx)] = haar_unitary(len(idx), rng)
    return u


def sampled_slope_span(h0: np.ndarray, functional: np.ndarray, rng: np.random.Generator, amp_max: float = 2e4) -> int:
    """Real rank of {U(a)+ i[H0, B] U(a)} over 2N + 20 random amplitudes a in [0, amp_max].

    U(a) = exp(i a B) comes from a direct eigendecomposition of B.  The
    rotated operators oscillate at the differences of B's eigenvalues, some
    of which lie close together, so the amplitudes must reach far beyond
    2 pi to tell them apart: over [0, 200] the rank at orientation
    j_max = 8 comes out 114 instead of 140.  Singular values count when
    above 1e-7 of the largest; on the rotor observables up to j_max = 8 the
    kept ones stay above 2e-3 and the dropped ones below 1e-12.
    """
    n = functional.shape[0]
    lam, v = np.linalg.eigh(functional)
    slope = 1j * (h0 @ functional - functional @ h0)
    rows = []
    for a in rng.uniform(0.0, amp_max, 2 * n + 20):
        u = (v * np.exp(1j * a * lam)) @ v.conj().T
        rotated = u.conj().T @ slope @ u
        rows.append(np.concatenate([rotated.real.ravel(), rotated.imag.ravel()]))
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    if s[0] == 0.0:
        return 0
    rank = int(np.sum(s > 1e-7 * s[0]))
    assert rank < len(rows), "every sample is independent: too few amplitudes to bound the span"
    return rank


def dense_train(rho0, strategy, kick, h0, target=None, observable=None, max_kicks=15, gain_tol=1e-4, duration_threshold=0.5):
    """The greedy pulse train on dense N x N matrices, as run_strategy did before it ran on blocks.

    The kick unitary comes from one eigendecomposition of the whole
    generator, states are conjugated by full matrix products, slopes use the
    matrix commutator H0 B - B H0.  Only the series search (TraceSeries,
    global_max, measure_above) is the package's own.  Returns the train's
    figures: kick times, amplitudes, maxima, final efficiency, projection
    and duration above the threshold.
    """
    from rotorkick.dynamics import S1, SLOPE_TOL
    from rotorkick.evolution import TraceSeries, global_max, measure_above

    energies = np.diag(h0.matrix).real.copy()
    obs = (observable if observable is not None else kick.operator).matrix
    proj = None if target is None else target.rho.matrix / target.rho.purity()
    drive = obs if strategy == S1 else proj
    comm = h0.matrix @ drive - drive @ h0.matrix
    lam, vec = np.linalg.eigh(kick.operator.matrix)

    def kicked(rho, amplitude):
        u = (vec * np.exp(1j * amplitude * lam)) @ vec.conj().T
        mat = u @ rho @ u.conj().T
        return 0.5 * (mat + mat.conj().T)

    def slope(rho):
        return float((1j * np.sum(rho * comm.T)).real)

    rho = rho0.matrix
    out = {"kick_times": [], "amplitudes": [], "maxima": []}
    t_now = 0.0
    prev_max = float(np.sum(rho * drive.T).real)
    for _ in range(max_kicks):
        res = global_max(TraceSeries(rho, drive, energies))
        t_star = t_now + res.t
        if out["kick_times"] and t_star <= out["kick_times"][-1]:
            t_star = out["kick_times"][-1] + 1e-9
        out["maxima"].append(res.value)
        phase = np.exp(-1j * energies * (t_star - t_now))
        at_max = rho * np.outer(phase, phase.conj())
        plus, minus = kicked(at_max, kick.amplitude), kicked(at_max, -kick.amplitude)
        s_plus, s_minus = slope(plus), slope(minus)
        if res.value - prev_max < gain_tol * max(abs(prev_max), 1e-30) and max(abs(s_plus), abs(s_minus)) < SLOPE_TOL:
            break
        if s_minus > s_plus and max(abs(s_plus), abs(s_minus)) >= SLOPE_TOL:
            amplitude, rho = -kick.amplitude, minus
        else:
            amplitude, rho = kick.amplitude, plus
        t_now, prev_max = t_star, res.value
        out["kick_times"].append(t_star)
        out["amplitudes"].append(amplitude)

    exp_s = TraceSeries(rho, obs, energies)
    final = global_max(exp_s)
    out["final_efficiency"] = final.value
    out["final_projection"] = None if proj is None else global_max(TraceSeries(rho, proj, energies)).value
    duration = measure_above(exp_s, duration_threshold)
    out["final_duration"] = (duration.total, duration.longest)
    out["maxima"].append(final.value if strategy == S1 else out["final_projection"])
    return out


def certified_duration_above(rho, obs, h0, threshold):
    """The level-set duration as duration_above found it before it stopped searching the global maximum.

    The series is built as duration_above builds it, global_max certifies
    its maximum, and a flat series is all or nothing by global_max's value
    at t = 0; any other goes to measure_above.  Returns the measure and
    global_max's result.
    """
    from rotorkick.evolution import FrequencyLattice, LevelSetMeasure, TraceSeries, global_max, measure_above

    state = rho.regroup(obs.blocks, "state", np.inf)
    lattice = FrequencyLattice(obs.blocks.rows(h0.energies()), obs.blocks.classes)
    series = TraceSeries(state.stack, obs.stack, lattice)
    peak = global_max(series)
    if peak.flat:
        hit = 1.0 if peak.value >= threshold else 0.0
        return LevelSetMeasure(total=hit, longest=hit), peak
    return measure_above(series, threshold), peak


def vectorized_roots(series, order, level, lo, hi, g_lo, g_hi):
    """evolution._roots with every bracket's bookkeeping in numpy arrays, a zero slope bisecting through errstate."""
    from rotorkick.evolution import ROOT_TOL

    lo, hi = lo.astype(float), hi.astype(float)
    sign = np.where(g_lo < 0, 1.0, -1.0)  # g rises through zero where g_lo < 0
    t = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
    moved = hi - lo
    live = np.arange(t.size)
    while live.size:
        tl, l, h = t[live], lo[live], hi[live]
        g, slope = series.values(tl, (order, order + 1))
        g = g - level
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / slope
        past = sign[live] * g >= 0
        h = np.where(past, tl, h)
        l = np.where(past, l, tl)
        newton = tl - step
        tol = ROOT_TOL * np.maximum(1.0, np.abs(tl))
        converged = np.abs(step) <= tol  # False for NaN
        newton_ok = (l < newton) & (newton < h) & (2.0 * np.abs(step) <= moved[live])
        bisect = ~(converged | newton_ok)
        t[live] = np.where(bisect, 0.5 * (l + h), np.clip(newton, l, h))
        moved[live] = np.where(bisect, 0.5 * (h - l), np.abs(step))
        lo[live], hi[live] = l, h
        live = live[~(converged | (h - l <= tol))]
    return t


def unpruned_global_max(series):
    """evolution.global_max keeping every grid step in its first round, refining through vectorized_roots."""
    from rotorkick.evolution import (
        _F_HI,
        _F_LO,
        _HI,
        _LO,
        _S_HI,
        _S_LO,
        PERIOD,
        TIE_TOL,
        MaxResult,
        _halved,
        _settled,
        _slack,
        _within,
    )

    flat = series.flat_value()
    if flat is not None:
        return MaxResult(t=0.0, value=flat, flat=True, refined=0)
    grid = series._search
    steps = grid.steps
    best = steps[_F_LO].max()
    taus = ys = radius = np.zeros(0)
    refined = 0
    while True:
        top = np.maximum(steps[_F_LO], steps[_F_HI]) + _slack(steps, grid.m2)
        up = (top >= best - TIE_TOL) & (steps[_S_LO] > 0) & (steps[_S_HI] <= 0)
        if taus.size:
            up[up] = ~_within(steps[:, up], taus, radius)
        new = vectorized_roots(series, 1, 0.0, steps[_LO, up], steps[_HI, up], steps[_S_LO, up], steps[_S_HI, up])
        new = new % PERIOD
        if not taus.size:
            new = np.concatenate(([0.0], new))
        if new.size:
            f, curvature = series.values(new, (0, 2))
            r = np.where(curvature < 0, -3.0 * curvature / grid.m3, 0.0)
            if not taus.size:
                r[0] = 0.0
            taus, ys, radius = np.append(taus, new), np.append(ys, f), np.append(radius, r)
            best = max(best, ys.max())
        short = _slack(steps, grid.m2) <= TIE_TOL
        left = ~((top < best - TIE_TOL) | (short & (top <= best + TIE_TOL)) | _settled(steps, grid.m3))
        left[left] = ~_within(steps[:, left], taus, radius)
        if not left.any():
            break
        refined += int(np.count_nonzero(left))
        steps = _halved(series, steps[:, left])
    best = ys.max()
    if ys[0] >= best - TIE_TOL:
        return MaxResult(t=0.0, value=float(ys[0]), flat=False, refined=refined)
    tie = np.flatnonzero(ys >= best - TIE_TOL)
    i = tie[np.argmin(taus[tie])]
    return MaxResult(t=float(taus[i]), value=float(ys[i]), flat=False, refined=refined)


def _summed_thermal_state(basis, config):
    """The thermal state of a config on every state of the basis, its weights summed here in the basis's order."""
    from rotorkick.basis import ORIENTATION, block_decomposition
    from rotorkick.operators import DensityMatrix

    j = basis.j_values.astype(float)
    boltzmann = np.exp(-config.beta * j * (j + 1))
    weights = boltzmann / (direct_partition_sum(config.beta) if config.z_mode == "full" else boltzmann.sum())
    if config.renormalize:
        weights = weights / weights.sum()
    blocks = block_decomposition(basis, ORIENTATION)
    return DensityMatrix.from_matrix(basis, np.diag(weights), blocks, trace_target=float(weights.sum()))


def full_basis_physical_run(config):
    """run_strategy's (record, series) for the physical mode of a config, on the whole build_basis(j_sim).

    The control-space target and observable are zero-padded into all
    (j_sim + 1)**2 states, and both thermal states are summed by
    _summed_thermal_state; the rest is the package's.
    """
    from dataclasses import replace

    from rotorkick.basis import block_decomposition, build_basis
    from rotorkick.dynamics import make_kick, run_strategy
    from rotorkick.operators import embed_density, embed_operator, h0_matrix, observable_matrix
    from rotorkick.target import build_target

    control = build_basis(config.j_max)
    obs = observable_matrix(control, config.process)
    target = build_target(_summed_thermal_state(control, config), obs, block_decomposition(control, config.process))
    basis = build_basis(config.j_sim)
    return run_strategy(
        _summed_thermal_state(basis, config),
        config.strategy,
        make_kick(basis, config.process, config.kick_amplitude),
        h0_matrix(basis),
        target=replace(target, rho=embed_density(target.rho, basis)),
        observable=embed_operator(obs, basis),
        max_kicks=config.max_kicks,
        gain_tol=config.gain_tol,
        duration_threshold=config.threshold,
        leak_guard_j=config.j_sim - 2,
    )


def dense_target(rho0, obs, blocks=None):
    """The kinematical target assembled on dense N x N matrices, as build_target did before it ran on block stacks.

    Global scope (blocks=None): the observable's eigenvectors, found in each
    block of its own metadata (in the whole matrix without it), become
    length-N vectors ordered by descending eigenvalue (stable sort), and the
    k-th gets the k-th largest eigenvalue of rho0, one outer product each.
    Blockwise scope: an entry above 1e-12 coupling two blocks raises
    ValueError, and each block pairs its descending observable eigenvalues
    with the descending eigenvalues of the state's block.  Returns the
    target matrix and the achieved expectation.
    """
    n = rho0.matrix.shape[0]
    if blocks is None:
        pieces = [list(range(n))] if obs.blocks is None else members(obs.blocks)
        chis, vecs = [], []
        for idx in pieces:
            w, v = np.linalg.eigh(obs.matrix[np.ix_(idx, idx)])
            for k in range(len(idx)):
                full = np.zeros(n, dtype=complex)
                full[idx] = v[:, k]
                chis.append(float(w[k]))
                vecs.append(full)
        order = np.argsort(-np.asarray(chis), kind="stable")
        weights = np.linalg.eigvalsh(rho0.matrix)[::-1]
        mat = np.zeros((n, n), dtype=complex)
        achieved = 0.0
        for rank, k in enumerate(order):
            mat += weights[rank] * np.outer(vecs[k], vecs[k].conj())
            achieved += weights[rank] * chis[k]
        return 0.5 * (mat + mat.conj().T), achieved

    label = np.empty(n, dtype=int)
    for b, idx in enumerate(members(blocks)):
        label[idx] = b
    off = label[:, None] != label[None, :]
    for name, matrix in (("state", rho0.matrix), ("observable", obs.matrix)):
        if off.any() and np.max(np.abs(matrix[off])) > 1e-12:
            raise ValueError(f"{name} is not block diagonal")
    mat = np.zeros((n, n), dtype=complex)
    achieved = 0.0
    for idx in members(blocks):
        chi, vec = np.linalg.eigh(obs.matrix[np.ix_(idx, idx)])
        w_block = np.linalg.eigvalsh(rho0.matrix[np.ix_(idx, idx)])
        chi, vec, w_block = chi[::-1], vec[:, ::-1], w_block[::-1]
        achieved += float(np.dot(chi, w_block))
        mat[np.ix_(idx, idx)] = (vec * w_block) @ vec.conj().T
    return 0.5 * (mat + mat.conj().T), achieved


def block_stack(matrix, blocks):
    """The block stack of a dense matrix from the layout's definition alone.

    Block b is matrix[np.ix_(idx, idx)] for the basis indices idx of the
    b-th block, on its span of slots, zero-padded to the widest block;
    entries coupling two blocks are left out.
    """
    size = max(span.stop for span in spans(blocks))
    stack = np.zeros((blocks.n_blocks, size, size), dtype=complex)
    for b, (idx, span) in enumerate(zip(members(blocks), spans(blocks))):
        stack[b, span, span] = matrix[np.ix_(idx, idx)]
    return stack


def block_diagonal_part(matrix, blocks):
    """The matrix with every entry coupling two blocks set to zero."""
    out = np.zeros_like(matrix)
    for idx in members(blocks):
        out[np.ix_(idx, idx)] = matrix[np.ix_(idx, idx)]
    return out


def _commutators_with(x, ys, layout):
    """Compact [x, y] for one row x and every row y of ys, x broadcast over one batched matmul per block."""
    out = np.empty_like(ys)
    for lo, hi, size, scale in layout:
        ab = scale * (x[lo:hi].reshape(size, size) @ ys[:, lo:hi].reshape(-1, size, size))
        out[:, lo:hi] = (ab - ab.conj().transpose(0, 2, 1)).reshape(len(ys), hi - lo)
    return out


def _orthonormalize(rows, dim, candidate, tol):
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


def float_trace_rank(h0, obs, tol=1e-10):
    """Rank of [Tr H0 | Tr O] over the blocks of obs, from an SVD of the float block traces cut at tol."""
    t = np.trace(np.array([h0.regroup(obs.blocks).stack, obs.stack]), axis1=-2, axis2=-1).real.T
    s = np.linalg.svd(t, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def decomposed_dims_required(j_max, r, kind):
    """(D, D'): r plus size^2 - 1 over the orientation blocks of build_basis(j_max), and over kind's m >= 0 blocks."""
    from rotorkick.basis import ORIENTATION, block_decomposition, build_basis

    basis = build_basis(j_max)
    general, restricted = block_decomposition(basis, ORIENTATION), block_decomposition(basis, kind)
    sizes = general.filled.sum(axis=-1), restricted.filled.sum(axis=-1)[restricted.m >= 0]
    return tuple(r + int(np.sum(n**2 - 1)) for n in sizes)


def float_lie_closure(operators, tol=1e-10):
    """Dimension and orthonormal basis of the real Lie algebra generated by i H for the operators H, in floats.

    The floating-point closure the exact count replaced, one candidate at a
    time.  Every round commutes every basis element with every element the
    previous round added and orthonormalizes each commutator under
    Re Tr[X+ Y], keeping residuals above tol of its norm; a commutator no
    larger than tol |x| |f| is rounding noise and dropped.  The operators
    share one block decomposition (ValueError otherwise), and the work runs
    on the blocks that do not fold onto their mirror
    (BlockDecomposition.folded), weighted by the square root of the number
    of blocks each stands for.  The block trace
    directions the generators do not reach are excluded up front: the
    rounding along them grows with every normalized small residual.  The
    basis comes back as block stacks with a leading axis of length dim.
    Its margins are wide up to orientation j_max 5 and alignment j_max 6.
    """
    if not operators:
        return 0, np.zeros((0, 0, 0, 0), dtype=complex)
    blocks = operators[0].blocks
    if any(op.blocks != blocks for op in operators):
        raise ValueError("float_lie_closure needs operators on one block decomposition; regroup them first")
    fold = blocks.folded([op.stack for op in operators])
    distinct = np.flatnonzero(~fold)
    weights = np.sqrt(np.bincount(blocks.mirrors[fold], minlength=blocks.n_blocks) + 1)[distinct]
    source = (np.cumsum(~fold) - 1)[np.where(fold, blocks.mirrors, np.arange(blocks.n_blocks))]
    kept_spans = [spans(blocks)[b] for b in distinct]
    sizes = [span.stop - span.start for span in kept_spans]
    layout = []
    width = 0
    for size, weight in zip(sizes, weights):
        layout.append((width, width + size * size, size, 1.0 / weight))
        width += size * size
    compact = np.array(
        [
            np.concatenate(
                [w * (1j * op.stack[b, span, span]).ravel() for b, span, w in zip(distinct, kept_spans, weights)]
            )
            for op in operators
        ]
    )
    # the float view interleaves [Re, Im], so a dot product of two rows is Re Tr[X+ Y]
    elems = np.zeros((2 * width, width), dtype=complex)
    rows = elems.view(np.float64)
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
    fresh = np.array(accepted)
    while len(fresh):
        start = dim
        norms = np.linalg.norm(rows[excluded:start], axis=1), np.linalg.norm(fresh.view(np.float64), axis=1)
        floor = tol * np.outer(*norms)
        for i, x in enumerate(elems[excluded:start]):
            candidates = _commutators_with(x, fresh, layout).view(np.float64)
            for candidate, size, bound in zip(candidates, np.linalg.norm(candidates, axis=1), floor[i]):
                if size > bound:
                    dim = _orthonormalize(rows, dim, candidate, tol)
        fresh = elems[start:dim]
    found = elems[excluded:dim]

    size = blocks.slots.shape[1]
    one_copy = np.zeros((len(found), len(distinct), size, size), dtype=complex)
    for d, ((lo, hi, k, scale), span) in enumerate(zip(layout, kept_spans)):
        one_copy[:, d, span, span] = scale * found[:, lo:hi].reshape(-1, k, k)
    return len(found), one_copy[:, source]


def sequential_exact_closure(generators, sizes, p):
    """Reduced echelon basis mod the prime p, rows in pivot order, of the Lie algebra the rows generate.

    Each row holds blocks of the given sizes, flattened row-major one after
    another.  Every round brackets every element found so far with every
    element the previous round added, and reduces each bracket on its own
    against the basis, which is kept fully reduced.
    """
    width = generators.shape[1]
    basis = np.zeros((0, width), dtype=np.int64)
    pivots = []
    elements = []

    def bracket(x, y):
        out, lo = [], 0
        for n in sizes:
            a, b = x[lo : lo + n * n].reshape(n, n), y[lo : lo + n * n].reshape(n, n)
            out.append(((a @ b - b @ a) % p).ravel())
            lo += n * n
        return np.concatenate(out)

    def insert(v):
        nonlocal basis
        v = (v - (v[pivots] @ basis) % p) % p
        nonzero = np.flatnonzero(v)
        if not len(nonzero):
            return False
        c = nonzero[0]
        v = v * pow(int(v[c]), -1, p) % p
        basis = np.vstack([(basis - np.outer(basis[:, c], v) % p) % p, v])
        pivots.append(c)
        return True

    fresh = [g % p for g in generators if insert(g % p)]
    while fresh:
        elements += fresh
        fresh = [c for c in (bracket(x, f) for x in elements for f in fresh) if insert(c)]
    return basis[np.argsort(pivots)]


@dataclass(frozen=True)
class Band:
    """T O T^-1 on one block with m >= 0, tridiagonal, in Python integers.

    diagonal holds (numerator, denominator) per state, edges (w_e, a_e, b_e)
    per neighbouring slots k and k+1: w_e = E_k+1 - E_k, and the entries
    c_e^2 = a_e / b_e above the diagonal and 1 below it.
    """

    m: int
    js: list[int]
    diagonal: list[tuple[int, int]]
    edges: list[tuple[int, int, int]]


def rational_observable(j_max: int, kind: str) -> list[Band]:
    """T O T^-1 on the blocks with m >= 0, one Band each, in the order of block_decomposition; builds no basis.

    O couples each state only to its neighbours in the block, symmetrically:
    with c the coupling of slots k and k+1 (cos theta: c(j, m); cos^2
    theta: the product c(j, m) c(j+1, m)), the diagonal T with
    T[k+1] = T[k] / c turns the pair (c, c) into (c^2 above, 1 below).
    The diagonal, c(j-1, m)^2 + c(j, m)^2 for cos^2 theta, and H0 stay
    as they are, so every entry is rational.  Each c(j, m)^2 is taken once
    from squared_cos_theta_element.
    """
    from rotorkick.basis import ALIGNMENT
    from rotorkick.controllability import _runs
    from rotorkick.operators import squared_cos_theta_element

    out = []
    for m in range(j_max + 1):
        squares = [squared_cos_theta_element(j, m) for j in range(m, j_max + 1)]  # c(j, m)^2 at j - m
        for run in _runs(j_max, kind, m):
            js, edges = list(run), []
            diagonal = [(0, 1)] * len(js)  # cos(theta) has no diagonal entry: one shared zero for every state
            for k, j in enumerate(js):
                if kind == ALIGNMENT:
                    a, b = squares[j - m]
                    if j > m:
                        a0, b0 = squares[j - 1 - m]
                        a, b = a * b0 + a0 * b, b * b0
                    diagonal[k] = (a, b)
                if k + 1 < len(js):
                    a, b = squares[j - m]
                    if kind == ALIGNMENT:
                        a1, b1 = squares[j + 1 - m]
                        a, b = a * a1, b * b1
                    edges.append((js[k + 1] * (js[k + 1] + 1) - j * (j + 1), a, b))
            out.append(Band(m, js, diagonal, edges))
    return out


def reduced_sum(terms) -> tuple[int, int]:
    """sum a / b over the (a, b) of terms, every b positive, as a reduced fraction (numerator, denominator).

    The denominator is positive and coprime to the numerator, so two sums
    are equal exactly when their pairs are.  Reducing after every term
    keeps the integers small: the terms of one block share most factors of
    their denominators.
    """
    p, d = 0, 1
    for a, b in terms:
        p, d = p * b + a * d, d * b
        g = math.gcd(p, d)
        p, d = p // g, d // g
    return p, d


def square_trace(edges: list[tuple[int, int, int]], q: int) -> tuple[int, int]:
    """sum_e w_e^4q c_e^2, half of Tr (pi_b ad_H0^2q O)^2 on the block, as a reduced_sum."""
    return reduced_sum((w ** (4 * q) * a, b) for w, a, b in edges)


def _square_trace_at(entry: tuple[Band, list[tuple[int, int]]], q: int) -> tuple[int, int]:
    """square_trace of a (band, traces so far) entry at q, computed once and kept in the entry's list."""
    band, traces = entry
    while len(traces) < q:
        traces.append(square_trace(band.edges, len(traces) + 1))
    return traces[q - 1]


def trace_rank(bands: list[Band]) -> int:
    """Rank of the per-block trace matrix [Tr H0 | Tr O] on the bands, counted in Python integers.

    The similarity T leaves the traces alone and the m and -m blocks are
    equal, so the rows of the m >= 0 blocks span the matrix's row space.
    Each row, scaled to the integers (Tr H0 * q, p) with Tr O = p / q, is
    tested against the first nonzero one by a 2 x 2 minor.
    """
    rows = []
    for band in bands:
        p, q = reduced_sum(band.diagonal)
        rows.append((sum(j * (j + 1) for j in band.js) * q, p))
    nonzero = [row for row in rows if row != (0, 0)]
    if not nonzero:
        return 0
    x0, y0 = nonzero[0]
    return 2 if any(x * y0 != y * x0 for x, y in nonzero) else 1


def certify(bands: list[Band], j_max: int, kind: str) -> tuple[int, int]:
    """(dim_L, r) from the block and pair checks on the bands, as lie_closure took it before its closed form.

    The checks are those of the rotorkick.controllability docstring, run
    in Python integers: dim_L = sum_b (n_b^2 - 1) + r, with r the
    trace_rank of the bands.  A failed check raises NumericalError naming
    the block (its m and first j) or the pair.  The pair check computes
    each band's Tr Z_q^2 once per q, however many bands of its size it is
    compared with.
    """
    from rotorkick.errors import NumericalError

    r = trace_rank(bands)
    dim = r
    by_size: dict[int, list[tuple[Band, list[tuple[int, int]]]]] = {}
    for band in bands:
        n = len(band.js)
        if n < 2:
            continue
        if any(a == 0 for _, a, _ in band.edges) or len({abs(w) for w, _, _ in band.edges} - {0}) < n - 1:
            raise NumericalError(
                f"block check failed at j_max={j_max} ({kind}): the block m={band.m} from j={band.js[0]} "
                "has a zero coupling, a zero edge frequency or two edge frequencies of equal |w|"
            )
        entry = (band, [])
        for other in by_size.get(n, []):
            if all(_square_trace_at(entry, q) == _square_trace_at(other, q) for q in range(1, 2 * n - 1)):
                raise NumericalError(
                    f"pair check failed at j_max={j_max} ({kind}): the blocks m={other[0].m} from "
                    f"j={other[0].js[0]} and m={band.m} from j={band.js[0]} may be linked, "
                    f"Tr Z_q^2 agree at q = 1..{2 * n - 2}"
                )
        by_size.setdefault(n, []).append(entry)
        dim += n * n - 1
    return dim, r


def certified_closure(j_max: int, kind: str) -> tuple[int, int]:
    """certify on the rational_observable of the cutoff."""
    return certify(rational_observable(j_max, kind), j_max, kind)


# The prime of grouped_count.  The bands' denominators have prime factors no
# larger than 2 j_max + 3.
MODULUS = 1_000_003


def generators_mod_p(bands):
    """Block sizes and the rows of H0 and T O T^-1 mod MODULUS, dense, built from the bands of rational_observable.

    Each row holds the bands' blocks flattened row-major one after another:
    H0 = diag(j (j + 1)), and T O T^-1 has the band's diagonal, c_e^2 above
    it and 1 below it.  A zero coupling leaves both entries of its edge 0,
    as O has them: T can turn (c, c) into (c^2, 1) only for c != 0.
    """
    sizes, h0, obs = [], [], []
    for band in bands:
        n = len(band.js)
        o = np.zeros((n, n), dtype=np.int64)
        for k, (a, b) in enumerate(band.diagonal):
            o[k, k] = a * pow(b, -1, MODULUS) % MODULUS
        for k, (_, a, b) in enumerate(band.edges):
            o[k, k + 1], o[k + 1, k] = a * pow(b, -1, MODULUS) % MODULUS, a != 0
        sizes.append(n)
        h0.append(np.diag([j * (j + 1) for j in band.js]).ravel())
        obs.append(o.ravel())
    return sizes, np.array([np.concatenate(h0), np.concatenate(obs)], dtype=np.int64)


def _brackets(x, rows, sizes):
    """[x, f] mod MODULUS for the row x and every row f, one batched product per block."""
    out = np.empty_like(rows)
    lo = 0
    for n in sizes:
        hi = lo + n * n
        a = x[lo:hi].reshape(n, n)
        f = rows[:, lo:hi].reshape(-1, n, n)
        out[:, lo:hi] = ((a @ f - f @ a) % MODULUS).reshape(len(rows), hi - lo)
        lo = hi
    return out


def echelon(rows):
    """Reduced echelon form mod MODULUS of the rows, taken in order: (independent rows, their pivot columns).

    A row's pivot is its first nonzero column.
    """
    rows = rows.copy()
    kept, pivots = [], []
    for i in range(len(rows)):
        nonzero = np.flatnonzero(rows[i])
        if not len(nonzero):
            continue  # in the span of the rows before it
        c = nonzero[0]
        rows[i] = rows[i] * pow(int(rows[i, c]), -1, MODULUS) % MODULUS
        column = rows[:, c].copy()
        column[i] = 0
        rows = (rows - np.outer(column, rows[i]) % MODULUS) % MODULUS
        kept.append(i)
        pivots.append(c)
    return rows[kept], np.array(pivots, dtype=np.intp)


def extend(rows, pivots, candidates):
    """Add the span of the candidates to the reduced echelon rows: (rows, pivots, the rows added).

    The rows are zero at every pivot but their own, so one product reduces
    the whole group against them.  Only the candidates left nonzero go
    through the pivoting of echelon, and one more product clears the new
    pivot columns from the old rows.
    """
    residual = (candidates - (candidates[:, pivots] @ rows) % MODULUS) % MODULUS
    new, new_pivots = echelon(residual[residual.any(axis=1)])
    rows = (rows - (rows[:, new_pivots] @ new) % MODULUS) % MODULUS
    return np.concatenate([rows, new]), np.concatenate([pivots, new_pivots]), new


def grouped_closure(generators, sizes):
    """Reduced echelon basis mod MODULUS, rows in pivot order, of the Lie algebra the generator rows generate.

    The algebra generated by a set X is spanned by the right-normed
    brackets [x1, [x2, ... [x_k-1, x_k]]] with every x_i in X, in any
    characteristic, so a space that holds X and [x, f] for every x in X
    and f in it is the algebra.  Each round therefore brackets only the
    generators with the rows the previous round added, as they were
    added; those rows span the basis, and the rounds stop when one adds
    nothing.  The reduced echelon form of a space is unique, so the basis
    does not depend on the order of the work.  The int64 products stay
    exact while (j_max + 1)^3 (MODULUS - 1)^2 < 2^63, so up to j_max 208.
    """
    rows = np.zeros((0, generators.shape[1]), dtype=np.int64)
    pivots = np.zeros(0, dtype=np.intp)
    candidates = generators % MODULUS
    while len(candidates):
        rows, pivots, fresh = extend(rows, pivots, candidates)
        candidates = np.concatenate([_brackets(x, fresh, sizes) for x in generators])
    return rows[np.argsort(pivots)]


def grouped_count(bands):
    """dim_L counted mod MODULUS from the bands, with the unique reduced echelon basis mod MODULUS it ends with.

    The count lie_closure fell back to before its checks were proved to
    hold, and the reference the certificate is checked against.  The rank mod MODULUS of the rational brackets never exceeds
    their rank over the rationals, so the count is a lower bound on dim_L,
    and equal to it when it reaches the upper bound D'.
    """
    sizes, generators = generators_mod_p(bands)
    rows = grouped_closure(generators, sizes)
    return len(rows), rows
