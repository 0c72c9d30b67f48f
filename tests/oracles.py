"""Independent oracles for the test suite.

These deliberately avoid the package's own code paths: matrix elements come
from quadrature over associated Legendre functions, pairings from exhaustive
permutation search, and partition sums from direct summation.  The
exception is sequential_lie_closure, a reference loop compared bit for bit,
which shares the package's arithmetic.
"""

import itertools
import math
from unittest import mock

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


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def block_unitary(n: int, blocks, rng: np.random.Generator) -> np.ndarray:
    """Unitary acting as an independent Haar unitary inside every block."""
    u = np.eye(n, dtype=complex)
    for block in blocks.blocks:
        idx = list(block.members)
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
        res = global_max(TraceSeries(rho, drive, energies), 0.0, n_samples=4096)
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
    final = global_max(exp_s, 0.0)
    out["final_efficiency"] = final.value
    out["final_projection"] = None if proj is None else global_max(TraceSeries(rho, proj, energies), 0.0).value
    duration = measure_above(exp_s, duration_threshold, t_anchor=final.t)
    out["final_duration"] = (duration.total, duration.longest)
    out["maxima"].append(final.value if strategy == S1 else out["final_projection"])
    return out


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
        pieces = [list(range(n))] if obs.blocks is None else [list(b.members) for b in obs.blocks.blocks]
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
    for b, block in enumerate(blocks.blocks):
        label[list(block.members)] = b
    off = label[:, None] != label[None, :]
    for name, matrix in (("state", rho0.matrix), ("observable", obs.matrix)):
        if off.any() and np.max(np.abs(matrix[off])) > 1e-12:
            raise ValueError(f"{name} is not block diagonal")
    mat = np.zeros((n, n), dtype=complex)
    achieved = 0.0
    for block in blocks.blocks:
        idx = list(block.members)
        chi, vec = np.linalg.eigh(obs.matrix[np.ix_(idx, idx)])
        w_block = np.linalg.eigvalsh(rho0.matrix[np.ix_(idx, idx)])
        chi, vec, w_block = chi[::-1], vec[:, ::-1], w_block[::-1]
        achieved += float(np.dot(chi, w_block))
        mat[np.ix_(idx, idx)] = (vec * w_block) @ vec.conj().T
    return 0.5 * (mat + mat.conj().T), achieved


def block_stack(matrix, blocks):
    """The block stack of a dense matrix from the layout's definition alone.

    Block b is matrix[np.ix_(members, members)] for the members of the b-th
    block, zero-padded to the largest block; entries coupling two blocks are
    left out.
    """
    size = max(len(block.members) for block in blocks.blocks)
    stack = np.zeros((len(blocks.blocks), size, size), dtype=complex)
    for b, block in enumerate(blocks.blocks):
        idx = list(block.members)
        stack[b, : len(idx), : len(idx)] = matrix[np.ix_(idx, idx)]
    return stack


def block_diagonal_part(matrix, blocks):
    """The matrix with every entry coupling two blocks set to zero."""
    out = np.zeros_like(matrix)
    for block in blocks.blocks:
        idx = list(block.members)
        out[np.ix_(idx, idx)] = matrix[np.ix_(idx, idx)]
    return out


def _commutators_with(x, ys, layout):
    """Compact [x, y] for one row x and every row y of ys, x broadcast over one batched matmul per block."""
    out = np.empty_like(ys)
    for lo, hi, size, scale in layout:
        ab = scale * (x[lo:hi].reshape(size, size) @ ys[:, lo:hi].reshape(-1, size, size))
        out[:, lo:hi] = (ab - ab.conj().transpose(0, 2, 1)).reshape(len(ys), hi - lo)
    return out


def _sequential_grow(elems, excluded, dim, fresh, layout, tol):
    from rotorkick.controllability import _orthonormalize

    rows = elems.view(np.float64)
    while len(fresh):
        start = dim
        for x in elems[excluded:start]:
            for candidate in _commutators_with(x, fresh, layout).view(np.float64):
                dim = _orthonormalize(rows, dim, candidate, tol)
        fresh = elems[start:dim]
    return dim


def sequential_lie_closure(operators):
    """lie_closure with its rounds run one candidate at a time, as before candidates were screened in groups.

    Every commutator [x, f] of a basis element x with a new element f of
    the previous round goes through _orthonormalize on its own, x-major,
    f-minor.  The seeding, the Gram-Schmidt step and the returned stacks
    are the package's own, so the basis must agree bit for bit.
    """
    from rotorkick import controllability

    with mock.patch.object(controllability, "_grow", _sequential_grow):
        return controllability.lie_closure(operators)
