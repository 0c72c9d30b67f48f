"""Exact free evolution of trace functionals as finite trigonometric series.

For a diagonal Hamiltonian with energies E_a, the functional
t -> Tr[B rho(t)] of a freely evolving state is a finite sum of terms
c * exp(-i (E_a - E_b) t).  The rotor's differences E_a - E_b are even
integers 2k, so the coefficients live on the integer lattice of k, and the
series sampled on a uniform grid over one period pi is one FFT of them.
The grid brackets the maxima (roots of F') and the level-set edges (roots
of F - threshold), and one Newton root finder on the exact derivatives
refines them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

PERIOD = np.pi  # free-evolution period in units of 1/B (even integer level spacings)

FLAT_TOL = 1e-14
TIE_TOL = 1e-12
REFINE_TOL = 1e-10
ROOT_TOL = 1e-14


class FrequencyLattice:
    """Lattice index k = (E_a - E_b) / 2 of every matrix entry over states with given energies.

    energies is the diagonal of H0, shape (N,) for N x N matrices, or one
    row per block, shape (n_blocks, size), for block stacks.  Built once
    per basis or train and shared by the series on it.  Energies whose
    differences are not all even integers raise ValueError: the period
    would not be pi.
    """

    def __init__(self, energies: np.ndarray):
        energies = np.asarray(energies, dtype=float)
        half = 0.5 * (energies - energies.min(initial=np.inf))
        k = np.rint(half)
        if np.any(k != half):
            raise ValueError("energy differences are not all even integers; the free-evolution period is not pi")
        k = k.astype(np.int64)
        diffs = k[..., :, None] - k[..., None, :]
        self.kmax = int(diffs.max(initial=0))
        self.index = (diffs + self.kmax).ravel()
        self.freqs = 2.0 * np.arange(-self.kmax, self.kmax + 1)


class TraceSeries:
    """t -> Tr[B rho(t)] with rho(0) given and rho evolving freely under diag(energies).

    rho_matrix and b_matrix are N x N matrices or block stacks, and
    energies their diagonal energies or the FrequencyLattice built from
    them.  coef[k + kmax] is the coefficient of exp(-2ikt).  Point
    evaluations (values, value, derivative) sum over the nonzero
    coefficients only; grid_values folds the whole lattice into one FFT.
    A NaN or infinite coefficient raises NumericalError.
    """

    def __init__(self, rho_matrix: np.ndarray, b_matrix: np.ndarray, energies):
        lattice = energies if isinstance(energies, FrequencyLattice) else FrequencyLattice(energies)
        g = (rho_matrix * np.swapaxes(b_matrix, -1, -2)).ravel()
        n = lattice.freqs.size
        self.kmax = lattice.kmax
        self.freqs = lattice.freqs
        self.coef = np.bincount(lattice.index, g.real, n) + 1j * np.bincount(lattice.index, g.imag, n)
        if not np.isfinite(self.coef).all():
            raise NumericalError("trace series has a non-finite coefficient")
        terms = np.flatnonzero(self.coef)
        self._terms = (self.coef[terms], self.freqs[terms])

    def values(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """The series, or its order-th time derivative, at every time in ts."""
        coef, freqs = self._terms
        if order:
            coef = coef * _rate(freqs, order)
        return (coef @ np.exp(-1j * np.outer(freqs, ts))).real

    def grid_values(self, t_start: float, n_samples: int, order: int = 0) -> np.ndarray:
        """The series (or its order-th derivative) at t_start + i * PERIOD / n_samples for i < n_samples, by one FFT.

        Exact at any n_samples: lattice frequencies beyond the grid fold
        onto the same samples.
        """
        shifted = self.coef * np.exp(-1j * self.freqs * t_start)
        if order:
            shifted *= _rate(self.freqs, order)
        slot = np.arange(-self.kmax, self.kmax + 1) % n_samples
        folded = np.bincount(slot, shifted.real, n_samples) + 1j * np.bincount(slot, shifted.imag, n_samples)
        return np.fft.fft(folded).real

    def value(self, t: float) -> float:
        return float(self.values(np.array([t]))[0])

    def derivative(self, t: float, order: int = 1) -> float:
        return float(self.values(np.array([t]), order)[0])


def _rate(freqs: np.ndarray, order: int) -> np.ndarray:
    """(-i freqs)^order, the factor the order-th time derivative puts on each exp(-i freqs t)."""
    return (1, -1j, -1, 1j)[order % 4] * freqs**order


def _roots(
    series: TraceSeries, order: int, level: float, lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray
) -> np.ndarray:
    """Where the order-th derivative of the series crosses level, one root in every bracket [lo[i], hi[i]].

    g_lo and g_hi are F^(order) - level sampled at the bracket ends, one of
    them negative and the other not.  Every bracket starts at the secant
    point of its samples and runs safeguarded Newton on the exact next
    derivative, all at once.  Each evaluation shrinks the bracket around
    the sign change.  A Newton point that is not strictly inside the
    bracket, or a step longer than half the previous move, is replaced by
    the bracket's midpoint, so the moves shrink at least geometrically.  A
    bracket is done when its Newton step or its width falls below tol =
    ROOT_TOL * max(1, |t|).  The check on the step comes first: on a root
    that sits on a grid point, roundoff puts the converged Newton point
    just past the bracket end, and refusing it would crawl there by
    bisection.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    sign = np.where(g_lo < 0, 1.0, -1.0)  # g rises through zero where g_lo < 0
    t = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
    moved = hi - lo
    live = np.arange(t.size)
    while live.size:
        tl, l, h = t[live], lo[live], hi[live]
        g = series.values(tl, order) - level
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / series.values(tl, order + 1)
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


def grid_size(kmax: int, n_min: int) -> int:
    """Samples per period: n_min, or the power of two giving 8 per fastest oscillation if larger."""
    return max(n_min, 1 << max(8 * kmax - 1, 0).bit_length())


@dataclass(frozen=True)
class MaxResult:
    t: float  # absolute time of the earliest global maximum
    value: float
    flat: bool


def global_max(series: TraceSeries, t_start: float, n_samples: int = 4096) -> MaxResult:
    """Earliest global maximum of the series in [t_start, t_start + PERIOD).

    The slope is sampled on grid_size(kmax, n_samples) points; every grid
    step over which it turns from positive to non-positive holds a local
    maximum, and all of them are refined at once to a root of the slope
    (_roots, on the exact series).  Ties within TIE_TOL resolve to the
    earliest time, the window start included.  A functional flat to within
    FLAT_TOL is flagged and reported at t_start.
    """
    n_samples = grid_size(series.kmax, n_samples)
    vals = series.grid_values(t_start, n_samples)
    if float(vals.max() - vals.min()) < FLAT_TOL:
        return MaxResult(t=t_start, value=float(vals[0]), flat=True)

    h = PERIOD / n_samples
    slope = series.grid_values(t_start, n_samples, order=1)
    nxt = np.roll(slope, -1)
    k = np.flatnonzero((slope > 0) & (nxt <= 0))
    taus = (_roots(series, 1, 0.0, t_start + k * h, t_start + (k + 1) * h, slope[k], nxt[k]) - t_start) % PERIOD
    taus[PERIOD - taus < REFINE_TOL] = 0.0  # peak straddling the window start
    ys = series.values(t_start + taus)
    # the window start itself wins any tie (earliest admissible time)
    v0 = series.value(t_start)
    if v0 >= ys.max(initial=-np.inf) - TIE_TOL:
        return MaxResult(t=t_start, value=v0, flat=False)
    tau_star = float(taus[ys >= ys.max() - TIE_TOL].min())
    return MaxResult(t=t_start + tau_star, value=series.value(t_start + tau_star), flat=False)


@dataclass(frozen=True)
class LevelSetMeasure:
    total: float  # summed measure of {t : F(t) >= threshold} over one period, / PERIOD
    longest: float  # longest contiguous super-threshold interval (circular), / PERIOD


def measure_above(
    series: TraceSeries,
    threshold: float,
    t_anchor: float = 0.0,
    n_samples: int = 8192,
) -> LevelSetMeasure:
    """Fraction of one free-evolution period where the series stays at or above threshold.

    Sampled on grid_size(kmax, n_samples) points of [t_anchor, t_anchor +
    PERIOD); every grid step over which the series crosses threshold is
    refined to the crossing on the exact series (_roots), so the edges are
    exact to roundoff.  The window is circular, so intervals touching both
    window edges merge when computing the longest stretch.
    """
    n_samples = grid_size(series.kmax, n_samples)
    h = PERIOD / n_samples
    g = series.grid_values(t_anchor, n_samples) - threshold
    above = g >= 0
    if bool(above.all()):
        return LevelSetMeasure(total=1.0, longest=1.0)
    if not bool(above.any()):
        return LevelSetMeasure(total=0.0, longest=0.0)

    # grid steps over which the sign flips, circularly (F has period PERIOD)
    nxt = np.roll(g, -1)
    k = np.flatnonzero(above != (nxt >= 0))
    crossings = np.sort(_roots(series, 0, threshold, t_anchor + k * h, t_anchor + (k + 1) * h, g[k], nxt[k]))

    # walk alternating intervals starting from the state at t_anchor
    edges = [t_anchor] + crossings.tolist() + [t_anchor + PERIOD]
    state = bool(above[0])
    lengths = []
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if state:
            total += hi - lo
            lengths.append((lo, hi))
        state = not state
    longest = max(hi - lo for lo, hi in lengths) if lengths else 0.0
    # merge across the circular wrap when both window edges are super-threshold
    if bool(above[0]) and len(lengths) >= 2:
        first_lo, first_hi = lengths[0]
        last_lo, last_hi = lengths[-1]
        if first_lo == t_anchor and last_hi == t_anchor + PERIOD:
            longest = max(longest, (first_hi - first_lo) + (last_hi - last_lo))
    return LevelSetMeasure(total=total / PERIOD, longest=longest / PERIOD)
