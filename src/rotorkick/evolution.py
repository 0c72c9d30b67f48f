"""Exact free evolution of trace functionals as finite trigonometric series.

For a diagonal Hamiltonian with energies E_a, the functional
t -> Tr[B rho(t)] of a freely evolving state is a finite sum of terms
c * exp(-i (E_a - E_b) t).  The rotor's differences E_a - E_b are even
integers 2k, so the coefficients live on the integer lattice of k, and the
series sampled on a uniform grid over one period pi is one FFT of them.
The searches sample F and F' on a grid sized to the series' bandwidth.  A
curvature bound proves which grid steps can hold neither the global
maximum nor a level-set edge, the few steps it cannot clear are
subdivided, and one Newton root finder on the exact derivatives refines
the maxima (roots of F') and the level-set edges (roots of F - threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError

PERIOD = np.pi  # free-evolution period in units of 1/B (even integer level spacings)

FLAT_TOL = 1e-14
TIE_TOL = 1e-12
ROOT_TOL = 1e-14
SAMPLES_PER_OSCILLATION = 16  # search-grid samples per period of the fastest nonzero term

# A set of grid steps is one (6, n) array with these rows: both ends, F at both ends, F' at both ends.
_LO, _HI, _F_LO, _F_HI, _S_LO, _S_HI = range(6)


class FrequencyLattice:
    """Lattice index k = (E_a - E_b) / 2 of every entry of a row of energies.

    energies is the diagonal of H0, shape (N,) for N x N matrices, or one
    row per class, shape (n_classes, size), for block stacks whose block b
    has the energies of row classes[b] (see BlockDecomposition.rows); by
    default every row is a block of its own.  Built once per basis or train
    and shared by the series on it.  Energies whose differences are not all
    even integers raise ValueError: the period would not be pi.
    """

    def __init__(self, energies: np.ndarray, classes: np.ndarray | None = None):
        energies = np.atleast_2d(np.asarray(energies, dtype=float))
        half = 0.5 * (energies - energies.min(initial=np.inf))
        k = np.rint(half)
        if np.any(k != half):
            raise ValueError("energy differences are not all even integers; the free-evolution period is not pi")
        k = k.astype(np.int64)
        diffs = k[:, :, None] - k[:, None, :]
        self.kmax = int(diffs.max(initial=0))
        self.index = (diffs + self.kmax).reshape(len(k), -1)
        self.classes = classes
        self.freqs = 2.0 * np.arange(-self.kmax, self.kmax + 1)

    def sums(self, g: np.ndarray) -> np.ndarray:
        """The entries of a matrix or block stack summed over the blocks of each row, shaped like index.

        A numpy reduction adds the blocks one after another, so the sums do
        not depend on a BLAS thread count.
        """
        rows = len(self.index)
        if self.classes is None:  # a matrix, or every row a block of its own
            return g.reshape(rows, -1)
        if rows == 1:
            return g.sum(axis=0).reshape(1, -1)
        sums = [np.sum(g, axis=0, where=(self.classes == c)[:, None, None]) for c in range(rows)]
        return np.array(sums).reshape(rows, -1)


@dataclass(frozen=True)
class _SearchGrid:
    """The n steps [i h, (i + 1) h], h = PERIOD / n, of a search grid, and bounds on F'' and F'''."""

    steps: np.ndarray
    m2: float  # sum |c| w^2 >= |F''| everywhere
    m3: float  # sum |c| |w|^3 >= |F'''| everywhere


class TraceSeries:
    """t -> Tr[B rho(t)] with rho(0) given and rho evolving freely under diag(energies).

    rho_matrix and b_matrix are N x N matrices or block stacks, and
    energies their diagonal energies (one row per block) or the
    FrequencyLattice built from them.  coef[k + kmax] is the coefficient
    of exp(-2ikt).  Point evaluations (values, value, derivative) sum
    over the nonzero coefficients only; grid_values folds the whole
    lattice into one FFT.  A NaN or infinite coefficient raises
    NumericalError.
    """

    def __init__(self, rho_matrix: np.ndarray, b_matrix: np.ndarray, energies):
        lattice = energies if isinstance(energies, FrequencyLattice) else FrequencyLattice(energies)
        g, index = lattice.sums(rho_matrix * np.swapaxes(b_matrix, -1, -2)).ravel(), lattice.index.ravel()
        n = lattice.freqs.size
        self.kmax = lattice.kmax
        self.freqs = lattice.freqs
        self.coef = np.bincount(index, g.real, n) + 1j * np.bincount(index, g.imag, n)
        if not np.isfinite(self.coef).all():
            raise NumericalError("trace series has a non-finite coefficient")
        terms = np.flatnonzero(self.coef)
        self._terms = (self.coef[terms], self.freqs[terms])
        self._k = terms - self.kmax  # lattice index of each nonzero term
        self._neg_iw = -1j * self._terms[1]
        self._rates: dict = {}

    def values(self, ts: np.ndarray, order=0) -> np.ndarray:
        """The series, or its order-th time derivative, at every time in ts.

        order may also be a tuple or a list of orders: the result then has
        one row per order, all taken from one phase matrix.  Each time sums
        its terms in real arithmetic, in one fixed order along the terms
        axis, so a value does not depend on which other times share the
        call, nor on how the orders are given.
        """
        re, im = self._rated(order)
        phases = np.exp(np.multiply.outer(ts, self._neg_iw))
        return (re * phases.real - im * phases.imag).sum(axis=-1)

    def _rated(self, order) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of c (-i w)^order over the nonzero terms, shaped to broadcast over the times.

        An order gives shape (1, terms), a tuple or list of orders one such
        row per order, stacked from the rows of the single orders.  Formed
        once per series and order, and once per tuple, by real products
        only: a complex product can round differently from one call to the
        next.
        """
        if isinstance(order, list):
            order = tuple(order)
        rates = self._rates.get(order)
        if rates is None:
            if isinstance(order, tuple):
                rows = [self._rated(o) for o in order]
                rates = (np.array([re for re, _ in rows]), np.array([im for _, im in rows]))
            else:
                coef, freqs = self._terms
                re, im = coef.real * freqs**order, coef.imag * freqs**order
                for _ in range(order % 4):  # times -i
                    re, im = im, -re
                rates = (re[None], im[None])
            self._rates[order] = rates
        return rates

    def grid_values(self, t_start: float, n_samples: int, order: int = 0) -> np.ndarray:
        """The series (or its order-th derivative) at t_start + i * PERIOD / n_samples for i < n_samples, by one FFT.

        Exact at any n_samples: lattice frequencies beyond the grid fold
        onto the same samples, the term of index k onto slot k mod
        n_samples.  Only the nonzero terms are folded; the zero ones would
        add nothing to any slot.
        """
        coef, freqs = self._terms
        shifted = coef * np.exp(self._neg_iw * t_start)
        if order:
            shifted *= (1, -1j, -1, 1j)[order % 4] * freqs**order
        slot = self._k % n_samples
        folded = np.bincount(slot, shifted.real, n_samples) + 1j * np.bincount(slot, shifted.imag, n_samples)
        return np.fft.fft(folded).real

    def flat_value(self) -> float | None:
        """F at t = 0 if the series is flat, else None.

        The series counts as flat when its search-grid samples spread less
        than FLAT_TOL; global_max then reports this value at t = 0 without
        searching, and a level set of it is all or nothing.
        """
        f = self._search.steps[_F_LO]
        return float(f[0]) if float(f.max() - f.min()) < FLAT_TOL else None

    def value(self, t: float) -> float:
        return float(self.values(np.array([t]))[0])

    def derivative(self, t: float, order: int = 1) -> float:
        return float(self.values(np.array([t]), order)[0])

    @cached_property
    def _search(self) -> _SearchGrid:
        """The search grid: grid_size(bandwidth) steps over [0, PERIOD), sampled by one FFT, shared by both searches.

        The series is the real part of the lattice sum, which is the sum of
        the Hermitian part (c_k + conj(c_-k)) / 2, real at every t.  So F'
        rides in the imaginary part of the same transform, scaled by a power
        of two s <= 1 / max|w|: the transform of c (1 + s w) is F + i s F'.
        """
        c = 0.5 * (self.coef + self.coef[::-1].conj())
        terms = np.flatnonzero(c)
        c, w = c[terms], self.freqs[terms]
        w_max = float(np.abs(w).max(initial=0.0))
        n = grid_size(int(w_max) // 2)
        s = math.ldexp(1.0, -math.frexp(w_max)[1])
        a = c * (1.0 + s * w)
        slot = (terms - self.kmax) % n
        z = np.fft.fft(np.bincount(slot, a.real, n) + 1j * np.bincount(slot, a.imag, n))
        ends = np.empty((3, n + 1))  # time, F and F' at the grid points, and again at PERIOD
        ends[0] = np.arange(n + 1) * (PERIOD / n)
        ends[1, :n], ends[2, :n] = z.real, z.imag / s
        ends[1:, n] = ends[1:, 0]
        c2 = np.abs(c) * w**2
        steps = np.stack((ends[:, :-1], ends[:, 1:]), axis=1).reshape(6, n)
        return _SearchGrid(steps=steps, m2=float(c2.sum()), m3=float(c2 @ np.abs(w)))


def _roots(
    series: TraceSeries, order: int, level: float, lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray
) -> np.ndarray:
    """Where the order-th derivative of the series crosses level, one root in every bracket [lo[i], hi[i]].

    g_lo and g_hi are F^(order) - level sampled at the bracket ends, one of
    them negative and the other not.  Every bracket starts at the secant
    point of its samples and runs safeguarded Newton on the exact next
    derivative.  One evaluation per iteration gives both derivatives at
    the current points of all live brackets; the bookkeeping of each
    bracket is done in Python floats, which round as numpy's float64 does.
    Each evaluation shrinks the bracket around the sign change: a NaN
    value of F^(order) counts as short of the root.  A Newton point that
    is not strictly inside the bracket, or a step longer than half the
    previous move, is replaced by the bracket's midpoint, so the moves
    shrink at least geometrically; so is the step of a zero slope.  A
    bracket is done when its Newton step or its width falls below
    tol = ROOT_TOL * max(1, |t|).  The check on the step comes first: on a
    root that sits on a grid point, roundoff puts the converged Newton
    point just past the bracket end, and refusing it would crawl there by
    bisection.  A converged point outside the bracket is moved onto its
    nearer end.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    t = (lo + (hi - lo) * (g_lo / (g_lo - g_hi))).tolist()  # the secant points
    rises = (g_lo < 0).tolist()  # g rises through zero
    lo, hi = lo.tolist(), hi.tolist()
    moved = [h - l for l, h in zip(lo, hi)]
    live = range(len(t))
    orders = (order, order + 1)
    while live:
        gs, slopes = series.values(np.array([t[i] for i in live]), orders).tolist()
        still = []
        for i, g, slope in zip(live, gs, slopes):
            g -= level
            now, l, h = t[i], lo[i], hi[i]
            if g >= 0 if rises[i] else g <= 0:  # past the root (False for NaN)
                h = now
            else:
                l = now
            tol = ROOT_TOL * max(1.0, abs(now))
            converged = newton_ok = False
            if slope != 0.0:
                step = g / slope
                newton = now - step
                converged = abs(step) <= tol  # False for NaN
                newton_ok = l < newton < h and 2.0 * abs(step) <= moved[i]
            if converged or newton_ok:
                newton = newton if newton > l else l
                t[i], moved[i] = (newton if newton < h else h), abs(step)
            else:
                t[i], moved[i] = 0.5 * (l + h), 0.5 * (h - l)
            lo[i], hi[i] = l, h
            if not (converged or h - l <= tol):
                still.append(i)
        live = still
    return np.array(t, dtype=float)


def grid_size(kmax: int) -> int:
    """Search-grid points per period: the power of two giving SAMPLES_PER_OSCILLATION per period of exp(-2i kmax t)."""
    return 1 << max(SAMPLES_PER_OSCILLATION * kmax - 1, 0).bit_length()


def _halved(series: TraceSeries, steps: np.ndarray) -> np.ndarray:
    """Both halves of every step, with F and F' at the midpoints from one evaluation."""
    lo, hi, f_lo, f_hi, s_lo, s_hi = steps
    mid = 0.5 * (lo + hi)
    f_mid, s_mid = series.values(mid, (0, 1))
    return np.hstack([np.stack([lo, mid, f_lo, f_mid, s_lo, s_mid]), np.stack([mid, hi, f_mid, f_hi, s_mid, s_hi])])


def _slack(steps: np.ndarray, m: float) -> np.ndarray:
    """m h^2 / 8 on every step: F strays at most M2 h^2 / 8 from its linear interpolant, and F' M3 h^2 / 8."""
    return (0.125 * m) * (steps[_HI] - steps[_LO]) ** 2


def _settled(steps: np.ndarray, m3: float) -> np.ndarray:
    """Steps over which F' provably keeps one sign (both end slopes beyond M3 h^2 / 8), or too narrow to resolve."""
    bound = _slack(steps, m3)
    s_lo, s_hi = steps[_S_LO], steps[_S_HI]
    one_signed = (np.minimum(s_lo, s_hi) > bound) | (np.maximum(s_lo, s_hi) < -bound)
    return one_signed | (steps[_HI] - steps[_LO] <= ROOT_TOL * np.maximum(1.0, steps[_HI]))


def _within(steps: np.ndarray, taus: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Steps that lie, circularly, inside (tau - radius, tau + radius) of some tau."""
    lo, width = steps[_LO][:, None], (steps[_HI] - steps[_LO])[:, None]
    offset = (lo - taus + 0.5 * PERIOD) % PERIOD - 0.5 * PERIOD
    return ((offset > -radius) & (offset + width < radius)).any(axis=1)


@dataclass(frozen=True)
class MaxResult:
    t: float  # time of the earliest global maximum, in [0, PERIOD)
    value: float
    flat: bool
    refined: int  # grid steps the certificate subdivided


def global_max(series: TraceSeries) -> MaxResult:
    """Earliest global maximum of the series in [0, PERIOD).

    F and F' are sampled on the series' search grid.  A step over which F'
    turns from positive to non-positive brackets a local maximum; every such
    step that can reach the best sample within TIE_TOL is refined, all at
    once, to a root of F' (_roots, on the exact series).  A step is cleared,
    proved to hold no maximum within TIE_TOL of the best value found, if
      * max(F_i, F_i+1) + M2 h^2 / 8 < best - TIE_TOL,
      * F' provably keeps one sign on it, or
      * it lies, circularly, within r = 3 |F''(tau)| / M3 of a refined peak
        tau with F''(tau) < 0, since near tau
        F(t) <= F(tau) + (t - tau)^2 (F''(tau) / 2 + M3 |t - tau| / 6).
    Every step left is halved, all at once, and its halves are bracketed or
    cleared in turn.  best only grows, so the grid steps that the first
    rule clears against the best sample are dropped before any root is
    refined.  A step narrower than ROOT_TOL * max(1, |t|) is
    settled, and so is one too short to hide more than TIE_TOL above its
    ends (M2 h^2 / 8 <= TIE_TOL) that cannot beat best by more than
    TIE_TOL: that ends the search on a degenerate maximum, F''(tau) = 0.
    Ties within TIE_TOL resolve to the earliest time, t = 0 included.  A
    flat functional (TraceSeries.flat_value) is flagged and reported at
    t = 0.
    """
    flat = series.flat_value()
    if flat is not None:
        return MaxResult(t=0.0, value=flat, flat=True, refined=0)
    grid = series._search
    steps = grid.steps
    best = steps[_F_LO].max()  # a sampled value: a lower bound on the maximum

    taus = ys = radius = np.zeros(0)
    refined = 0
    while True:
        slack = _slack(steps, grid.m2)
        top = np.maximum(steps[_F_LO], steps[_F_HI]) + slack
        if not taus.size:  # best only grows, so the grid steps cleared by the best sample stay cleared
            keep = top >= best - TIE_TOL
            steps, slack, top = steps[:, keep], slack[keep], top[keep]
        up = (top >= best - TIE_TOL) & (steps[_S_LO] > 0) & (steps[_S_HI] <= 0)
        if taus.size:
            up[up] = ~_within(steps[:, up], taus, radius)
        new = _roots(series, 1, 0.0, steps[_LO, up], steps[_HI, up], steps[_S_LO, up], steps[_S_HI, up]) % PERIOD
        if not taus.size:
            new = np.concatenate(([0.0], new))  # the window start is a candidate too
        if new.size:
            f, curvature = series.values(new, (0, 2))
            r = np.where(curvature < 0, -3.0 * curvature / grid.m3, 0.0)
            if not taus.size:
                r[0] = 0.0  # F'(0) is not 0 in general, so t = 0 covers no step
            taus, ys, radius = np.concatenate((taus, new)), np.concatenate((ys, f)), np.concatenate((radius, r))
            best = max(best, ys.max())

        short = slack <= TIE_TOL
        left = ~((top < best - TIE_TOL) | (short & (top <= best + TIE_TOL)) | _settled(steps, grid.m3))
        left[left] = ~_within(steps[:, left], taus, radius)
        if not left.any():
            break
        refined += int(np.count_nonzero(left))
        steps = _halved(series, steps[:, left])

    # the window start itself wins any tie (earliest admissible time)
    best = ys.max()
    if ys[0] >= best - TIE_TOL:
        return MaxResult(t=0.0, value=float(ys[0]), flat=False, refined=refined)
    tie = np.flatnonzero(ys >= best - TIE_TOL)
    i = tie[np.argmin(taus[tie])]
    return MaxResult(t=float(taus[i]), value=float(ys[i]), flat=False, refined=refined)


@dataclass(frozen=True)
class LevelSetMeasure:
    total: float  # summed measure of {t : F(t) >= threshold} over one period, / PERIOD
    longest: float  # longest contiguous super-threshold interval (circular), / PERIOD


def measure_above(series: TraceSeries, threshold: float) -> LevelSetMeasure:
    """Fraction of one free-evolution period where the series stays at or above threshold.

    F and F' are sampled on the series' search grid over [0, PERIOD).  A
    step over which F - threshold keeps its sign holds no crossing if both
    ends lie more than M2 h^2 / 8 - TIE_TOL from the threshold (any
    excursion it hides stays within TIE_TOL of the threshold) or F'
    provably keeps one sign on it; a step over which the sign flips holds
    exactly one crossing where F' keeps one sign.  Every other step is
    halved, all at once, until one of these holds or it is narrower than
    ROOT_TOL * max(1, |t|).  Each crossing is then refined on the exact
    series (_roots), so the edges are exact to roundoff.  The measure and
    the longest run do not depend on where the period starts; the window is
    circular, so the runs touching both window edges merge into one for the
    longest stretch.
    """
    grid = series._search
    steps = grid.steps
    brackets = []
    while steps.size:
        g_lo, g_hi = steps[_F_LO] - threshold, steps[_F_HI] - threshold
        flip = (g_lo < 0) != (g_hi < 0)
        settled = _settled(steps, grid.m3)
        far = np.minimum(np.abs(g_lo), np.abs(g_hi)) + TIE_TOL > _slack(steps, grid.m2)
        brackets.append(steps[:, flip & settled])
        left = ~(settled | (far & ~flip))
        steps = _halved(series, steps[:, left]) if left.any() else steps[:, :0]
    lo, hi, f_lo, f_hi = np.hstack(brackets)[:4]
    crossings = np.sort(_roots(series, 0, threshold, lo, hi, f_lo - threshold, f_hi - threshold))

    # alternating runs from the state at t = 0; the total adds the runs in time order
    above = bool(grid.steps[_F_LO, 0] >= threshold)
    lengths = np.diff(np.concatenate(([0.0], crossings, [PERIOD])))
    runs = lengths[(np.arange(lengths.size) % 2 == 0) == above]
    if not runs.size:
        return LevelSetMeasure(total=0.0, longest=0.0)
    longest = runs.max()
    if above and runs.size >= 2 and lengths.size % 2:  # the first and the last run meet across t = 0
        longest = max(longest, runs[0] + runs[-1])
    return LevelSetMeasure(total=float(np.cumsum(runs)[-1]) / PERIOD, longest=float(longest) / PERIOD)
