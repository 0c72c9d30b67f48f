"""Exact free evolution of trace functionals as finite trigonometric series.

For a diagonal Hamiltonian with energies E_a, the functional
t -> Tr[B rho(t)] of a freely evolving state is a finite sum of terms
c * exp(-i (E_a - E_b) t).  The rotor's differences E_a - E_b are even
integers 2k, so the coefficients live on the integer lattice of k, and the
series sampled on a uniform grid over one period pi is one FFT of them.
That drives the global-maximum search and the level-set (duration)
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PERIOD = np.pi  # free-evolution period in units of 1/B (even integer level spacings)

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0

FLAT_TOL = 1e-14
TIE_TOL = 1e-12
REFINE_TOL = 1e-10


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
    """

    def __init__(self, rho_matrix: np.ndarray, b_matrix: np.ndarray, energies):
        lattice = energies if isinstance(energies, FrequencyLattice) else FrequencyLattice(energies)
        g = (rho_matrix * np.swapaxes(b_matrix, -1, -2)).ravel()
        n = lattice.freqs.size
        self.kmax = lattice.kmax
        self.freqs = lattice.freqs
        self.coef = np.bincount(lattice.index, g.real, n) + 1j * np.bincount(lattice.index, g.imag, n)
        terms = np.flatnonzero(self.coef)
        self._terms = (self.coef[terms], self.freqs[terms])

    def values(self, ts: np.ndarray) -> np.ndarray:
        coef, freqs = self._terms
        return (coef @ np.exp(-1j * np.outer(freqs, ts))).real

    def grid_values(self, t_start: float, n_samples: int) -> np.ndarray:
        """The series at t_start + i * PERIOD / n_samples for i < n_samples, by one FFT.

        Exact at any n_samples: lattice frequencies beyond the grid fold
        onto the same samples.
        """
        shifted = self.coef * np.exp(-1j * self.freqs * t_start)
        slot = np.arange(-self.kmax, self.kmax + 1) % n_samples
        folded = np.bincount(slot, shifted.real, n_samples) + 1j * np.bincount(slot, shifted.imag, n_samples)
        return np.fft.fft(folded).real

    def value(self, t: float) -> float:
        return float(self.values(np.array([t]))[0])

    def derivative(self, t: float, order: int = 1) -> float:
        coef, freqs = self._terms
        return float((coef @ ((-1j * freqs) ** order * np.exp(-1j * freqs * t))).real)


def golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b], narrowing the bracket to tol."""
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    while h > tol:
        if yc >= yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = f(d)
    x = c if yc >= yd else d
    return (x, yc) if yc >= yd else (x, yd)


def _newton_polish(
    series: TraceSeries, t_start: float, x: float, y: float, lo: float, hi: float
) -> tuple[float, float]:
    """Drive the series derivative to zero near a golden-section estimate.

    The series is a finite trigonometric sum, so its derivatives are exact;
    a few Newton steps reduce the slope at the peak to roundoff.  Falls back
    to the incoming point when the local curvature is not concave, the
    iteration leaves the bracket, or the polished value is lower by more
    than TIE_TOL.  Near a peak the two values differ by roundoff only, so
    comparing them exactly would pick either point by chance, and the
    golden-section point lies up to ~1e-8 from the peak.
    """
    t = x
    for _ in range(8):
        d1 = series.derivative(t_start + t, 1)
        d2 = series.derivative(t_start + t, 2)
        if d2 >= 0:
            return x, y
        step = -d1 / d2
        t_new = t + step
        if not (lo - 1e-9 <= t_new <= hi + 1e-9):
            return x, y
        t = t_new
        if abs(step) < 1e-14:
            break
    y_new = series.value(t_start + t)
    if y_new >= y - TIE_TOL:
        return t, y_new
    return x, y


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

    Dense circular sampling (grid_size(kmax, n_samples) points) locates
    candidate peaks, each refined by golden-section search to REFINE_TOL in
    t; ties within TIE_TOL resolve to the earliest time.  A functional flat
    to within FLAT_TOL is flagged and reported at t_start.
    """
    n_samples = grid_size(series.kmax, n_samples)
    taus = np.arange(n_samples) * (PERIOD / n_samples)
    vals = series.grid_values(t_start, n_samples)
    if float(vals.max() - vals.min()) < FLAT_TOL:
        return MaxResult(t=t_start, value=float(vals[0]), flat=True)

    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    peaks = np.nonzero((vals >= left) & (vals >= right))[0]
    h = PERIOD / n_samples
    # refinement can lift a sampled peak by at most h * max|dF/dt|
    margin = h * float(np.abs(series.coef * series.freqs).sum()) + TIE_TOL
    peaks = peaks[vals[peaks] >= float(vals.max()) - margin]

    candidates: list[tuple[float, float]] = []
    for k in peaks:
        tau_k = taus[k]
        x, y = golden_max(lambda tau: series.value(t_start + tau), tau_k - h, tau_k + h, REFINE_TOL)
        x, y = _newton_polish(series, t_start, x, y, tau_k - h, tau_k + h)
        x = x % PERIOD
        if PERIOD - x < REFINE_TOL:  # peak straddling the window start
            x = 0.0
            y = series.value(t_start)
        candidates.append((x, y))
    best = max(y for _, y in candidates)
    # the window start itself wins any tie (earliest admissible time)
    v0 = series.value(t_start)
    if v0 >= best - TIE_TOL:
        return MaxResult(t=t_start, value=v0, flat=False)
    tau_star = min(x for x, y in candidates if y >= best - TIE_TOL)
    return MaxResult(t=t_start + tau_star, value=series.value(t_start + tau_star), flat=False)


def _bisect_crossings(
    series: TraceSeries, threshold: float, lo: np.ndarray, hi: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """Bisect every bracket [lo[i], hi[i]] to where the series crosses threshold, all at once."""
    lo, hi = lo.copy(), hi.copy()
    g_lo = series.values(lo) - threshold
    live = np.nonzero(hi - lo > tol)[0]
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        g_mid = series.values(mid) - threshold
        same = (g_lo[live] >= 0) == (g_mid >= 0)
        lo[live[same]], g_lo[live[same]] = mid[same], g_mid[same]
        hi[live[~same]] = mid[~same]
        live = live[hi[live] - lo[live] > tol]
    return 0.5 * (lo + hi)


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
    PERIOD) with every sign change refined by bisection to 1e-10 in t.  The
    window is circular, so intervals touching both window edges merge when
    computing the longest stretch.
    """
    n_samples = grid_size(series.kmax, n_samples)
    taus = np.arange(n_samples) * (PERIOD / n_samples)
    ts = t_anchor + taus
    above = series.grid_values(t_anchor, n_samples) >= threshold
    if bool(above.all()):
        return LevelSetMeasure(total=1.0, longest=1.0)
    if not bool(above.any()):
        return LevelSetMeasure(total=0.0, longest=0.0)

    # segment boundaries where the sign flips, circularly (F has period PERIOD)
    nxt = np.roll(above, -1)
    flips = np.nonzero(above != nxt)[0]
    # right endpoints ts[k] + step == ts[k+1], or t_anchor + PERIOD at the wrap
    crossings = np.sort(_bisect_crossings(series, threshold, ts[flips], ts[flips] + PERIOD / n_samples))

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
