import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkick.basis import ORIENTATION, build_basis
from rotorkick.dynamics import apply_kick, free_propagate, make_kick
from rotorkick.errors import NumericalError
from rotorkick.evolution import PERIOD, TraceSeries, _roots, global_max, grid_size, measure_above
from rotorkick.operators import cos_theta_matrix, h0_matrix, thermal_state


def _kicked_state(j_max=3, beta=0.3, amplitude=1.7):
    basis = build_basis(j_max)
    rho = apply_kick(thermal_state(basis, beta), make_kick(basis, ORIENTATION, amplitude))
    return basis, rho


def test_series_matches_direct_propagation():
    # the frequency-grouped series must agree with propagating the state and
    # taking the trace directly, at every sample time
    basis, rho = _kicked_state()
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    energies = np.diag(h0.matrix).real
    series = TraceSeries(rho.matrix, obs.matrix, energies)
    ts = np.linspace(0.0, 2 * PERIOD, 97)
    direct = np.array([free_propagate(rho, h0, t).expectation(obs) for t in ts])
    assert np.max(np.abs(series.values(ts) - direct)) < 1e-13


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")  # inf times a zero of b
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "search",
    [lambda series: global_max(series, 0.0), lambda series: measure_above(series, 0.1)],
    ids=["global_max", "measure_above"],
)
def test_non_finite_series_fails_before_the_search(search, bad):
    # a 2 x 2 state whose coherence is not finite: the series it would feed
    # global_max or measure_above is refused when it is built
    rho = np.array([[0.5, bad], [bad, 0.5]], dtype=complex)
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalError, match="non-finite"):
        search(TraceSeries(rho, b, np.array([0.0, 2.0])))


def test_point_evaluations_of_a_sparse_series():
    # three coherences on the j <= 20 ladder: 6 nonzero of 421 lattice coefficients
    j = np.arange(21.0)
    energies = j * (j + 1)
    rho = np.diag(np.full(21, 1 / 21)).astype(complex)
    b = np.zeros((21, 21), dtype=complex)
    for a, c, amp in [(0, 20, 0.3), (3, 5, 0.2j), (7, 19, 0.1)]:
        rho[a, c], rho[c, a] = amp, np.conj(amp)
        b[a, c] = b[c, a] = 1.0
    series = TraceSeries(rho, b, energies)
    assert np.count_nonzero(series.coef) == 6 and series.coef.size == 421
    ts = np.linspace(0.0, PERIOD, 41)
    phases = np.exp(-1j * np.outer(series.freqs, ts))
    assert np.max(np.abs(series.values(ts) - (series.coef @ phases).real)) < 1e-14
    for t, phase in zip(ts, phases.T):
        assert abs(series.value(t) - (series.coef @ phase).real) < 1e-14
        for order in (1, 2):
            full = (series.coef @ ((-1j * series.freqs) ** order * phase)).real
            assert abs(series.derivative(t, order) - full) < 1e-11 * max(1.0, abs(full))


def test_series_is_periodic():
    basis, rho = _kicked_state()
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    series = TraceSeries(rho.matrix, obs.matrix, np.diag(h0.matrix).real)
    ts = np.linspace(0.0, PERIOD, 33)
    assert np.max(np.abs(series.values(ts) - series.values(ts + PERIOD))) < 1e-12


def test_global_max_dominates_dense_grid():
    basis, rho = _kicked_state(j_max=4, amplitude=2.0)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    series = TraceSeries(rho.matrix, obs.matrix, np.diag(h0.matrix).real)
    res = global_max(series, 0.0)
    dense = series.values(np.linspace(0.0, PERIOD, 200001))
    assert res.value >= float(dense.max()) - 1e-10
    assert 0.0 <= res.t < PERIOD


def test_measure_above_matches_dense_count():
    basis, rho = _kicked_state(j_max=4, amplitude=2.0)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    series = TraceSeries(rho.matrix, obs.matrix, np.diag(h0.matrix).real)
    threshold = 0.2
    res = measure_above(series, threshold, t_anchor=0.1234)
    n = 400001
    dense = series.values(0.1234 + np.arange(n) * (PERIOD / n))
    fraction = float(np.count_nonzero(dense >= threshold)) / n
    assert res.total == pytest.approx(fraction, abs=2e-4)
    assert res.longest <= res.total + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
def test_free_propagation_composes(t1, t2):
    basis, rho = _kicked_state(j_max=2)
    h0 = h0_matrix(basis)
    one_step = free_propagate(rho, h0, t1 + t2)
    two_step = free_propagate(free_propagate(rho, h0, t1), h0, t2)
    assert np.max(np.abs(one_step.matrix - two_step.matrix)) < 1e-12


def test_series_rejects_energies_off_the_even_lattice():
    rho = np.diag([0.5, 0.5]).astype(complex)
    obs = np.array([[0.0, 1.0], [1.0, 0.0]])
    TraceSeries(rho, obs, np.array([3.0, 9.0]))  # a common shift keeps differences even
    with pytest.raises(ValueError, match="even integers"):
        TraceSeries(rho, obs, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="even integers"):
        TraceSeries(rho, obs, np.array([0.0, 2.5]))


@pytest.mark.parametrize("n_samples", [4096, 8192])
def test_fft_grid_matches_direct_evaluation(n_samples):
    basis, rho = _kicked_state(j_max=8, amplitude=2.0)
    series = TraceSeries(rho.matrix, cos_theta_matrix(basis).matrix, np.diag(h0_matrix(basis).matrix).real)
    t_start = 0.7391
    grid = series.grid_values(t_start, n_samples)
    direct = np.concatenate(
        [series.values(t_start + np.arange(k, k + 512) * (PERIOD / n_samples)) for k in range(0, n_samples, 512)]
    )
    assert np.max(np.abs(grid - direct)) < 1e-13


def test_grid_size_follows_the_bandwidth():
    # j_sim = 31 and 44 are the largest cutoffs that keep the 4096 and 8192 grids
    for j_sim, n_min, expected in [(24, 4096, 4096), (31, 4096, 4096), (32, 4096, 8192), (44, 8192, 8192), (45, 8192, 16384)]:
        assert grid_size(j_sim * (j_sim + 1) // 2, n_min) == expected


def _aliasing_series():
    # j_sim = 64: kmax = 2080 is above the 2048 a 4096-point grid resolves.
    # Coupling j = 64 to j' <= 6 puts seven cosines of frequency near 2 kmax
    # in phase at t_star, half a carrier quarter-period off a grid point.
    energies = (np.arange(65) * np.arange(1, 66)).astype(float)
    t_star = 1000 * (PERIOD / 4096) - 0.5 * np.pi / 4160
    rho = np.zeros((65, 65), dtype=complex)
    obs = np.zeros((65, 65))
    for j in range(7):
        rho[64, j] = np.exp(1j * (energies[64] - energies[j]) * t_star)
        rho[j, 64] = np.conj(rho[64, j])
        obs[j, 64] = obs[64, j] = 1.0
    return TraceSeries(rho, obs, energies), t_star


def test_global_max_finds_a_peak_the_fixed_grid_aliases():
    series, t_star = _aliasing_series()
    h = PERIOD / 4096
    assert series.kmax == 2080
    peak = series.value(t_star)
    assert peak == pytest.approx(np.abs(series.coef).sum(), abs=1e-12)  # the largest any t can reach

    # the fixed grid sees the peak nowhere: its samples stay far below it, and
    # no local maximum of the samples lies within one step of t_star, so no
    # refinement bracket [tau - h, tau + h] reaches it
    taus = np.arange(4096) * h
    fixed = series.grid_values(0.0, 4096)
    assert fixed.max() < peak - 1.0
    local = np.nonzero((fixed >= np.roll(fixed, 1)) & (fixed >= np.roll(fixed, -1)))[0]
    assert np.min(np.abs(taus[local] - t_star)) > h

    res = global_max(series, 0.0)
    assert res.value == pytest.approx(peak, abs=1e-10)
    assert res.t == pytest.approx(t_star, abs=1e-9)


def _crossings_from_polynomial(series, threshold):
    """Times in [0, PERIOD) where the series equals threshold, from the unit-circle roots of a polynomial.

    With z = exp(-2it) the series is sum_k c_k z^k, so z^kmax (F - threshold)
    is a polynomial of degree 2 kmax in z.
    """
    poly = series.coef.copy()
    poly[series.kmax] -= threshold
    roots = np.roots(poly[::-1])  # highest power first
    on_circle = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
    return np.sort((-np.angle(on_circle) / 2.0) % PERIOD)


def _measure_from_crossings(series, threshold, crossings, t_anchor):
    edges = np.sort((crossings - t_anchor) % PERIOD)
    edges = np.concatenate([[0.0], edges, [PERIOD]])
    mids = t_anchor + 0.5 * (edges[:-1] + edges[1:])
    above = series.values(mids) >= threshold
    lengths = np.diff(edges)
    runs, run = [], 0.0
    for length, up in zip(lengths, above):
        if up:
            run += length
        elif run:
            runs.append(run)
            run = 0.0
    if above[0] and above[-1] and len(runs) > 0 and not above.all():
        run += runs.pop(0)  # the stretch across the window edge is one interval
    runs.append(run)
    return lengths[above].sum() / PERIOD, max(runs) / PERIOD


@pytest.mark.parametrize("j_max", [2, 3, 4])
@pytest.mark.parametrize("fraction", [0.3, 0.6])
def test_measure_above_matches_polynomial_roots(j_max, fraction):
    # an oracle independent of the grid and of the root refinement
    basis, rho = _kicked_state(j_max=j_max, amplitude=2.0)
    series = TraceSeries(rho.matrix, cos_theta_matrix(basis).matrix, np.diag(h0_matrix(basis).matrix).real)
    samples = series.grid_values(0.0, 4096)
    threshold = samples.min() + fraction * (samples.max() - samples.min())
    crossings = _crossings_from_polynomial(series, threshold)
    assert crossings.size >= 2
    t_anchor = 0.1234
    total, longest = _measure_from_crossings(series, threshold, crossings, t_anchor)
    res = measure_above(series, threshold, t_anchor=t_anchor)
    assert abs(res.total - total) < 1e-12
    assert abs(res.longest - longest) < 1e-12


def _kicked_series(j_max, amplitude):
    basis, rho = _kicked_state(j_max=j_max, amplitude=amplitude)
    return TraceSeries(rho.matrix, cos_theta_matrix(basis).matrix, np.diag(h0_matrix(basis).matrix).real)


@pytest.mark.parametrize(
    "make", [lambda: _kicked_series(3, 1.7), lambda: _kicked_series(4, 2.0), lambda: _aliasing_series()[0]]
)
def test_global_max_is_a_critical_point(make):
    series = make()
    res = global_max(series, 0.0)
    assert not res.flat
    scale = np.abs(series.freqs * series.coef).sum()  # bounds |F'| at any t
    assert abs(series.derivative(res.t)) <= 1e-12 * scale
    dense = series.values(np.linspace(0.0, PERIOD, 200001))
    assert res.value >= float(dense.max()) - 1e-12


def test_global_max_at_a_grid_point_converges_fast(monkeypatch):
    # Tr[rho rho(t)] of a real symmetric rho is even in t, so its maximum,
    # the purity, sits on the grid point t = 0 with slope 0 there.  Roundoff
    # puts the converged Newton point just past the bracket end; refusing it
    # crawls there by bisection, at about 60 evaluations.
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rho = q @ np.diag(rng.dirichlet(np.ones(8))) @ q.T
    j = np.arange(8.0)
    series = TraceSeries(rho, rho, j * (j + 1))
    calls = []
    values = TraceSeries.values

    def counted(self, ts, order=0):
        calls.append(order)
        return values(self, ts, order)

    monkeypatch.setattr(TraceSeries, "values", counted)
    res = global_max(series, 0.0)
    assert res.t == 0.0 and not res.flat
    assert res.value == pytest.approx(np.sum(rho * rho), abs=1e-14)
    assert len(calls) <= 40


class _NoisyLine:
    """g(t) = slope (t - root) plus deterministic noise, so the root is known only to noise / |slope|."""

    def __init__(self, root, slope, noise):
        self.root, self.slope, self.noise, self.calls = root, slope, noise, 0

    def values(self, ts, order=0):
        self.calls += 1
        assert self.calls <= 400, "root finder does not terminate"
        if order == 1:
            return np.full(ts.shape, self.slope)
        return self.slope * (ts - self.root) + self.noise * np.sin(1e15 * ts)


@pytest.mark.parametrize("slope, noise", [(1e-3, 1e-12), (-0.13, 1e-15), (-0.13, 3e-15), (-0.13, 1e-14)])
def test_roots_end_when_roundoff_hides_the_root(slope, noise):
    # Newton steps inside the noise band point anywhere; near ROOT_TOL they
    # can bounce between the bracket ends, which must still end the search
    for root in np.linspace(0.2, 3.0, 101):
        series = _NoisyLine(root, slope, noise)
        lo = np.array([root - 3e-4, root - 7e-4])
        hi = lo + PERIOD / 4096
        t = _roots(series, 0, 0.0, lo, hi, series.values(lo), series.values(hi))
        assert np.all(np.abs(t - root) < 10 * noise / abs(slope) + 1e-13)
