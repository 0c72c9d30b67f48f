import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkick.basis import ALIGNMENT, ORIENTATION, build_basis
from rotorkick.dynamics import apply_kick, free_propagate, make_kick
from rotorkick.errors import NumericalError
from rotorkick.evolution import PERIOD, FrequencyLattice, TraceSeries, _roots, global_max, grid_size, measure_above
from rotorkick.operators import cos_theta_matrix, h0_matrix, observable_matrix, thermal_state

from oracles import members, unpruned_global_max, vectorized_roots


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
    [lambda series: global_max(series), lambda series: measure_above(series, 0.1)],
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
    res = global_max(series)
    dense = series.values(np.linspace(0.0, PERIOD, 200001))
    assert res.value >= float(dense.max()) - 1e-10
    assert 0.0 <= res.t < PERIOD


def test_measure_above_matches_dense_count():
    basis, rho = _kicked_state(j_max=4, amplitude=2.0)
    h0 = h0_matrix(basis)
    obs = cos_theta_matrix(basis)
    series = TraceSeries(rho.matrix, obs.matrix, np.diag(h0.matrix).real)
    threshold = 0.2
    res = measure_above(series, threshold)
    n = 400001
    dense = series.values(0.1234 + np.arange(n) * (PERIOD / n))  # the measure does not depend on the window start
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


@pytest.mark.parametrize("kind", [ORIENTATION, ALIGNMENT])
@pytest.mark.parametrize("j_max", [7, 8, 13, 16])
def test_block_lattice_spans_the_largest_gap_within_a_block(kind, j_max):
    # one energy row per class; the trailing padding slot of the odd-j alignment row adds no frequency
    basis = build_basis(j_max)
    h0 = h0_matrix(basis)
    rho = apply_kick(thermal_state(basis, 0.3), make_kick(basis, kind, 1.7))
    obs = observable_matrix(basis, kind)
    blocks = obs.blocks
    lattice = FrequencyLattice(blocks.rows(h0.energies()), blocks.classes)
    energies = basis.j_values * (basis.j_values + 1)
    assert lattice.kmax == max(np.ptp(energies[idx]) // 2 for idx in members(blocks))
    assert lattice.index.shape == (len(set(blocks.classes.tolist())), blocks.slots.shape[1] ** 2)
    series = TraceSeries(rho.regroup(blocks).stack, obs.stack, lattice)
    dense = TraceSeries(rho.matrix, obs.matrix, h0.energies())
    ts = np.linspace(0.0, PERIOD, 31)
    assert np.max(np.abs(series.values(ts) - dense.values(ts))) <= 1e-14


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
    # 16 samples per period of the fastest term, rounded up to a power of two, with no floor
    for kmax, expected in [(0, 1), (1, 16), (2, 32), (3, 64), (36, 1024), (78, 2048), (2080, 65536)]:
        assert grid_size(kmax) == expected
    # the search grid follows the nonzero coefficients, not the lattice: one
    # coherence between j = 0 and j = 1 on the j <= 20 ladder (lattice kmax 210)
    j = np.arange(21.0)
    rho = np.diag(np.full(21, 1 / 21)).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.2
    b = np.zeros((21, 21))
    b[0, 1] = b[1, 0] = 1.0
    series = TraceSeries(rho, b, j * (j + 1))
    assert series.kmax == 210 and series._search.steps.shape[1] == grid_size(1) == 16
    assert global_max(series).value == pytest.approx(0.4, abs=1e-15)


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

    res = global_max(series)
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


def _measure_from_crossings(series, threshold, crossings):
    edges = np.concatenate([[0.0], np.sort(crossings % PERIOD), [PERIOD]])
    mids = 0.5 * (edges[:-1] + edges[1:])
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
    total, longest = _measure_from_crossings(series, threshold, crossings)
    res = measure_above(series, threshold)
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
    res = global_max(series)
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
    res = global_max(series)
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
        rows = {0: self.slope * (ts - self.root) + self.noise * np.sin(1e15 * ts), 1: np.full(ts.shape, self.slope)}
        return np.array([rows[o] for o in order]) if np.ndim(order) else rows[order]


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


def test_point_values_do_not_depend_on_their_batch():
    # each time sums its terms in one fixed order, so a value is the same bits
    # alone, in any batch, and in a joint evaluation of several orders
    series = _kicked_series(4, 2.0)
    ts = np.random.default_rng(3).uniform(-1.0, 2.0 * PERIOD, 257)
    batch = series.values(ts)
    for i in range(0, ts.size, 16):
        assert series.values(ts[i:]).tolist()[0] == batch[i] == series.value(ts[i])
    for orders in [(0, 1), (1, 2), (0, 2)]:
        joint = series.values(ts, orders)
        assert joint.shape == (2, ts.size)
        for row, order in zip(joint, orders):
            assert row.tolist() == series.values(ts, order).tolist()
    assert [series.derivative(t) for t in ts[:8]] == series.values(ts[:8], (0, 1))[1].tolist()


def _series_from(amplitudes, t0=0.0):
    """F(t) = sum over k of Re(a_k exp(-2ik (t - t0))): a coherence between level 0 and each level k, E_k = 2k."""
    kmax = max(amplitudes)
    rho = np.zeros((kmax + 1, kmax + 1), dtype=complex)
    b = np.zeros((kmax + 1, kmax + 1))
    for k, a in amplitudes.items():
        rho[k, 0] = 0.5 * a * np.exp(2j * k * t0)
        rho[0, k] = np.conj(rho[k, 0])
        b[0, k] = b[k, 0] = 1.0
    return TraceSeries(rho, b, 2.0 * np.arange(kmax + 1))


def _twin_peaks(t0, tilt):
    # 3.99 cos 2u - cos 4u + tilt sin 2u, u = t - t0: F''(0) = 0.04 > 0, so two
    # peaks sit at u = +-0.035, closer together than one step (pi / 32) of the
    # 32-point search grid; tilt > 0 lifts the later one by about 0.14 tilt
    return _series_from({1: 3.99 + 1j * tilt, 2: -1.0}, t0)


def _dense_max(series, lo, hi):
    ts = np.linspace(lo, hi, 200001)
    f = series.values(ts)
    return ts[np.argmax(f)], f.max()


def test_certificate_finds_the_higher_of_two_peaks_inside_one_grid_step():
    h = PERIOD / 32
    series = _twin_peaks(7.45 * h, 1e-6)
    assert series._search.steps.shape[1] == 32
    t_peak, peak = _dense_max(series, 7 * h, 8 * h)
    res = global_max(series)
    assert res.refined > 0
    assert res.value == pytest.approx(peak, abs=1e-13)
    assert res.t == pytest.approx(t_peak, abs=1e-4)
    assert abs(series.derivative(res.t)) < 1e-13


def test_certificate_finds_twin_peaks_straddling_the_window_start():
    # the lower peak sits just before the window end, in the step that closes
    # the period; the higher one shares the first step with the dip
    h = PERIOD / 32
    series = _twin_peaks(0.3 * h, 1e-6)
    t_peak, peak = _dense_max(series, -h, h)
    assert 0.0 < t_peak < h
    res = global_max(series)
    assert res.refined > 0
    assert res.value == pytest.approx(peak, abs=1e-13)
    assert res.t == pytest.approx(t_peak, abs=1e-4)


def test_certificate_clears_the_steps_around_a_peak_on_a_grid_point():
    # the radius rule clears both steps next to the peak without subdividing,
    # across the wrap for the peak at t = 0; on a kicked thermal state nothing
    # needs subdividing either
    h = PERIOD / 32
    for t0 in (5 * h, 0.0):
        res = global_max(_series_from({1: 1.0, 2: 0.3}, t0))
        assert res.refined == 0
        assert res.t == pytest.approx(t0, abs=1e-14)
        assert res.value == pytest.approx(1.3, abs=1e-15)
    assert global_max(_kicked_series(4, 2.0)).refined == 0


def test_certificate_finds_a_narrow_excursion_between_two_samples():
    # cos 2(t - t0) on its 16-point grid: t0 is mid-step, so both samples of
    # that step read cos(pi / 16) = 0.981, below the 0.99 threshold, and the
    # stretch above it lies wholly between them
    h = PERIOD / 16
    series = _series_from({1: 1.0}, 3.5 * h)
    threshold = 0.99
    steps = series._search.steps
    assert steps.shape[1] == 16 and steps[2].max() < threshold
    res = measure_above(series, threshold)
    assert res.total == pytest.approx(np.arccos(threshold) / PERIOD, abs=1e-15)
    assert res.longest == res.total


def test_certificate_ends_on_a_degenerate_maximum():
    # 4 cos 2t - cos 4t has F'' = 0 at its maximum, so no radius clears the
    # steps around it; steps too short to hide more than TIE_TOL end the search
    series = _series_from({1: 4.0, 2: -1.0})
    res = global_max(series)
    assert res.t == 0.0 and res.value == 3.0
    assert 0 < res.refined < 5000
    # F >= 3 - d where (cos 2t - 1)^2 <= d / 2
    for d in (1e-3, 1e-6):
        assert measure_above(series, 3.0 - d).total == pytest.approx(np.arccos(1.0 - np.sqrt(d / 2)) / PERIOD, rel=1e-9)


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _random_series(rng, kmax):
    """A series with random complex amplitudes on the levels 1..kmax coupled to level 0, some of them zero."""
    amplitudes = rng.normal(size=kmax) + 1j * rng.normal(size=kmax)
    amplitudes[rng.random(kmax) < 0.3] = 0.0
    amplitudes[-1] = 1.0 + 0.5j
    return _series_from({k + 1: a for k, a in enumerate(amplitudes)})


def _grid_brackets(series, order, level):
    """The search-grid steps over which F^(order) - level changes sign, as _roots takes them."""
    lo, hi, f_lo, f_hi, s_lo, s_hi = series._search.steps
    if order == 1:  # the maxima, as global_max brackets them
        up = (s_lo > 0) & (s_hi <= 0)
        return lo[up], hi[up], s_lo[up], s_hi[up]
    g_lo, g_hi = f_lo - level, f_hi - level
    flip = (g_lo < 0) != (g_hi < 0)
    return lo[flip], hi[flip], g_lo[flip], g_hi[flip]


class _Evaluations:
    """A series that records the times of every evaluation, as hex strings."""

    def __init__(self, series):
        self.series, self.calls = series, []

    def values(self, ts, order=0):
        self.calls.append(_hex(ts))
        return self.series.values(ts, order)


def _assert_roots_match_the_oracle(series, order, level, lo, hi, g_lo, g_hi):
    # the same evaluations, at the same times, and the same roots
    new, old = _Evaluations(series), _Evaluations(series)
    t = _roots(new, order, level, lo, hi, g_lo, g_hi)
    assert t.dtype == np.float64 and t.shape == lo.shape
    assert _hex(t) == _hex(vectorized_roots(old, order, level, lo, hi, g_lo, g_hi))
    assert new.calls == old.calls
    return t


def test_roots_match_the_vectorized_oracle_on_random_series():
    rng = np.random.default_rng(27)
    brackets = 0
    for _ in range(40):
        series = _random_series(rng, int(rng.integers(2, 12)))
        f = series._search.steps[2]
        for order, level in [(1, 0.0), (0, f.min() + rng.random() * (f.max() - f.min())), (0, float(f[3]))]:
            lo, hi, g_lo, g_hi = _grid_brackets(series, order, level)
            _assert_roots_match_the_oracle(series, order, level, lo, hi, g_lo, g_hi)
            brackets += lo.size
        # random brackets around a random root, the ends not on the grid
        root = rng.uniform(0.0, PERIOD)
        width = rng.uniform(1e-6, 0.05, size=5)
        lo, hi = root - width * rng.random(5), root + width * rng.random(5)
        level = series.value(root)
        g_lo, g_hi = series.values(lo) - level, series.values(hi) - level
        keep = (g_lo < 0) != (g_hi < 0)
        _assert_roots_match_the_oracle(series, 0, level, lo[keep], hi[keep], g_lo[keep], g_hi[keep])
    assert brackets > 500
    empty = np.zeros(0)
    assert _roots(series, 0, 0.0, empty, empty, empty, empty).dtype == np.float64


@pytest.mark.parametrize("level", [0.5, 1.0, -1.0])
def test_roots_bisect_on_a_zero_slope_as_the_oracle_does(level):
    # cos 2t has the slope exactly 0 at t = 0, where the secant point of these
    # samples lands: g / slope is +-inf (level 0.5) or NaN (levels +-1, g = 0)
    series = _series_from({1: 1.0})
    assert series.derivative(0.0) == 0.0
    lo, hi = np.array([-1.0, -0.25]), np.array([1.0, 0.25])
    sign = 1.0 if level < 1.0 else -1.0
    g_lo, g_hi = np.array([-sign, -sign]), np.array([sign, sign])
    t = _assert_roots_match_the_oracle(series, 0, level, lo, hi, g_lo, g_hi)
    assert _hex(lo + (hi - lo) * (g_lo / (g_lo - g_hi))) == _hex([0.0, 0.0])
    if level == 0.5:
        assert t[0] == pytest.approx(-np.pi / 6, abs=1e-14)


class _NaNOnce(_NoisyLine):
    """A line whose value reads NaN at its first evaluation."""

    def values(self, ts, order=0):
        rows = super().values(ts, order)
        if self.calls == 1:
            rows[0] = np.nan
        return rows


@pytest.mark.parametrize("slope", [0.7, -0.7])
def test_roots_take_a_nan_value_as_short_of_the_root(slope):
    # the bracket moves its short end to the NaN point and bisects, as the oracle does
    lo, hi = np.array([0.1, 0.2]), np.array([0.6, 0.9])
    line = _NoisyLine(0.4, slope, 0.0)
    g_lo, g_hi = line.values(lo, 0), line.values(hi, 0)
    new, old = _Evaluations(_NaNOnce(0.4, slope, 0.0)), _Evaluations(_NaNOnce(0.4, slope, 0.0))
    t = _roots(new, 0, 0.0, lo, hi, g_lo, g_hi)
    assert _hex(t) == _hex(vectorized_roots(old, 0, 0.0, lo, hi, g_lo, g_hi))
    assert new.calls == old.calls and len(new.calls) > 2
    secant = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
    assert new.calls[1] == _hex(0.5 * (secant + hi))
    assert np.all(np.abs(t - 0.4) < 1e-14)


def test_roots_on_a_grid_point_match_the_oracle():
    # Tr[rho rho(t)] of a real symmetric rho peaks on the grid point t = 0
    # (the end of the last step), and a level through a grid sample puts a
    # root on that grid point
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rho = q @ np.diag(rng.dirichlet(np.ones(8))) @ q.T
    j = np.arange(8.0)
    series = TraceSeries(rho, rho, j * (j + 1))
    lo, hi, g_lo, g_hi = _grid_brackets(series, 1, 0.0)
    assert hi[-1] == PERIOD
    t = _assert_roots_match_the_oracle(series, 1, 0.0, lo, hi, g_lo, g_hi)
    assert t[-1] == pytest.approx(PERIOD, abs=1e-14)
    f = series._search.steps[2]
    for k in (5, 17, 40):
        lo, hi, g_lo, g_hi = _grid_brackets(series, 0, float(f[k]))
        assert 0.0 in g_lo.tolist() + g_hi.tolist()
        _assert_roots_match_the_oracle(series, 0, float(f[k]), lo, hi, g_lo, g_hi)


def test_roots_match_the_oracle_on_every_bracket_set_of_a_bound_sweep(monkeypatch):
    from rotorkick import evolution
    from rotorkick.config import PRESETS
    from rotorkick.target import bound_sweep

    calls = []
    roots = evolution._roots

    def recorded(*args):
        calls.append(args)
        return roots(*args)

    monkeypatch.setattr(evolution, "_roots", recorded)
    for preset in ("licl-5K", "licl-5K-alignment"):
        config = PRESETS[preset]
        bound_sweep(
            range(1, 41), config.temperatures_k, config.process, config.molecule.b_cm, config.kb_cm_per_k,
            threshold=config.threshold,
        )
    monkeypatch.undo()
    assert len(calls) == 158 and sum(args[3].size for args in calls) > 3000  # 2 processes x 2 temperatures x 40 cutoffs, 2 flat
    for args in calls:
        _assert_roots_match_the_oracle(*args)


def _max_key(res):
    return (res.t.hex(), res.value.hex(), res.flat, res.refined)


def test_pruned_global_max_matches_the_unpruned_search():
    rng = np.random.default_rng(11)
    cases = [_random_series(rng, int(rng.integers(1, 16))) for _ in range(60)]
    cases += [_kicked_series(j, a) for j in (2, 3, 4, 6) for a in (0.5, 1.7, 2.0)]
    cases += [_aliasing_series()[0]]
    for series in cases:
        assert _max_key(global_max(series)) == _max_key(unpruned_global_max(series))


def test_pruned_global_max_matches_the_unpruned_search_where_it_subdivides():
    h = PERIOD / 32
    cases = [_twin_peaks(7.45 * h, 1e-6), _twin_peaks(0.3 * h, 1e-6), _twin_peaks(3.2 * h, -1e-6)]
    cases += [_series_from({1: 4.0, 2: -1.0}), _series_from({1: 4.0, 2: -1.0}, 0.37)]
    for series in cases:
        res = global_max(series)
        assert res.refined > 0
        assert _max_key(res) == _max_key(unpruned_global_max(series))


@pytest.mark.parametrize("amplitudes", [{2: 1.0}, {1: 0.3, 3: 1.0}, {2: 1.0, 4: 1e-13}])
def test_pruned_global_max_keeps_a_tie_with_the_window_start(amplitudes):
    # equal peaks at t = 0 and later (within TIE_TOL for the last): the window start wins
    series = _series_from(amplitudes)
    res = global_max(series)
    assert res.t == 0.0 and not res.flat
    assert _max_key(res) == _max_key(unpruned_global_max(series))


def test_values_take_an_order_as_int_tuple_or_list_to_the_same_bits():
    # the rates are cached per order and per tuple of orders; which form fills the cache first changes no bit
    ts = np.random.default_rng(8).uniform(-1.0, 2.0 * PERIOD, 33)
    reference = _kicked_series(4, 2.0)
    single = {o: reference.values(ts, o).tobytes() for o in range(4)}
    for first in ([2, 0, 1], (1, 3), 2, [3]):
        series = _kicked_series(4, 2.0)
        series.values(ts, first)
        for _ in range(2):  # the second pass reads a warm cache
            for orders in ([0, 1], (0, 1), [2, 0, 1], (1, 3), (3,), [3]):
                rows = series.values(ts, orders)
                assert rows.shape == (len(orders), ts.size)
                assert [row.tobytes() for row in rows] == [single[o] for o in orders]
            for o in range(4):
                assert series.values(ts, o).tobytes() == series.values(ts, np.int64(o)).tobytes() == single[o]


def test_grid_values_fold_only_the_nonzero_terms_to_the_same_bits():
    # folding the whole lattice adds zeros, which change no slot's sum
    series = _random_series(np.random.default_rng(4), 9)
    assert np.count_nonzero(series.coef) < series.coef.size
    for t_start, n, order in [(0.0, 64, 0), (0.731, 16, 0), (2.5, 2048, 0), (0.731, 32, 1), (1.2, 8, 2)]:
        shifted = series.coef * np.exp(-1j * series.freqs * t_start)
        if order:
            shifted *= (1, -1j, -1, 1j)[order % 4] * series.freqs**order
        slot = np.arange(-series.kmax, series.kmax + 1) % n
        folded = np.bincount(slot, shifted.real, n) + 1j * np.bincount(slot, shifted.imag, n)
        assert series.grid_values(t_start, n, order).tobytes() == np.fft.fft(folded).real.tobytes()
