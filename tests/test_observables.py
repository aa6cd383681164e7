import numpy as np
import pytest

from polaron1d import effpot as ep
from polaron1d import exactdiag as ed
from polaron1d import meanfield as mf
from polaron1d.errors import ConfigurationError, ExtractionError, UsageError
from polaron1d.grid import Field, build_grid
from polaron1d.observables import (
    SPECTRAL_PAD_FACTOR,
    EnergyBreakdown,
    TimeSeries,
    classify_region,
    dominant_frequency,
    find_peaks,
    general_weights_contrast,
    miscibility_overlap,
    record_times,
    spectral_function,
    virial_check,
)


def phase_signal(delta, t_max=100.0, dt=0.05):
    t = np.arange(0.0, t_max + 1e-12, dt)
    return TimeSeries(0.0, dt, np.exp(-1j * delta * t))


class TestTimeSeries:
    def test_needs_two_samples(self):
        with pytest.raises(UsageError):
            TimeSeries(0.0, 0.1, np.array([1.0]))

    def test_times(self):
        s = TimeSeries(1.0, 0.5, np.arange(4.0))
        assert np.allclose(s.times, [1.0, 1.5, 2.0, 2.5])
        assert s.t_max == pytest.approx(2.5)


class TestRecordTimes:
    def test_record_times_are_the_time_series_times(self):
        # 0.7 / 0.1 rounds to 7 steps: two whole 3-step intervals from t0
        times = record_times(0.1, 0.7, 3, t0=2.0)
        assert np.array_equal(times, TimeSeries(2.0, 0.1 * 3, np.zeros(3)).times)

    @pytest.mark.parametrize("tier", ["meanfield", "ed"])
    def test_propagators_record_on_the_one_clock(self, request, tier):
        # 100 records of 7 steps of dt = 1e-3: a running sum of dt or of
        # 7 dt drifts off 0.007 k by round-off
        dt, record_every, t_max = 1e-3, 7, 0.7
        if tier == "meanfield":
            state, _ = request.getfixturevalue("relaxed_default")
            post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=1.0)
            times = mf.propagate(state, post, dt, t_max, record_every)[0].times
        else:
            ground = ed.ground_state(ed.build_hamiltonian(ed.build_fock_basis(2, 4), 0.5, 0.0))
            h1 = ed.with_impurity_coupling(ground.hamiltonian, 1.0)
            times = ed.propagate_krylov(
                h1, ground.vector, dt, t_max, record_every, observe=lambda k, v: None
            ).times
        series = TimeSeries(0.0, dt * record_every, np.zeros(101))
        assert np.array_equal(times, series.times)


class TestGeneralWeights:
    def test_equal_weights_reduce_to_magnitude(self):
        s = phase_signal(2.0, t_max=10.0)
        s = TimeSeries(s.t0, s.dt_sample, s.values * np.exp(-0.05 * s.times))
        out = general_weights_contrast(s, 1 / np.sqrt(2), 1 / np.sqrt(2))
        assert np.allclose(out.values, np.abs(s.values), atol=1e-14)

    def test_beta_zero_gives_unity(self):
        s = phase_signal(3.0, t_max=5.0)
        out = general_weights_contrast(s, 1.0, 0.0)
        assert np.allclose(out.values, 1.0, atol=1e-14)

    def test_vanishing_contrast_value(self):
        s = TimeSeries(0.0, 1.0, np.array([1.0 + 0j, 0.0 + 0j]))
        out = general_weights_contrast(s, 0.6, 0.8)
        assert out.values[1] == pytest.approx(abs(0.36 - 0.64), abs=1e-15)

    def test_rejects_unnormalized_weights(self):
        s = phase_signal(1.0, t_max=5.0)
        with pytest.raises(ConfigurationError):
            general_weights_contrast(s, 0.8, 0.8)

    def test_matches_two_branch_construction(self):
        # explicit spin components: Sx = 2ab Re S, Sy = 2ab Im S, Sz = a^2-b^2
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        vals[0] = 1.0
        vals /= np.maximum(np.abs(vals), 1.0)
        s = TimeSeries(0.0, 0.1, vals)
        a, b = 0.6, 0.8
        direct = np.sqrt(
            (2 * a * b * vals.real) ** 2
            + (2 * a * b * vals.imag) ** 2
            + (a**2 - b**2) ** 2
        )
        out = general_weights_contrast(s, a, b)
        assert np.max(np.abs(out.values - direct)) < 1e-12


class TestSpectralFunction:
    def test_single_phase_peak_location(self):
        spec = spectral_function(phase_signal(4.435), window="none")
        peaks = find_peaks(spec, 0.5)
        assert len(peaks) >= 1
        tallest = max(peaks, key=lambda p: p["height"])
        assert tallest["omega"] == pytest.approx(4.435, abs=spec.resolution)

    def test_constant_signal_peaks_at_zero(self):
        spec = spectral_function(phase_signal(0.0), window="none")
        tallest = max(find_peaks(spec, 0.5), key=lambda p: p["height"])
        assert abs(tallest["omega"]) < spec.resolution

    def test_sum_rule(self):
        spec = spectral_function(phase_signal(3.3), window="none")
        total = np.trapezoid(spec.values, spec.omegas)
        assert total == pytest.approx(1.0, rel=0.02)

    def test_requires_unit_start(self):
        t = np.arange(0.0, 10.0, 0.1)
        with pytest.raises(UsageError):
            spectral_function(TimeSeries(0.0, 0.1, 0.5 * np.exp(-1j * t)))

    def test_linearity_unwindowed(self):
        s1 = phase_signal(2.0, t_max=50.0)
        s2 = phase_signal(5.0, t_max=50.0)
        mix = TimeSeries(0.0, s1.dt_sample, 0.5 * s1.values + 0.5 * s2.values)
        a_mix = spectral_function(mix, window="none").values
        a_sum = 0.5 * (
            spectral_function(s1, window="none").values
            + spectral_function(s2, window="none").values
        )
        assert np.max(np.abs(a_mix - a_sum)) < 1e-10


    @pytest.mark.parametrize("window", ["none", "hann"])
    @pytest.mark.parametrize("n", [2, 31, 41, 5001])
    def test_decimated_transform_matches_the_padded_fft(self, n, window):
        rng = np.random.default_rng(n)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        vals[0] = 1.0
        dt = 0.02
        got = spectral_function(TimeSeries(0.0, dt, vals), window=window)
        t = dt * np.arange(n)
        taper = np.cos(0.5 * np.pi * t / t[-1]) ** 2 if window == "hann" else 1.0
        n_pad = SPECTRAL_PAD_FACTOR * n
        padded = np.zeros(n_pad, dtype=np.complex128)
        padded[:n] = vals * taper
        padded[0] *= 0.5
        want = np.real(np.conj(np.fft.fft(np.conj(padded)))) * dt / np.pi
        omegas = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=dt)
        order = np.argsort(omegas)
        assert np.array_equal(got.omegas, omegas[order])
        assert np.max(np.abs(got.values - want[order])) < 1e-15 * np.sqrt(n)


class TestFindPeaks:
    def test_two_close_modes_resolved(self):
        t = np.arange(0.0, 100.0 + 1e-12, 0.05)
        vals = 0.6 * np.exp(-1j * 8.482 * t) + 0.4 * np.exp(-1j * 8.859 * t)
        s = TimeSeries(0.0, 0.05, vals)
        spec = spectral_function(s, window="hann")
        peaks = [p for p in find_peaks(spec, 0.1) if p["omega"] > 0]
        assert len(peaks) == 2
        assert peaks[0]["omega"] == pytest.approx(8.482, abs=2 * spec.resolution)
        assert peaks[1]["omega"] == pytest.approx(8.859, abs=2 * spec.resolution)
        assert peaks[1]["omega"] - peaks[0]["omega"] > 4 * 2 * np.pi / 100.0

    def test_threshold_keeps_tallest_only(self):
        t = np.arange(0.0, 100.0 + 1e-12, 0.05)
        vals = 0.7 * np.exp(-1j * 3.0 * t) + 0.3 * np.exp(-1j * 7.0 * t)
        spec = spectral_function(TimeSeries(0.0, 0.05, vals), window="hann")
        tall = [p for p in find_peaks(spec, 0.99) if p["omega"] > 0]
        assert len(tall) == 1
        assert tall[0]["omega"] == pytest.approx(3.0, abs=2 * spec.resolution)

    def test_threshold_domain(self):
        spec = spectral_function(phase_signal(1.0))
        with pytest.raises(ConfigurationError):
            find_peaks(spec, 1.5)


class TestDominantFrequency:
    def test_clean_cosine(self):
        t = np.arange(0.0, 60.0, 0.02)
        s = TimeSeries(0.0, 0.02, 0.3 + 0.1 * np.cos(2.0 * t))
        om, info = dominant_frequency(s)
        assert om == pytest.approx(2.0, rel=1e-3)
        assert not info["fallback"]

    def test_flat_signal_raises(self):
        s = TimeSeries(0.0, 0.02, np.full(1000, 0.7))
        with pytest.raises(ExtractionError):
            dominant_frequency(s)


class TestMiscibility:
    def _density(self, grid, center):
        return Field(grid, np.exp(-((grid.x - center) ** 2)))

    def test_identical(self):
        g = build_grid(200, 10.0)
        assert miscibility_overlap(self._density(g, 0), self._density(g, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        g = build_grid(400, 20.0)
        val = miscibility_overlap(self._density(g, -8), self._density(g, 8))
        assert val < 1e-12

    def test_scale_invariance_and_symmetry(self):
        g = build_grid(200, 10.0)
        a, b = self._density(g, 0.0), self._density(g, 1.0)
        lam = miscibility_overlap(a, b)
        assert 0.0 < lam < 1.0
        scaled = miscibility_overlap(Field(g, 7.3 * a.values), Field(g, 0.2 * b.values))
        assert scaled == pytest.approx(lam, rel=1e-12)
        assert miscibility_overlap(b, a) == pytest.approx(lam, rel=1e-12)

    def test_zero_density_rejected(self):
        g = build_grid(200, 10.0)
        with pytest.raises(UsageError):
            miscibility_overlap(self._density(g, 0), Field(g, np.zeros(200)))


class TestVirial:
    def test_synthetic_violation(self):
        e = EnergyBreakdown(1.0, 1.0, 0.5, 0.5, 0.1, 0.0)
        assert virial_check(e) == pytest.approx(0.1, abs=1e-15)

    def test_noninteracting_ground_state(self):
        # N=100 bosons + 1 impurity in their trap ground states: T = V per species
        e = EnergyBreakdown(25.0, 25.0, 0.25, 0.25, 0.0, 0.0)
        assert virial_check(e) == pytest.approx(0.0, abs=1e-10)

    def test_total(self):
        e = EnergyBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert e.total == pytest.approx(21.0, abs=1e-12)


class TestClassifyRegion:
    def _series(self, values, dt=0.05):
        return TimeSeries(0.0, dt, np.asarray(values))

    def test_constant_unity_is_r1(self):
        t = np.arange(0.0, 60.0, 0.05)
        out = classify_region(self._series(np.ones_like(t)))
        assert out["region"] == "R_I"

    def test_exponential_decay_is_r3(self):
        t = np.arange(0.0, 60.0, 0.05)
        out = classify_region(self._series(np.exp(-t / 5.0)))
        assert out["region"] == "R_III"
        assert out["metrics"]["decay_exponent"] == pytest.approx(1.0, abs=0.2)

    def test_decaying_oscillation_is_r2(self):
        t = np.arange(0.0, 60.0, 0.05)
        vals = 0.45 + 0.55 * np.exp(-t / 40.0) * np.abs(np.cos(0.7 * t))
        out = classify_region(self._series(vals))
        assert out["region"] == "R_II"

    def test_rescaling_stability(self):
        t = np.arange(0.0, 60.0, 0.05)
        base = 0.45 + 0.55 * np.exp(-t / 40.0) * np.abs(np.cos(0.7 * t))
        for c in (1.0, 0.7, 0.2):
            out = classify_region(self._series(c * base))
            assert out["region"] == "R_II"

    def test_short_series_rejected(self):
        t = np.arange(0.0, 10.0, 0.05)
        with pytest.raises(UsageError):
            classify_region(self._series(np.ones_like(t)))

    def test_complex_series_rejected(self, grid, default_system):
        pot = ep.build_effective_potential(mf.thomas_fermi(default_system).density(grid), 1.5)
        series = ep.effpot_contrast(ep.eigensolve(pot, n_eig=40), t_max=60.0, dt=0.05).series
        assert np.iscomplexobj(series.values)
        with pytest.raises(UsageError, match=r"real series \|S\(t\)\|"):
            classify_region(series)
        magnitude = TimeSeries(series.t0, series.dt_sample, np.abs(series.values))
        assert classify_region(magnitude)["region"] in ("R_I", "R_II", "R_III", "borderline")

    def test_borderline_near_threshold(self):
        t = np.arange(0.0, 60.0, 0.05)
        vals = 0.515 + 0.485 * np.exp(-t / 30.0) * np.abs(np.cos(0.9 * t))
        out = classify_region(self._series(vals))
        assert out["region"] == "borderline"
        assert set(out["candidates"]) == {"R_I", "R_II"}
