import numpy as np
import pytest

from polaron1d import effpot as ep
from polaron1d import meanfield as mf
from polaron1d.errors import AnalysisError, ConfigurationError, FitQualityError
from polaron1d.grid import (
    Field,
    bare_ground_state,
    inner,
    is_mirror_symmetric,
    kinetic_matrix,
)
from polaron1d.observables import TimeSeries, find_peaks, spectral_function

TF_MU = (3 * 100 * 0.5 / (4 * np.sqrt(2))) ** (2.0 / 3.0)


def level(spec, n):
    """Stationary state n of a spectrum as a Field."""
    return Field(spec.potential.grid, spec.states[:, n])


@pytest.fixture(scope="module")
def tf_profile(default_system):
    return mf.thomas_fermi(default_system)


@pytest.fixture(scope="module")
def tf_pot_weak(grid, tf_profile):
    return ep.build_effective_potential(tf_profile.density(grid), 0.25)


@pytest.fixture(scope="module")
def tf_pot_strong(grid, tf_profile):
    return ep.build_effective_potential(tf_profile.density(grid), 1.0)


class TestBuildPotential:
    def test_tf_weak_is_shifted_parabola_inside(self, grid, tf_pot_weak, tf_profile):
        c = (0.25 / 0.5) * tf_profile.mu
        omega_t2 = 1.0 - 0.25 / 0.5
        inside = np.abs(grid.x) < 0.9 * tf_profile.radius
        expected = c + 0.5 * omega_t2 * grid.x[inside] ** 2
        assert np.max(np.abs(tf_pot_weak.values[inside] - expected)) < 1e-10

    def test_zero_coupling_is_bare_trap(self, grid, tf_profile):
        pot = ep.build_effective_potential(tf_profile.density(grid), 0.0)
        assert np.allclose(pot.values, 0.5 * grid.x**2, atol=1e-12)

    def test_strong_coupling_double_well(self, tf_pot_strong, tf_profile):
        # curvature (1 - g_bi/g_bb) omega^2 = -1 at the origin
        assert tf_pot_strong.curvature_at_origin() == pytest.approx(-1.0, abs=0.02)
        minima = tf_pot_strong.well_minima()
        assert len(minima) == 2
        assert sorted(np.sign(minima)) == [-1.0, 1.0]
        assert np.max(np.abs(np.abs(minima) - tf_profile.radius)) < 0.2

    def test_weak_coupling_positive_curvature(self, tf_pot_weak):
        assert tf_pot_weak.curvature_at_origin() == pytest.approx(0.5, abs=0.02)

    def test_negative_density_rejected(self, grid):
        bad = Field(grid, np.full(grid.n_points, -1.0))
        with pytest.raises(Exception):
            ep.build_effective_potential(bad, 0.5)

    def test_potential_above_trap(self, grid, relaxed_density):
        pot = ep.build_effective_potential(relaxed_density, 0.7)
        assert np.min(pot.values - 0.5 * grid.x**2) > -1e-12


class TestEigensolve:
    def test_bare_trap_spectrum(self, grid, tf_profile):
        pot = ep.build_effective_potential(tf_profile.density(grid), 0.0)
        spec = ep.eigensolve(pot, n_eig=10)
        assert np.allclose(spec.energies, np.arange(10) + 0.5, atol=1e-8)

    def test_tf_ground_energy(self, tf_pot_weak, tf_profile):
        spec = ep.eigensolve(tf_pot_weak, n_eig=5)
        c = 0.5 * tf_profile.mu
        expected = c + 0.5 * np.sqrt(0.5)
        assert spec.energies[0] == pytest.approx(expected, rel=0.02)

    def test_double_well_tunneling_doublet(self, tf_pot_strong):
        spec = ep.eigensolve(tf_pot_strong, n_eig=6)
        e = spec.energies
        assert e[1] - e[0] < 0.2 * (e[2] - e[1])

    def test_orthonormal_and_residual(self, grid, tf_pot_weak):
        from polaron1d.grid import kinetic_apply

        spec = ep.eigensolve(tf_pot_weak, n_eig=12)
        for i in range(12):
            for j in range(i, 12):
                ov = inner(level(spec, i), level(spec, j))
                assert abs(ov - (1.0 if i == j else 0.0)) < 1e-10
        for n in (0, 5, 11):
            psi = level(spec, n)
            h_psi = kinetic_apply(psi).values + tf_pot_weak.values * psi.values
            resid = h_psi - spec.energies[n] * psi.values
            assert np.sqrt(np.sum(np.abs(resid) ** 2) * grid.dx) < 1e-8

    def test_parity_alternation(self, grid, tf_pot_weak):
        spec = ep.eigensolve(tf_pot_weak, n_eig=8)
        even_init = bare_ground_state(grid)
        for n in range(8):
            ov = abs(inner(level(spec, n), even_init))
            if n % 2 == 1:
                assert ov < 1e-10
            elif n <= 4:
                assert ov > 1e-6

    def test_n_eig_bound(self, tf_pot_weak):
        with pytest.raises(ConfigurationError):
            ep.eigensolve(tf_pot_weak, n_eig=61)

    def test_box_contamination_flagged(self):
        from polaron1d.grid import build_grid

        narrow = build_grid(120, 8.0)
        pot = ep.EffectivePotential(grid=narrow, values=0.5 * narrow.x**2)
        spec = ep.eigensolve(pot, n_eig=40)
        # V(0.9 x_max) = 25.9: oscillator levels above it sit in wall territory
        assert not spec.box_contaminated[0]
        assert spec.box_contaminated[-1]


class TestContrast:
    def test_zero_coupling_unity(self, grid, tf_profile):
        pot = ep.build_effective_potential(tf_profile.density(grid), 0.0)
        spec = ep.eigensolve(pot, n_eig=10)
        out = ep.effpot_contrast(spec, t_max=20.0, dt=0.05)
        assert np.max(np.abs(out.series.values - 1.0)) < 1e-9

    def test_default_initial_state_is_the_trap_ground_state(self, grid):
        # the impurity starts in the ground state of the potential's bare trap,
        # whose energy omega/2 is the reference: S(t) = 1 without coupling
        pot = ep.EffectivePotential(grid=grid, values=0.5 * 0.8**2 * grid.x**2, omega_trap=0.8)
        out = ep.effpot_contrast(ep.eigensolve(pot, n_eig=10), t_max=20.0, dt=0.05)
        assert np.max(np.abs(out.series.values - 1.0)) < 1e-9

    def test_stationary_initial_state(self, tf_pot_weak):
        spec = ep.eigensolve(tf_pot_weak, n_eig=10)
        out = ep.effpot_contrast(spec, initial=level(spec, 0), t_max=10.0, dt=0.05)
        svals = out.series.values
        assert np.max(np.abs(np.abs(svals) - 1.0)) < 1e-9
        phase = np.unwrap(np.angle(svals))
        slope = (phase[-1] - phase[0]) / (out.series.t_max - out.series.t0)
        assert slope == pytest.approx(-(spec.energies[0] - 0.5), rel=1e-6)

    def test_weak_coupling_peak_position(self, tf_pot_weak):
        spec = ep.eigensolve(tf_pot_weak, n_eig=40)
        out = ep.effpot_contrast(spec, t_max=100.0, dt=0.05)
        sf = spectral_function(out.series, window="hann")
        tallest = max(find_peaks(sf, 0.1), key=lambda p: p["height"])
        assert tallest["omega"] == pytest.approx(4.435, rel=0.05)

    def test_spectral_peaks_match_levels(self, tf_pot_strong):
        spec = ep.eigensolve(tf_pot_strong, n_eig=40)
        out = ep.effpot_contrast(spec, t_max=100.0, dt=0.05)
        sf = spectral_function(out.series, window="hann")
        peaks = find_peaks(sf, 5e-4)
        for n in range(spec.energies.size):
            if out.weights[n] > 1e-3:
                target = spec.energies[n] - 0.5
                assert any(
                    abs(p["omega"] - target) < 2.0 * sf.resolution for p in peaks
                ), f"no peak near level {n} at {target}"

    def test_weights_sum_to_one(self, tf_pot_strong):
        spec = ep.eigensolve(tf_pot_strong, n_eig=40)
        out = ep.effpot_contrast(spec, t_max=5.0, dt=0.05)
        assert np.sum(out.weights) == pytest.approx(1.0, abs=1e-9)

    def test_insufficient_levels_raise(self, grid, tf_pot_strong):
        spec = ep.eigensolve(tf_pot_strong, n_eig=4)
        with pytest.raises(AnalysisError, match="n_eig"):
            ep.effpot_contrast(spec, t_max=5.0, dt=0.05)
        with pytest.raises(AnalysisError, match="n_eig"):
            ep.stationary_moments(spec, bare_ground_state(grid), t_max=1.0, dt=0.5)

    def test_contrast_demands_the_spectral_completeness(self, grid, tf_profile):
        # TF g_bi = 2.5: 40 states carry weight 1 - 1.6e-4, enough for the
        # moment series but not for S(0) = 1 within 1e-6 (spectral_function)
        pot = ep.build_effective_potential(tf_profile.density(grid), 2.5)
        spec = ep.eigensolve(pot, n_eig=40)
        with pytest.raises(AnalysisError, match="n_eig"):
            ep.effpot_contrast(spec, t_max=5.0, dt=0.05)
        ep.stationary_moments(spec, bare_ground_state(grid), t_max=1.0, dt=0.5)
        out = ep.effpot_contrast(ep.eigensolve(pot, n_eig=60), t_max=5.0, dt=0.05)
        spectral_function(out.series)

    @pytest.mark.parametrize("n_t", [2, 17, 5001])
    def test_factored_phases_match_the_direct_sum(self, tf_pot_strong, n_t):
        spec = ep.eigensolve(tf_pot_strong, n_eig=40)
        dt = 0.02
        out = ep.effpot_contrast(spec, t_max=dt * (n_t - 1), dt=dt)
        t = dt * np.arange(n_t)
        direct = np.exp(-1j * np.multiply.outer(t, spec.energies - 0.5)) @ out.weights
        assert out.series.values.shape == (n_t,)
        assert np.max(np.abs(out.series.values - direct)) < 1e-11


class TestDoubletDeterminism:
    """The relaxed bath is exactly even, so the double-well doublets, split
    by round-off, come out as one exactly even and one exactly odd level, and
    the weight of the even start sits on the even one."""

    @staticmethod
    def parity_weights(density, g_bi):
        spec = ep.eigensolve(ep.build_effective_potential(density, g_bi), n_eig=60)
        weights = ep.effpot_contrast(spec, t_max=1.0, dt=0.05).weights
        s = spec.states
        even = np.all(s == s[::-1], axis=0)
        assert np.all(even ^ np.all(s == -s[::-1], axis=0))
        return weights[even], weights[~even]

    @pytest.mark.parametrize("g_bi", [2.3, 2.8])
    def test_doublet_weights_do_not_move_with_round_off(self, grid, relaxed_density, g_bi):
        even, odd = self.parity_weights(relaxed_density, g_bi)
        assert np.max(odd) < 1e-26
        # a relative 1e-12 change of the bath that keeps it even
        bumped = Field(grid, relaxed_density.values * (1.0 + 1e-12 * np.cos(grid.x)))
        assert is_mirror_symmetric(bumped.values)
        assert not np.array_equal(bumped.values, relaxed_density.values)
        even2, odd2 = self.parity_weights(bumped, g_bi)
        assert np.max(odd2) < 1e-26
        # compared by parity: which doublet member is listed first is still
        # decided by round-off (the gaps are ~1e-14)
        assert np.max(np.abs(even2 - even)) < 1e-10

    def test_single_well_minimum_on_an_even_grid(self, grid, relaxed_density):
        # the two centre points tie exactly; the left one is reported
        pot = ep.build_effective_potential(relaxed_density, 0.3)
        assert pot.well_minima().tolist() == [-0.5 * grid.dx]


class TestStationaryMoments:
    def test_moments_match_reconstructed_state(self, grid, tf_pot_strong):
        spec = ep.eigensolve(tf_pot_strong, n_eig=40)
        init = bare_ground_state(grid, omega=0.9)
        series = ep.stationary_moments(spec, init, t_max=6.0, dt=0.5)
        weights = ep.effpot_contrast(spec, init, t_max=6.0, dt=0.5).weights
        coeffs = np.array([inner(level(spec, n), init) for n in range(spec.energies.size)])
        assert np.allclose(weights, np.abs(coeffs) ** 2, rtol=0, atol=1e-15)
        states = spec.states.T
        t_mat = kinetic_matrix(grid)
        for k in (0, 3, 12):
            t = series["x2"].times[k]
            psi = Field(grid, (coeffs * np.exp(-1j * spec.energies * t)) @ states)
            rho = np.abs(psi.values) ** 2 * grid.dx
            v = psi.values[1:-1]
            p2 = 2.0 * np.real(np.vdot(v, t_mat @ v)) * grid.dx
            assert series["x_mean"].values[k] == pytest.approx(np.sum(rho * grid.x), abs=1e-10)
            assert series["x2"].values[k] == pytest.approx(np.sum(rho * grid.x**2), abs=1e-10)
            assert series["p2"].values[k] == pytest.approx(p2, abs=1e-10)


    @pytest.mark.parametrize("omega0, omega", [(0.95, 1.0), (1.0, 0.7)])
    def test_released_gaussian_matches_closed_form(self, grid, omega0, omega):
        # a bare Gaussian of frequency omega0 released into a trap of frequency omega
        pot = ep.EffectivePotential(grid=grid, values=0.5 * omega**2 * grid.x**2, omega_trap=omega)
        spec = ep.eigensolve(pot, n_eig=60)
        series = ep.stationary_moments(spec, bare_ground_state(grid, omega0), t_max=20.0, dt=0.05)
        t = series["x2"].times
        c2, s2 = np.cos(omega * t) ** 2, np.sin(omega * t) ** 2
        x2 = c2 / (2 * omega0) + omega0 * s2 / (2 * omega**2)
        p2 = 0.5 * omega0 * c2 + omega**2 * s2 / (2 * omega0)
        assert t[-1] == pytest.approx(20.0)
        assert np.max(np.abs(series["x2"].values - x2)) < 1e-11
        assert np.max(np.abs(series["p2"].values - p2)) < 1e-11


class TestBreathing:
    def test_bare_trap_frequency(self, grid, tf_profile):
        def builder(om):
            return ep.build_effective_potential(tf_profile.density(grid), 0.0, omega_trap=om)

        out = ep.breathing_run(builder, 0.95, 1.0, t_max=60.0, dt=0.02)
        assert out.omega_br == pytest.approx(2.0, rel=0.01)
        assert np.max(np.abs(out.series["x_mean"].values)) < 1e-8

    def test_tf_regime_frequency(self, grid, relaxed_density):
        def builder(om):
            return ep.build_effective_potential(relaxed_density, 0.25, omega_trap=om)

        out = ep.breathing_run(builder, 0.95, 1.0, t_max=80.0, dt=0.02)
        assert out.omega_br == pytest.approx(2.0 * np.sqrt(1 - 0.25 / 0.5), rel=0.05)


class TestEffectiveMassFit:
    @staticmethod
    def _synthetic(m_eff, omega_eff, x2_0, p2_0, t_max=50.0, dt=0.02):
        t = np.arange(0.0, t_max + 1e-12, dt)
        mw2 = (m_eff * omega_eff) ** 2
        x2 = (p2_0 / mw2) * np.sin(omega_eff * t) ** 2 + x2_0 * np.cos(omega_eff * t) ** 2
        p2 = p2_0 * np.cos(omega_eff * t) ** 2 + mw2 * x2_0 * np.sin(omega_eff * t) ** 2
        return TimeSeries(0.0, dt, x2), TimeSeries(0.0, dt, p2)

    def test_round_trip(self):
        x2, p2 = self._synthetic(0.8, 1.3, x2_0=0.5263, p2_0=0.475)
        fit = ep.fit_effective_mass(x2, p2, {"x2_0": 0.5263, "p2_0": 0.475})
        assert fit.m_eff == pytest.approx(0.8, abs=1e-6)
        assert fit.omega_eff == pytest.approx(1.3, abs=1e-6)

    def test_bare_particle_from_trap_quench(self, grid, tf_profile):
        def builder(om):
            return ep.build_effective_potential(tf_profile.density(grid), 0.0, omega_trap=om)

        out = ep.breathing_run(builder, 0.95, 1.0, t_max=60.0, dt=0.02)
        fit = ep.fit_effective_mass(
            out.series["x2"], out.series["p2"],
            {"x2_0": 1.0 / (2 * 0.95), "p2_0": 0.95 / 2.0},
        )
        assert fit.m_eff == pytest.approx(1.0, rel=0.01)
        assert fit.omega_eff == pytest.approx(1.0, rel=0.01)

    def test_interaction_quench_fit(self, grid, relaxed_density):
        # bare impurity released into V_eff: effective frequency softens with g
        omegas = {}
        for g in (0.1, 0.3):
            pot = ep.build_effective_potential(relaxed_density, g, omega_trap=0.95)
            spec = ep.eigensolve(pot, n_eig=40)
            init = bare_ground_state(grid, omega=0.95)
            series = ep.stationary_moments(spec, init, t_max=80.0, dt=0.02)
            fit = ep.fit_effective_mass(
                series["x2"], series["p2"], {"x2_0": 1.0 / (2 * 0.95), "p2_0": 0.95 / 2.0}
            )
            omegas[g] = fit.omega_eff
            assert fit.m_eff == pytest.approx(1.0, abs=0.02)
            assert fit.omega_eff == pytest.approx(np.sqrt(0.95**2 - g / 0.5), rel=0.04)
        assert omegas[0.3] < omegas[0.1]

    def test_invalid_regime_raises(self, grid, relaxed_density):
        # trap quench with g_bi > 0: bare-moment model does not describe the data
        def builder(om):
            return ep.build_effective_potential(relaxed_density, 0.3, omega_trap=om)

        out = ep.breathing_run(builder, 0.95, 1.0, t_max=60.0, dt=0.02)
        with pytest.raises(FitQualityError):
            ep.fit_effective_mass(
                out.series["x2"], out.series["p2"],
                {"x2_0": 1.0 / (2 * 0.95), "p2_0": 0.95 / 2.0},
            )


class TestDensityFile:
    def test_load_and_build(self, tmp_path, grid, tf_profile):
        xs = np.linspace(-6.0, 6.0, 400)
        path = tmp_path / "density.txt"
        np.savetxt(path, np.column_stack([xs, tf_profile.density_values(xs)]))
        dens = ep.load_density_file(str(path), grid)
        pot_file = ep.build_effective_potential(dens, 0.25)
        pot_tf = ep.build_effective_potential(tf_profile.density(grid), 0.25)
        inside = np.abs(grid.x) < 3.0
        assert np.max(np.abs(pot_file.values[inside] - pot_tf.values[inside])) < 1e-3

    def test_bad_file_rejected(self, tmp_path, grid):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigurationError):
            ep.load_density_file(str(path), grid)
