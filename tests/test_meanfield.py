import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from polaron1d import meanfield as mf
from polaron1d.errors import ConfigurationError, ConvergenceError, StepSizeError, UsageError
from polaron1d.grid import (
    Field,
    bare_ground_state,
    box_wavenumbers,
    build_grid,
    even_sine_filter,
    half_points,
    half_weights,
    inner,
    kinetic_matrix,
    parity_odd_fraction,
)
from polaron1d.observables import (
    ENERGY_TERMS,
    dominant_frequency,
    general_weights_contrast,
    virial_check,
)

TF_MU_CLOSED_FORM = (3 * 100 * 0.5 / (4 * np.sqrt(2))) ** (2.0 / 3.0)  # 8.8923


def dense_newton_step(sys, t, traps, weights, pb, pu, mu_b, mu_i, res):
    """Reference for `mf._newton_step`: the whole (2m+2)^2 bordered Jacobian
    of the coupled stationarity equations on m samples with quadrature
    `weights`, formed and solved at once."""
    ni, n = pb.size, sys.n_bath
    v_b, v_u = mf._gp_potentials(sys, traps, pb, pu).T
    jac = np.zeros((2 * ni + 2, 2 * ni + 2))
    jac[:ni, :ni] = t + np.diag(v_b + 2.0 * sys.g_bb * (n - 1) * pb**2 - mu_b)
    jac[:ni, ni : 2 * ni] = np.diag(2.0 * sys.g_bi * pb * pu)
    jac[:ni, 2 * ni] = -pb
    jac[ni : 2 * ni, :ni] = np.diag(2.0 * sys.g_bi * n * pb * pu)
    jac[ni : 2 * ni, ni : 2 * ni] = t + np.diag(v_u - mu_i)
    jac[ni : 2 * ni, 2 * ni + 1] = -pu
    jac[2 * ni, :ni] = pb * weights
    jac[2 * ni + 1, ni : 2 * ni] = pu * weights
    delta = np.linalg.solve(jac, -res)
    return delta[:ni], delta[ni : 2 * ni], delta[2 * ni], delta[2 * ni + 1]


def traced_peak_and_held(fn):
    """fn()'s result, the tracemalloc peak during the call and the memory
    still held after it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before, held - before


def full_grid_kinetic(f):
    """<f|T|f> on the full grid, from the dense `kinetic_matrix`."""
    v = f.values[1:-1]
    return float(np.real(np.vdot(v, kinetic_matrix(f.grid) @ v))) * f.grid.dx


def full_grid_record(st, sys):
    """The record series of one full-grid MeanFieldState, summed point by
    point over the whole grid: the oracle of `propagate`'s half-grid
    reductions."""
    grid, n = st.bath.grid, sys.n_bath
    dx, x = grid.dx, grid.x
    rho_b, rho_u, rho_d = (np.abs(f.values) ** 2 for f in (st.bath, st.up, st.down))
    kin_i = full_grid_kinetic(st.up)
    out = {
        "norm_bath": np.sum(rho_b) * dx,
        "norm_up": np.sum(rho_u) * dx,
        "norm_down": np.sum(rho_d) * dx,
        "kinetic_b": n * full_grid_kinetic(st.bath),
        "potential_b": n * np.sum(0.5 * sys.omega_b**2 * x**2 * rho_b) * dx,
        "kinetic_i": kin_i,
        "potential_i": np.sum(0.5 * sys.omega_i**2 * x**2 * rho_u) * dx,
        "intra_bb": 0.5 * sys.g_bb * n * (n - 1) * np.sum(rho_b**2) * dx,
        "inter_bi": sys.g_bi * n * np.sum(rho_b * rho_u) * dx,
        "x2_up": np.sum(x**2 * rho_u) * dx,
        "p2_up": 2.0 * kin_i,
    }
    out["total"] = sum(out[key] for key in ENERGY_TERMS[:-1])
    return out


class TestThomasFermi:
    def test_mu_matches_closed_form(self, default_system):
        tf = mf.thomas_fermi(default_system)
        assert tf.mu == pytest.approx(TF_MU_CLOSED_FORM, rel=1e-12)
        assert tf.radius == pytest.approx(np.sqrt(2 * tf.mu), rel=1e-12)

    def test_density_at_origin(self, default_system):
        tf = mf.thomas_fermi(default_system)
        assert tf.density_values(np.array([0.0]))[0] == pytest.approx(tf.mu / 0.5, rel=1e-12)

    def test_normalization(self, grid, default_system):
        tf = mf.thomas_fermi(default_system)
        total = np.sum(tf.density_values(grid.x)) * grid.dx
        # grid quadrature of the analytic profile; edge kink costs O(dx^2)
        assert total == pytest.approx(100.0, rel=1e-4)
        # analytic integral is exact by construction of mu
        r = tf.radius
        exact = (2 * tf.mu * r - r**3 / 3.0) / 0.5
        assert exact == pytest.approx(100.0, rel=1e-12)

    def test_undefined_without_repulsion(self):
        with pytest.raises(ConfigurationError):
            mf.thomas_fermi(mf.MeanFieldSystem(n_bath=10, g_bb=0.0, g_bi=0.0))


class TestRelax:
    def test_chemical_potential_near_tf(self, relaxed_default):
        _, res = relaxed_default
        assert res.mu_bath == pytest.approx(TF_MU_CLOSED_FORM, rel=0.02)

    def test_impurity_decoupled_ground_state(self, relaxed_default):
        _, res = relaxed_default
        assert res.mu_impurity == pytest.approx(0.5, abs=1e-8)

    def test_noninteracting_energies(self, grid):
        sys0 = mf.MeanFieldSystem(n_bath=100, g_bb=0.0, g_bi=0.0)
        _, res = mf.relax_ground_state(sys0, grid)
        bd = res.breakdown
        assert bd.kinetic_b + bd.potential_b == pytest.approx(50.0, abs=1e-7)
        assert bd.kinetic_i + bd.potential_i == pytest.approx(0.5, abs=1e-9)

    def test_stiff_bath_relaxes(self, grid):
        # mu_B ~ 104: at tau = RELAX_TAU the split-step fixed point keeps a
        # stationarity residual of about 80, beyond the reach of the polish
        sys = mf.MeanFieldSystem(n_bath=1000, g_bb=2.0, g_bi=0.0)
        _, res = mf.relax_ground_state(sys, grid)
        assert max(res.residual_bath, res.residual_impurity) <= mf.RELAX_TOL
        assert res.mu_bath == pytest.approx(mf.thomas_fermi(sys).mu, rel=0.01)

    @pytest.mark.parametrize("n_points, x_max", [(200, 10.0), (64, 8.0)])
    def test_stiff_impurity_relaxes(self, n_points, x_max):
        # mu_I ~ g_BI N_B |b(0)|^2 ~ 112 against mu_B ~ 22: a step set by the
        # bath alone leaves tau mu_I ~ 2, far from stationary for the polish
        sys = mf.MeanFieldSystem(n_bath=100, g_bb=2.0, g_bi=10.0, omega_i=1.3)
        state, res = mf.relax_ground_state(sys, build_grid(n_points, x_max))
        assert max(res.residual_bath, res.residual_impurity) <= mf.RELAX_TOL
        for f in (state.bath, state.up):
            assert np.array_equal(f.values, f.values[::-1])

    def test_relaxed_orbitals_are_exactly_even(self, relaxed_default):
        # an exactly even bath gives the effpot tier an exactly mirror-symmetric
        # potential, which `grid.stationary_states` solves by parity blocks
        state, _ = relaxed_default
        for f in (state.bath, state.up, state.down):
            assert np.array_equal(f.values, f.values[::-1])

    def test_relaxed_state_is_parity_even(self):
        # at the centre of a dense bath the impurity sits on a saddle that
        # round-off would tip off-centre, to either side
        sys = mf.MeanFieldSystem(n_bath=1000, g_bb=1.0, g_bi=3.0)
        state, res = mf.relax_ground_state(sys, build_grid(450, 20.0))
        assert max(res.residual_bath, res.residual_impurity) <= mf.RELAX_TOL
        for f in (state.bath, state.up):
            assert np.array_equal(f.values, f.values[::-1])

    @pytest.mark.parametrize(
        "g_bi, energy",
        [(0.0, 536.1013390145708), (1.0, 546.6768817125101), (3.0, 548.3504651549259)],
    )
    def test_energies_of_the_full_grid_relaxation(self, grid, g_bi, energy):
        # the energies a relaxation and polish on all 448 interior points
        # returned on the default bath; the half grid reaches the same state
        sys = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=g_bi)
        _, res = mf.relax_ground_state(sys, grid)
        assert res.energy == pytest.approx(energy, rel=1e-10, abs=0.0)
        assert max(res.residual_bath, res.residual_impurity) <= mf.RELAX_TOL

    def test_drop_radius_near_tf(self, relaxed_density):
        radius = mf.density_drop_radius(relaxed_density)
        assert radius == pytest.approx(4.2, rel=0.05)

    def test_virial(self, relaxed_default):
        _, res = relaxed_default
        assert abs(virial_check(res.breakdown)) / abs(res.energy) < 1e-5

    def test_energy_trace_monotone_at_weak_coupling(self, grid):
        sys_weak = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.25)
        _, res = mf.relax_ground_state(sys_weak, grid)
        tr = res.energy_trace
        assert np.all(np.diff(tr) <= 1e-9 * np.abs(tr[:-1]))

    def test_relaxed_orbitals_are_real(self, relaxed_default):
        state, _ = relaxed_default
        for f in (state.bath, state.up, state.down):
            assert f.values.dtype == np.complex128
            assert np.all(f.values.imag == 0.0)

    @pytest.mark.parametrize("tau", [2e-2, 4e-3, 1e-3])
    def test_merged_half_filters_keep_the_norm(self, grid, rng, tau):
        # K^1/2 normalize K^1/2 = K / sqrt(<x, K x>) rests on
        # |K^1/2 x|^2 = <x, K x> for the real symmetric decay filter, in the
        # weighted norm of the half grid the relaxation runs on
        half = np.exp(-0.5 * tau * box_wavenumbers(grid) ** 2 / 2.0)
        x = rng.standard_normal(half_points(grid))
        weights = half_weights(grid)
        lhs = weights @ even_sine_filter(grid, half)(x.copy()) ** 2
        rhs = weights @ (x * even_sine_filter(grid, half**2)(x.copy()))
        assert abs(lhs - rhs) <= 1e-14 * lhs

    def test_packed_column_filters_each_orbital(self, grid, rng):
        # b + i u through one filter: the real symbol keeps the parts apart
        symbol = np.exp(-mf.RELAX_TAU * box_wavenumbers(grid) ** 2 / 2.0)
        b, u = rng.standard_normal((2, half_points(grid)))
        decay = even_sine_filter(grid, symbol)
        packed = decay(b + 1j * u)
        for part, orbital in ((packed.real, b), (packed.imag, u)):
            ref = decay(orbital.copy())
            assert np.max(np.abs(part - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_bulk_density_matches_tf(self, relaxed_density, default_system):
        tf = mf.thomas_fermi(default_system)
        grid = relaxed_density.grid
        bulk = np.abs(grid.x) < 0.8 * tf.radius
        rho = np.real(relaxed_density.values)[bulk]
        rho_tf = tf.density_values(grid.x[bulk])
        l2_dev = np.sqrt(np.sum((rho - rho_tf) ** 2) / np.sum(rho_tf**2))
        assert l2_dev < 0.03


class TestNewtonPolish:
    @pytest.mark.parametrize("g_bi", [0.0, 1.5])
    def test_block_step_matches_dense_solve(self, g_bi):
        grid = build_grid(64, 8.0)
        sys = mf.MeanFieldSystem(n_bath=20, g_bb=0.5, g_bi=g_bi)
        x, dx = grid.x[1:-1], grid.dx
        pb = np.exp(-0.3 * x**2) * (1.0 + 0.1 * x)
        pu = np.exp(-0.5 * (x - 0.4) ** 2)
        pb /= np.sqrt(np.sum(pb**2) * dx)
        pu /= np.sqrt(np.sum(pu**2) * dx)
        t = kinetic_matrix(grid)
        traps = mf._stacked_traps(grid, sys)[1:-1]
        res = np.random.default_rng(5).standard_normal(2 * x.size + 2)
        args = (sys, t, traps, dx, pb, pu, 3.1, 1.7, res)
        got = np.concatenate([np.atleast_1d(p) for p in mf._newton_step(*args)])
        ref = np.concatenate([np.atleast_1d(p) for p in dense_newton_step(*args)])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("g_bi", [0.0, 1.0, 3.0])
    def test_relaxed_energy_matches_dense_solve(self, grid, monkeypatch, g_bi):
        sys = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=g_bi)
        _, res = mf.relax_ground_state(sys, grid)
        monkeypatch.setattr(mf, "_newton_step", dense_newton_step)
        _, ref = mf.relax_ground_state(sys, grid)
        assert res.energy == pytest.approx(ref.energy, rel=1e-12, abs=0.0)

    def test_failed_polish_raises(self, grid, default_system, monkeypatch):
        # without the polish the relaxed state keeps its splitting bias, a
        # stationarity residual far above RELAX_TOL
        def singular(*args):
            raise np.linalg.LinAlgError("singular bordered block")

        monkeypatch.setattr(mf, "_newton_step", singular)
        with pytest.raises(ConvergenceError, match="stationarity residual") as info:
            mf.relax_ground_state(default_system, grid)
        assert info.value.trace.size >= 2

    def test_relaxation_peak_memory(self, grid, default_system):
        # the dense (2n+2)^2 Jacobian and its solver copy set a 10.2 MB peak
        _, peak, _ = traced_peak_and_held(lambda: mf.relax_ground_state(default_system, grid))
        assert peak <= 7e6


class TestPropagate:
    def test_memory_held_does_not_grow_with_records(self, relaxed_default):
        state, _ = relaxed_default
        sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=1.0)

        def run(n_records):
            return mf.propagate(state, sys_post, dt=5e-4, t_max=n_records * 1e-3, record_every=2)

        run(1)  # cached kinetic filters are built once per grid
        held = {n: traced_peak_and_held(lambda: run(n))[2] for n in (100, 400)}
        # a kept state per record would hold 21.6 kB each (three 450-point fields)
        assert abs(held[400] - held[100]) < 0.5e6

    def test_records_reduce_to_overlaps_and_three_snapshots(self, relaxed_default):
        state, _ = relaxed_default
        sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=1.0)
        seen = []
        traj, _ = mf.propagate(
            state, sys_post, dt=5e-4, t_max=0.25, record_every=100,
            observe=lambda k, st: seen.append((k, st)),
        )
        assert [k for k, _ in seen] == list(range(6))
        states = [st for _, st in seen]
        assert np.array_equal(traj.times, [st.time for st in states])
        direct = [(inner(state.bath, st.bath), inner(state.up, st.up)) for st in states]
        # reduced on the half grid, so equal to the full-grid sums to round-off
        assert np.max(np.abs(traj.overlaps - np.array(direct))) <= 1e-13
        assert [st.time for st in traj.snapshots] == [states[k].time for k in (0, 3, 5)]
        for snap, k in zip(traj.snapshots, (0, 3, 5)):
            for name in ("bath", "up", "down"):
                assert np.array_equal(getattr(snap, name).values, getattr(states[k], name).values)

    def test_stationary_state(self, relaxed_default, default_system):
        state, _ = relaxed_default
        traj, series = mf.propagate(
            state, default_system, dt=5e-4, t_max=2.0, record_every=400
        )
        rho0 = np.abs(traj.snapshots[0].bath.values) ** 2
        rho_t = np.abs(traj.snapshots[-1].bath.values) ** 2
        assert np.max(np.abs(rho_t - rho0)) < 1e-7
        for key in ("norm_bath", "norm_up", "norm_down"):
            assert np.max(np.abs(np.asarray(series[key].values) - 1.0)) < 1e-10

    @pytest.mark.parametrize("case", ["dressed-initial", "trap-change"])
    def test_spin_down_is_exact_at_every_record(self, grid, relaxed_default, case):
        # the spin-down orbital is not stationary in either case: relaxed with
        # the bath it is the dressed spin-up orbital, and after a trap change
        # the bare ground state of the old trap
        if case == "dressed-initial":
            sys_pre = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=1.0)
            state, _ = mf.relax_ground_state(sys_pre, grid)
            sys_post = sys_pre
        else:
            state, _ = relaxed_default
            sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.0, omega_i=1.3)
        traj = []
        _, series = mf.propagate(
            state, sys_post, dt=5e-4, t_max=1.0, record_every=400,
            observe=lambda k, st: traj.append(st),
        )
        h0 = kinetic_matrix(grid) + np.diag(0.5 * sys_post.omega_i**2 * grid.x[1:-1] ** 2)
        psi0 = state.down.values[1:-1]
        assert len(traj) == 6
        for st in traj:
            exact = expm(-1j * h0 * st.time) @ psi0
            err = np.sqrt(np.sum(np.abs(st.down.values[1:-1] - exact) ** 2) * grid.dx)
            assert err <= 1e-12
        assert np.max(np.abs(np.asarray(series["norm_down"].values) - 1.0)) < 1e-13

    @pytest.mark.parametrize("omega0, omega", [(0.95, 1.0), (1.0, 0.7)])
    def test_spin_down_moments_match_closed_form(self, grid, omega0, omega):
        # a bare Gaussian of frequency omega0 released into a trap of frequency
        # omega; bath and spin-up sit in their own trap ground states
        state = mf.MeanFieldState(
            bath=bare_ground_state(grid),
            up=bare_ground_state(grid, omega),
            down=bare_ground_state(grid, omega0),
        )
        sys_post = mf.MeanFieldSystem(n_bath=1, g_bb=0.0, g_bi=0.0, omega_i=omega)
        traj = []
        mf.propagate(
            state, sys_post, dt=1e-3, t_max=4.0, record_every=100,
            observe=lambda k, st: traj.append(st),
        )
        t = np.array([st.time for st in traj])
        c2, s2 = np.cos(omega * t) ** 2, np.sin(omega * t) ** 2
        x2 = c2 / (2 * omega0) + omega0 * s2 / (2 * omega**2)
        p2 = 0.5 * omega0 * c2 + omega**2 * s2 / (2 * omega0)
        got_x2 = [np.sum(grid.x**2 * np.abs(st.down.values) ** 2) * grid.dx for st in traj]
        got_p2 = [2.0 * full_grid_kinetic(st.down) for st in traj]
        assert t[-1] == pytest.approx(4.0)
        assert np.max(np.abs(got_x2 - x2)) < 1e-11
        assert np.max(np.abs(got_p2 - p2)) < 1e-11

    def test_p2_record_is_twice_kinetic_expectation(self, relaxed_default):
        # the record reuses energy_breakdown's kinetic energy: <p^2> = 2 <T>
        state, _ = relaxed_default
        sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=1.5)
        direct = []
        _, series = mf.propagate(
            state, sys_post, dt=5e-4, t_max=0.2, record_every=100,
            observe=lambda k, st: direct.append(2.0 * full_grid_kinetic(st.up)),
        )
        got = np.asarray(series["p2_up"].values)
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_records_match_the_full_grid_sums(self, relaxed_default):
        # every series and overlap is reduced on the half grid; the full-grid
        # point sums over the states `observe` sees agree to round-off, and
        # <x> of the even spin-up orbital is exactly zero. The bath's <T> is
        # ~0.05 against kinetic diagonal entries of ~50, and the even block
        # and `kinetic_matrix` come from two DCTs whose entries differ by
        # ~1e-14, so kinetic_b agrees to 1.5e-13 only (3e-13 allowed); the
        # narrower spin-up orbital's kinetic terms agree to 5e-15
        state, _ = relaxed_default
        sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=1.5)
        seen = []
        traj, series = mf.propagate(
            state, sys_post, dt=5e-4, t_max=0.2, record_every=100,
            observe=lambda k, st: seen.append(st),
        )
        assert len(seen) == 5
        want = [full_grid_record(st, sys_post) for st in seen]
        for key in want[0]:
            got = np.asarray(series[key].values)
            ref = np.array([w[key] for w in want])
            rtol = 3e-13 if key == "kinetic_b" else 1e-13
            assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref)), key
        ref = np.array([(inner(state.bath, st.bath), inner(state.up, st.up)) for st in seen])
        assert np.max(np.abs(traj.overlaps - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.all(np.asarray(series["x_mean_up"].values) == 0.0)

    def test_record_interval_matches_dense_split_steps(self):
        # one record interval of 3 steps against K/2 (V K)^2 V K/2 built from
        # eigh(T) of the full grid and the GP phases written out per
        # component; the chirped Gaussians are even, complex and far from
        # stationary (an odd n_points puts a point at the centre)
        sys_post = mf.MeanFieldSystem(n_bath=5, g_bb=0.5, g_bi=1.3)
        dt, n = 1e-3, sys_post.n_bath
        for n_points in (64, 65):
            grid = build_grid(n_points, 8.0)
            chirp = np.exp(0.4j * grid.x**2)
            bath = Field(grid, np.exp(-0.5 * grid.x**2) * chirp).normalized()
            up = Field(grid, np.exp(-0.9 * grid.x**2) / chirp**2).normalized()
            state = mf.MeanFieldState(bath=bath, up=up, down=up)
            traj, _ = mf.propagate(state, sys_post, dt=dt, t_max=3 * dt, record_every=3)
            final = traj.snapshots[-1]
            energies, vecs = np.linalg.eigh(kinetic_matrix(grid))
            kin_half = (vecs * np.exp(-0.5j * dt * energies)) @ vecs.T
            kin_full = (vecs * np.exp(-1j * dt * energies)) @ vecs.T
            trap = 0.5 * grid.x[1:-1] ** 2
            b, u = kin_half @ bath.values[1:-1], kin_half @ up.values[1:-1]
            for step in range(3):
                rho_b, rho_u = np.abs(b) ** 2, np.abs(u) ** 2
                b = np.exp(-1j * dt * (trap + sys_post.g_bb * (n - 1) * rho_b + sys_post.g_bi * rho_u)) * b
                u = np.exp(-1j * dt * (trap + sys_post.g_bi * n * rho_b)) * u
                if step < 2:
                    b, u = kin_full @ b, kin_full @ u
            b, u = kin_half @ b, kin_half @ u
            assert final.time == pytest.approx(3 * dt, abs=1e-15)
            assert np.max(np.abs(final.bath.values[1:-1] - b)) <= 1e-12
            assert np.max(np.abs(final.up.values[1:-1] - u)) <= 1e-12

    @pytest.mark.parametrize("name", ["bath", "up", "down"])
    def test_state_without_mirror_symmetry_is_refused(self, grid, name):
        # the tier runs in the parity-even sector: a shifted Gaussian is
        # refused with its odd fraction, never projected onto its even part
        orbitals = {key: bare_ground_state(grid) for key in ("bath", "up", "down")}
        orbitals[name] = Field(grid, np.exp(-0.5 * (grid.x - 0.3) ** 2)).normalized()
        state = mf.MeanFieldState(**orbitals)
        sys_post = mf.MeanFieldSystem(n_bath=5, g_bb=0.5, g_bi=1.0)
        refusal = rf"{name} orbital is not mirror symmetric \(odd fraction 2\.074e-01\)"
        with pytest.raises(UsageError, match=refusal):
            mf.propagate(state, sys_post, dt=1e-3, t_max=0.01, record_every=10)

    def test_strong_quench_stays_parity_even(self, relaxed_default):
        # in a 0 -> 4 quench on the default bath a full-grid split step let
        # round-off grow into an odd fraction of 0.69 (spin-up) by t = 30,
        # past 1e-3 from t = 18; the even sector carries no odd part at all
        state, _ = relaxed_default
        sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=4.0)
        odd = []
        mf.propagate(
            state, sys_post, dt=1e-3, t_max=30.0, record_every=1000,
            observe=lambda k, st: odd.append([parity_odd_fraction(f) for f in (st.bath, st.up)]),
        )
        assert len(odd) == 31
        assert np.all(np.array(odd) == 0.0)

    def test_contrast_keeps_the_record_clock_from_a_later_start(
        self, relaxed_default, default_system
    ):
        # from t0 = 0.37, times[1] - times[0] differs from dt * record_every in
        # the last bits, and a series spaced by it drifts off the record times
        state, res = relaxed_default
        dt, every = 1e-3, 7
        later = replace(state, time=0.37)
        traj, _ = mf.propagate(later, default_system, dt=dt, t_max=0.07, record_every=every)
        s = mf.mean_field_contrast(
            traj.times, traj.overlaps, res.energy, default_system.n_bath, dt * every
        )
        assert traj.times[0] == 0.37
        assert np.array_equal(s.times, traj.times)

    def test_t_max_below_one_record_interval_is_refused(self, relaxed_default, default_system):
        # 100 steps are short of one 200-step record interval; the run must
        # not go on to t = 0.1
        state, _ = relaxed_default
        with pytest.raises(ConfigurationError, match=r"time\.t_max.*time\.dt \* time\.record_every"):
            mf.propagate(state, default_system, dt=5e-4, t_max=0.05, record_every=200)
        # a record_every that is no whole number >= 1 is refused, not coerced
        for bad in (0, -3, 2.5):
            with pytest.raises(ConfigurationError, match=r"time\.record_every = .* whole number"):
                mf.propagate(state, default_system, dt=5e-4, t_max=0.05, record_every=bad)

    def test_unquenched_contrast_stays_unity(self, relaxed_default, default_system):
        state, res = relaxed_default
        traj, _ = mf.propagate(
            state, default_system, dt=5e-4, t_max=2.0, record_every=400
        )
        s = mf.mean_field_contrast(
            traj.times, traj.overlaps, res.energy, default_system.n_bath, 5e-4 * 400
        )
        assert s.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.abs(s.values) - 1.0)) < 1e-8

    def test_quench_variance_frequency(self, relaxed_default):
        state, _ = relaxed_default
        sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.25)
        _, series = mf.propagate(state, sys_post, dt=5e-4, t_max=30.0, record_every=100)
        omega, _ = dominant_frequency(series["x2_up"])
        assert omega == pytest.approx(2.0 * np.sqrt(1.0 - 0.25 / 0.5), rel=0.05)

    def test_energy_conserved(self, relaxed_default):
        state, _ = relaxed_default
        sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.25)
        _, series = mf.propagate(state, sys_post, dt=5e-4, t_max=5.0, record_every=500)
        e = np.asarray(series["total"].values)
        assert np.max(np.abs(e - e[0])) < 1e-6 * abs(e[0])

    def test_contrast_monotone_in_coupling(self, relaxed_default):
        state, res = relaxed_default
        mags = {}
        for g in (0.1, 1.0):
            sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=g)
            traj, _ = mf.propagate(state, sys_post, dt=5e-4, t_max=5.0, record_every=500)
            s = mf.mean_field_contrast(traj.times, traj.overlaps, res.energy, sys_post.n_bath, 5e-4 * 500)
            mags[g] = abs(s.values[-1])
        assert mags[1.0] <= mags[0.1]

    def test_weights_identity_on_run(self, relaxed_default):
        state, res = relaxed_default
        sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.5)
        traj, _ = mf.propagate(state, sys_post, dt=5e-4, t_max=3.0, record_every=500)
        s = mf.mean_field_contrast(traj.times, traj.overlaps, res.energy, sys_post.n_bath, 5e-4 * 500)
        a, b = 0.6, 0.8
        out = general_weights_contrast(s, a, b)
        svals = s.values
        direct = np.sqrt(
            (2 * a * b * svals.real) ** 2
            + (2 * a * b * svals.imag) ** 2
            + (a**2 - b**2) ** 2
        )
        assert np.max(np.abs(out.values - direct)) < 1e-12

    def test_bad_steps_rejected(self, relaxed_default, default_system):
        state, _ = relaxed_default
        with pytest.raises(ConfigurationError):
            mf.propagate(state, default_system, dt=-1.0, t_max=1.0)

    def test_energy_drift_gate(self):
        # a g_bi = 0 -> 5 quench at dt = 0.05 drifts 1e-3 in energy in one step
        grid = build_grid(128, 20.0)
        state, _ = mf.relax_ground_state(mf.MeanFieldSystem(n_bath=10, g_bb=0.5, g_bi=0.0), grid)
        post = mf.MeanFieldSystem(n_bath=10, g_bb=0.5, g_bi=5.0)
        with pytest.raises(StepSizeError, match=r"energy drift 1\.02e-03 at t=0\.050") as err:
            mf.propagate(state, post, dt=0.05, t_max=1.0, record_every=1)
        assert err.value.suggested_dt == 0.025


class TestSoundHorizon:
    def test_speed_at_center(self, relaxed_density, default_system):
        rho0 = float(np.interp(0.0, relaxed_density.grid.x, np.real(relaxed_density.values)))
        c0 = np.sqrt(0.5 * rho0)
        assert c0 == pytest.approx(np.sqrt(TF_MU_CLOSED_FORM), rel=0.02)

    def test_monotone_in_x_b(self, relaxed_density, default_system):
        times = [
            mf.sound_horizon(default_system, relaxed_density, xb)
            for xb in (1.0, 2.0, 4.0, 5.0, 6.0)
        ]
        assert np.all(np.diff(times) > 0)

    def test_cutoff_reported(self, relaxed_density, default_system):
        t, info = mf.sound_horizon(
            default_system, relaxed_density, 6.0, density_floor_frac=1e-3, return_info=True
        )
        assert info["cutoff_x"] < 6.0
        assert t < mf.sound_horizon(default_system, relaxed_density, 6.0)

    def test_beyond_grid_rejected(self, relaxed_density, default_system):
        with pytest.raises(UsageError):
            mf.sound_horizon(default_system, relaxed_density, 41.0)
