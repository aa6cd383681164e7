import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn

import ed_oracle
from polaron1d import exactdiag as ed
from polaron1d.errors import SizeError, UsageError
from polaron1d.grid import ho_mode_basis


def trapped_pair_ground_energy(g):
    """Total ground energy of two distinguishable trapped atoms with a contact
    interaction g (hbar = m = omega = 1): the relative motion satisfies the
    parabolic-cylinder matching condition -2*sqrt(2)*Gamma((1-nu)/2)/Gamma(-nu/2) = g
    with E_rel = nu + 1/2, plus the center-of-mass zero point."""

    def condition(nu):
        return -2.0 * np.sqrt(2.0) * gamma_fn((1.0 - nu) / 2.0) / gamma_fn(-nu / 2.0) - g

    nu = brentq(condition, 1e-12, 1.0 - 1e-12, xtol=1e-14)
    return 0.5 + (nu + 0.5)


class TestFockBasis:
    def test_counts(self):
        fock = ed.build_fock_basis(2, 3)
        assert fock.bath_dim == math.comb(4, 2) == 6
        assert fock.total_dim == 18

    def test_vacuum(self):
        assert ed.build_fock_basis(0, 5).bath_dim == 1

    def test_round_trip(self):
        fock = ed.build_fock_basis(3, 5)
        for i in range(fock.bath_dim):
            assert fock.index(fock.state(i)) == i

    def test_lexicographic_order(self):
        fock = ed.build_fock_basis(2, 3)
        occs = [tuple(row) for row in fock.occupations]
        assert occs == sorted(occs)

    def test_dimension_guard(self):
        with pytest.raises(SizeError) as err:
            ed.build_fock_basis(20, 20, dim_guard=1000)
        assert err.value.dimension == math.comb(39, 20) * 20

    @pytest.mark.parametrize("n_bath, n_modes", [(4, 10), (6, 12)])
    def test_rank_inverts_state(self, n_bath, n_modes):
        fock = ed.build_fock_basis(n_bath, n_modes)
        order = np.arange(fock.bath_dim)
        assert np.array_equal(fock.rank(fock.occupations), order)
        assert [fock.index(fock.state(i)) for i in order] == order.tolist()

    @pytest.mark.parametrize(
        "occupation",
        [[2, 1], [2, 1, 0, 0], [1, 1, 0], [3, 1, 0], [4, -1, 0], [1.5, 1.5, 0]],
        ids=["short", "long", "sum-low", "sum-high", "negative", "fractional"],
    )
    def test_index_rejects_outside_basis(self, occupation):
        fock = ed.build_fock_basis(3, 3)
        with pytest.raises(UsageError):
            fock.index(occupation)

    def test_transitions_match_lookup_oracle(self):
        fock = ed.build_fock_basis(4, 10)
        expected = ed_oracle.one_body_transitions(fock)
        got = ed._one_body_transitions(fock)
        assert got.keys() == expected.keys()
        for key, arrays in expected.items():
            for a, b in zip(got[key], arrays):
                assert np.array_equal(a, b)


class TestContactTensor:
    def test_gaussian_integrals(self, tensor10):
        assert tensor10[0, 0, 0, 0] == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-8)
        assert tensor10[0, 0, 1, 1] == pytest.approx(1 / (2 * np.sqrt(2 * np.pi)), abs=1e-8)

    def test_parity_zero(self, tensor10):
        assert abs(tensor10[0, 0, 0, 1]) < 1e-12
        assert abs(tensor10[1, 2, 3, 5]) < 1e-12

    def test_permutation_symmetry(self, tensor10):
        ref = tensor10[0, 2, 1, 3]
        for perm in ((2, 0, 1, 3), (1, 3, 0, 2), (3, 2, 1, 0)):
            assert tensor10[perm] == pytest.approx(ref, rel=1e-13)


class TestOracleParity:
    """The factorized assembly against the loop-based assembly it replaced
    (tests/ed_oracle.py)."""

    SIZES = [(3, 6), (4, 10)]

    @pytest.fixture(scope="class")
    def oracle_unit_blocks(self, grid):
        """Oracle interaction blocks at g_bb = g_bi = 1, per size."""
        blocks = {}
        for n_bath, n_modes in self.SIZES:
            basis = ho_mode_basis(grid, n_modes)
            fock = ed.build_fock_basis(n_bath, n_modes)
            blocks[n_bath, n_modes] = (basis, fock, ed_oracle.oracle_blocks(fock, basis, 1.0, 1.0))
        return blocks

    @pytest.mark.parametrize("n_modes", [6, 10, 14])
    def test_gauss_hermite_tensor_matches_grid_quadrature(self, grid, n_modes):
        _, w, phi = ed.contact_rule(n_modes)
        u = np.einsum("q,iq,jq,kq,lq->ijkl", w, phi, phi, phi, phi)
        oracle = ed_oracle.contact_tensor(ho_mode_basis(grid, n_modes)).dense()
        assert np.max(np.abs(u - oracle)) < 1e-13

    @pytest.mark.parametrize("g_bi", [0.0, 0.5, 1.8, 1e3])
    @pytest.mark.parametrize("g_bb", [0.0, 0.5])
    @pytest.mark.parametrize("size", SIZES, ids=["3x6", "4x10"])
    def test_matvec_matches_oracle(self, oracle_unit_blocks, size, g_bb, g_bi):
        basis, fock, (bb_unit, bi_unit) = oracle_unit_blocks[size]
        h = ed.build_hamiltonian(fock, g_bb, g_bi, basis=basis)
        blocks = (g_bb * bb_unit, g_bi * bi_unit)
        rng = np.random.default_rng(7)
        for _ in range(2):
            v = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
            expected = ed_oracle.oracle_matvec(h, blocks, v)
            assert np.linalg.norm(h.matvec(v) - expected) <= 1e-12 * np.linalg.norm(expected)
        if g_bb > 0:
            assert h.bb_csr.nnz == bb_unit.nnz
        if size == (3, 6):
            dense = ed_oracle.oracle_dense(h, blocks)
            assert np.max(np.abs(h.to_dense() - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestHamiltonian:
    def test_noninteracting_two_particles(self, basis10):
        fock = ed.build_fock_basis(1, 10)
        h = ed.build_hamiltonian(fock, 0.0, 0.0, basis=basis10)
        _, e = ed.ground_state(h)
        assert e == pytest.approx(1.0, abs=1e-10)

    def test_hermitian(self, basis10, rng):
        fock = ed.build_fock_basis(3, 10)
        h = ed.build_hamiltonian(fock, 0.5, 1.2, basis=basis10)
        for _ in range(3):
            a = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
            b = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert np.vdot(a, h.matvec(b)) == pytest.approx(
                np.conj(np.vdot(b, h.matvec(a))), abs=1e-10
            )

    def test_strong_coupling_fermionization(self, grid):
        basis14 = ho_mode_basis(grid, 14)
        fock = ed.build_fock_basis(1, 14)
        h = ed.build_hamiltonian(fock, 0.0, 1e3, basis=basis14)
        _, e = ed.ground_state(h)
        exact = trapped_pair_ground_energy(1e3)
        assert exact < 2.0  # approaches the fermionized value from below
        assert e == pytest.approx(exact, rel=0.05)

    def test_moderate_coupling_against_pair_oracle(self, grid):
        basis14 = ho_mode_basis(grid, 14)
        fock = ed.build_fock_basis(1, 14)
        h = ed.build_hamiltonian(fock, 0.0, 2.0, basis=basis14)
        _, e = ed.ground_state(h)
        # cusp convergence is slow (~M^-1/2); the M=14 truncation error is ~2.7%
        assert e == pytest.approx(trapped_pair_ground_energy(2.0), rel=0.04)
        assert e > trapped_pair_ground_energy(2.0)  # variational upper bound

    def test_variational_in_basis_size(self, grid):
        energies = []
        for m in (6, 10, 14):
            basis = ho_mode_basis(grid, m)
            fock = ed.build_fock_basis(2, m)
            h = ed.build_hamiltonian(fock, 0.5, 0.5, basis=basis)
            energies.append(ed.ground_state(h)[1])
        assert energies[0] >= energies[1] >= energies[2]

    def test_ground_state_matches_dense(self, grid):
        basis = ho_mode_basis(grid, 8)
        fock = ed.build_fock_basis(2, 8)  # dim 288
        h = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis)
        v, e = ed.ground_state(h, tol=1e-10)
        w, vecs = np.linalg.eigh(h.to_dense())
        assert e == pytest.approx(w[0], abs=1e-10)
        overlap = abs(np.vdot(vecs[:, 0], v.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)


class TestKrylov:
    def test_diagonal_evolution_phases(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        h = ed.build_hamiltonian(fock, 0.0, 0.0, basis=basis10)
        diag = h.bath_onebody[:, None] + np.diag(h.h_imp)[None, :]
        rng = np.random.default_rng(11)
        v0 = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
        v0 /= np.linalg.norm(v0)
        traj = ed.propagate_krylov(
            h, ed.ManyBodyVector(amplitudes=v0, fock=fock), dt=0.1, t_max=7.3,
            record_every=73,
        )
        exact = np.exp(-1j * diag.reshape(-1) * 7.3) * v0
        assert np.linalg.norm(traj.vectors[-1] - exact) < 1e-10

    def test_matches_dense_expm(self, grid):
        basis = ho_mode_basis(grid, 6)
        fock = ed.build_fock_basis(2, 6)  # dim 126 <= 200
        h = ed.build_hamiltonian(fock, 0.5, 0.8, basis=basis)
        hd = h.to_dense()
        w, vecs = np.linalg.eigh(hd)
        mix = vecs[:, 0] + 0.5 * vecs[:, 3] + 0.2 * vecs[:, 10]
        mix = mix / np.linalg.norm(mix)
        v0 = ed.ManyBodyVector(amplitudes=mix.astype(complex), fock=fock)
        traj = ed.propagate_krylov(h, v0, dt=0.1, t_max=10.0, record_every=100)
        exact = expm(-1j * hd * 10.0) @ v0.amplitudes
        assert np.linalg.norm(traj.vectors[-1] - exact) < 1e-10

    def test_unitarity(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        h0 = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10)
        v0, _ = ed.ground_state(h0)
        h1 = ed.build_hamiltonian(fock, 0.5, 0.8, basis=basis10)
        traj = ed.propagate_krylov(h1, v0, dt=0.1, t_max=5.0, record_every=5)
        norms = np.linalg.norm(traj.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        assert traj.max_norm_drift < 1e-9

    def test_energy_conserved(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        h0 = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10)
        v0, _ = ed.ground_state(h0)
        h1 = ed.build_hamiltonian(fock, 0.5, 1.0, basis=basis10)
        traj = ed.propagate_krylov(h1, v0, dt=0.1, t_max=10.0, record_every=20)
        energies = [
            float(np.real(np.vdot(traj.vectors[k], h1.matvec(traj.vectors[k]))))
            for k in range(traj.times.size)
        ]
        e0 = energies[0]
        assert np.max(np.abs(np.asarray(energies) - e0)) < 1e-9 * abs(e0)


class TestContrast:
    def test_unquenched_is_unity(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        h = ed.build_hamiltonian(fock, 0.5, 0.3, basis=basis10)
        v0, e0 = ed.ground_state(h)
        traj = ed.propagate_krylov(h, v0, dt=0.1, t_max=5.0, record_every=5)
        s = ed.ed_contrast(traj, v0, e0)
        assert np.max(np.abs(s.values - 1.0)) < 1e-8

    def test_min_contrast_decreases_with_coupling(self, basis10):
        fock = ed.build_fock_basis(4, 10)
        h0 = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10)
        v0, e0 = ed.ground_state(h0)
        minima = []
        for g in (0.1, 0.5, 1.0, 2.0):
            h1 = ed.build_hamiltonian(fock, 0.5, g, basis=basis10)
            traj = ed.propagate_krylov(h1, v0, dt=0.1, t_max=20.0, record_every=2)
            s = ed.ed_contrast(traj, v0, e0)
            assert np.max(np.abs(s.values)) <= 1.0 + 1e-10
            minima.append(float(np.min(np.abs(s.values))))
        assert all(a >= b for a, b in zip(minima, minima[1:]))


class TestSpectralShift:
    def test_first_peak_moves_up_with_coupling(self, basis10):
        from polaron1d.observables import find_peaks, spectral_function

        fock = ed.build_fock_basis(2, 10)
        h0 = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10)
        v0, e0 = ed.ground_state(h0)
        first_peaks = []
        for g in (0.3, 0.6, 1.0):
            h1 = ed.build_hamiltonian(fock, 0.5, g, basis=basis10)
            traj = ed.propagate_krylov(h1, v0, dt=0.1, t_max=40.0, record_every=1)
            s = ed.ed_contrast(traj, v0, e0)
            spec = spectral_function(s, window="hann", pad_factor=8)
            peaks = [p for p in find_peaks(spec, 0.2) if p["omega"] > spec.resolution]
            first_peaks.append(min(p["omega"] for p in peaks))
        assert first_peaks[0] < first_peaks[1] < first_peaks[2]


class TestSchmidt:
    def test_product_state(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        h = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10)
        v0, _ = ed.ground_state(h)
        dec = ed.schmidt(v0)
        assert dec.lambdas[0] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(dec.lambdas) == pytest.approx(1.0, abs=1e-12)
        ent = ed.entropy_and_populations(dec)
        assert ent["s_vn"] == pytest.approx(0.0, abs=1e-10)

    def test_bell_state(self):
        fock = ed.build_fock_basis(1, 2)
        amps = np.zeros((2, 2), dtype=complex)
        # (|bath mode 0, imp mode 1> + |bath mode 1, imp mode 0>)/sqrt(2)
        i0 = fock.index([1, 0])
        i1 = fock.index([0, 1])
        amps[i0, 1] = 1 / np.sqrt(2)
        amps[i1, 0] = 1 / np.sqrt(2)
        v = ed.ManyBodyVector(amplitudes=amps.reshape(-1), fock=fock)
        dec = ed.schmidt(v)
        assert np.allclose(dec.lambdas[:2], [0.5, 0.5], atol=1e-12)
        ent = ed.entropy_and_populations(dec)
        assert ent["s_vn"] == pytest.approx(np.log(2), abs=1e-12)

    def test_requires_normalization(self, basis10):
        fock = ed.build_fock_basis(1, 2)
        v = ed.ManyBodyVector(amplitudes=np.array([1.0, 1.0, 0, 0], dtype=complex), fock=fock)
        with pytest.raises(UsageError):
            ed.schmidt(v)

    def test_population_stays_condensed_without_coupling(self, basis10):
        fock = ed.build_fock_basis(3, 10)
        h0 = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10)
        v0, _ = ed.ground_state(h0)
        traj = ed.propagate_krylov(h0, v0, dt=0.1, t_max=3.0, record_every=10)
        for k in range(traj.times.size):
            dec = ed.schmidt(traj.vector(k))
            assert dec.lambdas[0] == pytest.approx(1.0, abs=1e-10)

    def test_entropy_grows_with_coupling(self, basis10):
        fock = ed.build_fock_basis(4, 10)
        h0 = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10)
        v0, _ = ed.ground_state(h0)
        averages = []
        for g in (0.25, 0.5, 1.0, 2.0):
            h1 = ed.build_hamiltonian(fock, 0.5, g, basis=basis10)
            traj = ed.propagate_krylov(h1, v0, dt=0.1, t_max=20.0, record_every=4)
            svn = [
                ed.entropy_and_populations(ed.schmidt(traj.vector(k)))["s_vn"]
                for k in range(traj.times.size)
            ]
            averages.append(float(np.mean(svn)))
        assert all(a <= b + 1e-12 for a, b in zip(averages, averages[1:]))


class TestSchmidtOverlapExpansion:
    def _evolved_decomposition(self, basis, g, n_bath=2, m=8, t=5.0):
        fock = ed.build_fock_basis(n_bath, m)
        h0 = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis)
        v0, _ = ed.ground_state(h0)
        h1 = ed.build_hamiltonian(fock, 0.5, g, basis=basis)
        traj = ed.propagate_krylov(h1, v0, dt=0.1, t_max=t, record_every=int(t / 0.1))
        return ed.schmidt(traj.vector(-1)), h1

    def test_product_state_limit(self, grid):
        basis = ho_mode_basis(grid, 8)
        fock = ed.build_fock_basis(2, 8)
        h0 = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis)
        v0, _ = ed.ground_state(h0)
        dec = ed.schmidt(v0)
        out = ed.schmidt_overlap_expansion(dec, basis)
        assert out["lambda_exact"] == pytest.approx(out["lambda0"], abs=1e-10)
        assert out["lambda_order1"] == pytest.approx(out["lambda0"], abs=1e-10)
        assert out["truncation_valid"]

    def test_cross_overlaps_nonnegative(self, grid):
        basis = ho_mode_basis(grid, 8)
        dec, _ = self._evolved_decomposition(basis, 0.1)
        out = ed.schmidt_overlap_expansion(dec, basis)
        assert np.min(out["k_bi"]) >= 0.0

    def test_first_order_error_is_second_order_small(self, grid):
        basis = ho_mode_basis(grid, 8)
        diffs, ratios = [], []
        for g in (0.05, 0.1):
            dec, _ = self._evolved_decomposition(basis, g)
            out = ed.schmidt_overlap_expansion(dec, basis)
            assert out["truncation_valid"]
            diffs.append(abs(out["lambda_exact"] - out["lambda_order1"]))
            ratios.append(dec.lambdas[1] / dec.lambdas[0])
        # error should scale like (lambda_2/lambda_1)^2 between the two runs
        expected = (ratios[1] / ratios[0]) ** 2
        measured = diffs[1] / max(diffs[0], 1e-300)
        assert measured == pytest.approx(expected, rel=0.5)
        # and be bounded by a modest constant times the square
        c = diffs[0] / ratios[0] ** 2
        assert diffs[1] <= 10.0 * c * ratios[1] ** 2


class TestEnergyBreakdown:
    def test_sum_matches_hamiltonian_expectation(self, basis10, rng):
        fock = ed.build_fock_basis(2, 10)
        h = ed.build_hamiltonian(fock, 0.5, 0.7, basis=basis10)
        v = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
        v /= np.linalg.norm(v)
        bd = ed.energy_breakdown(ed.ManyBodyVector(amplitudes=v, fock=fock), h)
        direct = float(np.real(np.vdot(v, h.matvec(v))))
        assert bd.total == pytest.approx(direct, abs=1e-10)

    def test_noninteracting_virial(self, basis10):
        from polaron1d.observables import virial_check

        fock = ed.build_fock_basis(2, 10)
        h = ed.build_hamiltonian(fock, 0.0, 0.0, basis=basis10)
        v0, _ = ed.ground_state(h)
        bd = ed.energy_breakdown(v0, h)
        assert virial_check(bd) == pytest.approx(0.0, abs=1e-8)
