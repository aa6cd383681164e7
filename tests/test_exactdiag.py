import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn

import ed_oracle
from polaron1d import exactdiag as ed
from polaron1d.errors import ConfigurationError, ConvergenceError, SizeError, UsageError
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


def random_sector_vector(h, rng):
    """A normalized complex sector vector of h with random amplitudes in its
    valid slots and exact zeros in the invalid ones."""
    w = (rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)) * (h.full_index >= 0)
    return w / np.linalg.norm(w)


def full_dense(h):
    """H on the full space (bath Fock state x impurity mode), assembled from
    the dense matrices of its two parity sectors."""
    dense = np.zeros((h.fock.total_dim, h.fock.total_dim))
    for hs in (h.in_sector(0), h.in_sector(1)):
        full = hs.full_index[hs.slots]
        dense[np.ix_(full, full)] = hs.to_dense()
    return dense


def bath_contact_matrix(h):
    """The H_BB that h applies, as a sparse matrix on the bath Fock space:
    P^T (G (x) 1) P from the pair annihilators P (rows p s'' + b'') and the
    pair-space block G = diag(D_e D_e^T, D_o D_o^T) of the node factors."""
    d_e, d_o = h.pair_nodes
    gram = np.zeros((len(d_e) + len(d_o),) * 2)
    gram[: len(d_e), : len(d_e)] = d_e @ d_e.T
    gram[len(d_e) :, len(d_e) :] = d_o @ d_o.T
    s_less = h.pair_annihilators.shape[0] // gram.shape[0]
    middle = sp.kron(gram, sp.identity(s_less), format="csr")
    return (h.pair_creators @ middle @ h.pair_annihilators).tocsr()


def one_body_operator(fock, hops, coeffs):
    """sum_il coeffs[i, l] a_i^+ a_l on the bath Fock space: the occupations on
    the diagonal and the oracle's hop table (i, l) -> (src, dst, amp) off it."""
    s = fock.bath_dim
    op = sp.diags(fock.occupations @ np.diagonal(coeffs)).tocsr()
    for (i, l), (src, dst, amp) in hops.items():
        op += sp.csr_matrix((coeffs[i, l] * amp, (dst, src)), shape=(s, s))
    return op


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
            assert fock.index(fock.occupations[i]) == i

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
        assert [fock.index(fock.occupations[i]) for i in order] == order.tolist()

    @pytest.mark.parametrize(
        "occupation",
        [[2, 1], [2, 1, 0, 0], [1, 1, 0], [3, 1, 0], [4, -1, 0], [1.5, 1.5, 0]],
        ids=["short", "long", "sum-low", "sum-high", "negative", "fractional"],
    )
    def test_index_rejects_outside_basis(self, occupation):
        fock = ed.build_fock_basis(3, 3)
        with pytest.raises(UsageError):
            fock.index(occupation)


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
        h0 = ed.build_hamiltonian(fock, g_bb, g_bi, basis=basis)
        blocks = (g_bb * bb_unit, g_bi * bi_unit)
        rng = np.random.default_rng(7)
        for h in (h0, h0.in_sector(1)):
            for _ in range(2):
                w = random_sector_vector(h, rng)
                expected = ed_oracle.sector_matvec(h, blocks, w)
                assert np.linalg.norm(h.matvec(w) - expected) <= 1e-12 * np.linalg.norm(expected)
            if size == (3, 6):
                full = h.full_index[h.slots]
                dense = ed_oracle.oracle_dense(h, blocks)[np.ix_(full, full)]
                assert np.max(np.abs(h.to_dense() - dense)) <= 1e-12 * np.max(np.abs(dense))
        if g_bb > 0:
            assert bath_contact_matrix(h0).nnz == bb_unit.nnz

    @pytest.mark.parametrize("size", [(2, 3), (3, 7), (4, 10)], ids=["2x3", "3x7", "4x10"])
    def test_bath_block_matches_gauss_hermite_oracle(self, size):
        # the oracle's loop assembly on the Gauss-Hermite integrals: the
        # operator that the pair annihilators and node factors apply, to
        # round-off
        fock = ed.build_fock_basis(*size)
        g_bb = 0.7
        bb = ed_oracle.bath_interaction_csr(fock, ed_oracle.gauss_hermite_tensor(size[1]), g_bb)
        h0 = ed.build_hamiltonian(fock, g_bb, 0.0)
        rng = np.random.default_rng(3)
        for h in (h0, h0.in_sector(1)):
            w = random_sector_vector(h, rng).reshape(fock.bath_dim, h.n_cols)
            for wmat in (w, np.ascontiguousarray(w.real)):
                expected = bb @ wmat
                got = h._bb_apply(wmat)
                assert got.dtype == wmat.dtype
                assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
                assert h.expect_bb(wmat) == pytest.approx(
                    float(np.real(np.vdot(wmat, expected))), rel=1e-14
                )


class TestAssemblyProperties:
    """The assembly on random small systems: the oracle's matrix action, and
    H_BB symmetric, positive semidefinite and zero below two bosons."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_bath=st.integers(0, 4),
        n_modes=st.integers(1, 6),
        g_bb=st.floats(0.0, 5.0),
        g_bi=st.floats(0.0, 5.0),
    )
    def test_matvec_matches_oracle(self, grid, n_bath, n_modes, g_bb, g_bi):
        basis = ho_mode_basis(grid, n_modes)
        fock = ed.build_fock_basis(n_bath, n_modes)
        h0 = ed.build_hamiltonian(fock, g_bb, g_bi, basis=basis)
        blocks = ed_oracle.oracle_blocks(fock, basis, g_bb, g_bi)
        rng = np.random.default_rng(11)
        for h in (h0, h0.in_sector(1)):
            if h.sector_dim == 0:
                continue
            w = random_sector_vector(h, rng)
            expected = ed_oracle.sector_matvec(h, blocks, w)
            assert np.linalg.norm(h.matvec(w) - expected) <= 1e-12 * np.linalg.norm(expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_bath=st.integers(0, 4),
        n_modes=st.integers(1, 6),
        g_bb=st.floats(0.0, 5.0, exclude_min=True, allow_subnormal=False),
    )
    @example(n_bath=1, n_modes=10, g_bb=1.0)
    def test_bath_block_is_positive_semidefinite(self, n_bath, n_modes, g_bb):
        h = ed.build_hamiltonian(ed.build_fock_basis(n_bath, n_modes), g_bb, 0.0)
        bb = bath_contact_matrix(h)
        if n_bath <= 1:
            assert bb.nnz == 0
            return
        dense = bb.toarray()
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(dense - dense.T)) <= 1e-14 * scale
        assert np.linalg.eigvalsh(dense)[0] >= -1e-12 * scale


class TestHamiltonian:
    def test_build_allocation_budget(self):
        # one N_B = 4, M = 10 build allocates the same every time, so a peak
        # bound guards the assembly's memory without a timing assertion
        fock = ed.build_fock_basis(4, 10)
        ed.build_hamiltonian(fock, 0.5, 1.8)
        tracemalloc.start()
        try:
            h = ed.build_hamiltonian(fock, 0.5, 1.8)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5_000_000
        # the bath-bath block is kept as its pair annihilators and node
        # factors, not as B^T B
        assert kept <= 600_000
        assert h.pair_annihilators is not None and h.pair_nodes is not None

    def test_large_build_allocation_budget(self):
        # N_B = 6, M = 12 (bath_dim 12 376): measured 29.1 MB peak and 5.6 MB
        # held, against 75.8 and 17.0 MB when an identity kron assembled the
        # stored pair factor B; the bounds leave about 15 % for other numpy
        # and scipy versions
        fock = ed.build_fock_basis(6, 12)
        ed.build_hamiltonian(ed.build_fock_basis(2, 3), 0.5, 1.8)
        tracemalloc.start()
        try:
            h = ed.build_hamiltonian(fock, 0.5, 1.8)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 33_500_000
        assert kept <= 6_500_000
        assert h.pair_annihilators.shape == (78 * 1365, fock.bath_dim)

    def test_creators_are_built_once_per_bath_block(self):
        fock = ed.build_fock_basis(3, 8)
        h = ed.build_hamiltonian(fock, 0.5, 1.2)
        assert (h.creators != h.annihilators.T).nnz == 0
        assert ed.with_impurity_coupling(h, 2.0).creators is h.creators
        h2 = ed.with_impurity_coupling(h, 2.0)
        assert h2.pair_annihilators is h.pair_annihilators
        assert h2.pair_creators is h.pair_creators
        assert h2.pair_nodes is h.pair_nodes
        assert h.in_sector(1).pair_nodes is h.pair_nodes

    def test_noninteracting_two_particles(self, basis10):
        fock = ed.build_fock_basis(1, 10)
        h = ed.build_hamiltonian(fock, 0.0, 0.0, basis=basis10)
        assert ed.ground_state(h).energy == pytest.approx(1.0, abs=1e-10)

    def test_hermitian(self, basis10, rng):
        fock = ed.build_fock_basis(3, 10)
        h0 = ed.build_hamiltonian(fock, 0.5, 1.2, basis=basis10)
        for h in (h0, h0.in_sector(1)):
            for _ in range(3):
                a = random_sector_vector(h, rng)
                b = random_sector_vector(h, rng)
                assert np.vdot(a, h.matvec(b)) == pytest.approx(
                    np.conj(np.vdot(b, h.matvec(a))), abs=1e-10
                )

    def test_strong_coupling_fermionization(self, grid):
        basis14 = ho_mode_basis(grid, 14)
        fock = ed.build_fock_basis(1, 14)
        h = ed.build_hamiltonian(fock, 0.0, 1e3, basis=basis14)
        e = ed.ground_state(h).energy
        exact = trapped_pair_ground_energy(1e3)
        assert exact < 2.0  # approaches the fermionized value from below
        assert e == pytest.approx(exact, rel=0.05)

    def test_moderate_coupling_against_pair_oracle(self, grid):
        basis14 = ho_mode_basis(grid, 14)
        fock = ed.build_fock_basis(1, 14)
        h = ed.build_hamiltonian(fock, 0.0, 2.0, basis=basis14)
        e = ed.ground_state(h).energy
        # cusp convergence is slow (~M^-1/2); the M=14 truncation error is ~2.7%
        assert e == pytest.approx(trapped_pair_ground_energy(2.0), rel=0.04)
        assert e > trapped_pair_ground_energy(2.0)  # variational upper bound

    def test_variational_in_basis_size(self, grid):
        energies = []
        for m in (6, 10, 14):
            basis = ho_mode_basis(grid, m)
            fock = ed.build_fock_basis(2, m)
            h = ed.build_hamiltonian(fock, 0.5, 0.5, basis=basis)
            energies.append(ed.ground_state(h).energy)
        assert energies[0] >= energies[1] >= energies[2]

    def test_ground_state_matches_dense(self, grid):
        basis = ho_mode_basis(grid, 8)
        fock = ed.build_fock_basis(2, 8)  # dim 288
        h = ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis)
        ground = ed.ground_state(h)
        w, vecs = np.linalg.eigh(full_dense(h))
        assert ground.energy == pytest.approx(w[0], abs=1e-10)
        overlap = abs(np.vdot(vecs[:, 0], ed_oracle.embed(ground.hamiltonian, ground.vector)))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "n_bath, n_modes, g_bb, g_bi, parity",
        # odd-1x14 is the fermionized two-body limit: its ground state is odd
        # under x -> -x, the sector a parity-even start vector never reaches;
        # the tiny cases run the same Lanczos, and at g = 0 (dim 18) its
        # Krylov space breaks down at 7 vectors
        [(3, 6, 0.5, 1.8, 0), (1, 14, 0.0, 1e3, 1), (1, 2, 0.5, 1.0, 0), (2, 3, 0.0, 0.0, 0)],
        ids=["even-3x6", "odd-1x14", "dim4-1x2", "free-2x3"],
    )
    def test_lanczos_matches_dense_eigh(self, grid, n_bath, n_modes, g_bb, g_bi, parity):
        fock = ed.build_fock_basis(n_bath, n_modes)
        h = ed.build_hamiltonian(fock, g_bb, g_bi, basis=ho_mode_basis(grid, n_modes))
        ground = ed.ground_state(h)
        v = ed_oracle.embed(ground.hamiltonian, ground.vector)
        w, vecs = np.linalg.eigh(full_dense(h))
        assert abs(ground.energy - w[0]) <= 1e-10
        assert abs(abs(np.vdot(vecs[:, 0], v)) - 1.0) <= 1e-8
        assert ground.sector == parity
        bath_quanta = fock.occupations @ np.arange(n_modes)
        sector = (bath_quanta[:, None] + np.arange(n_modes)[None, :]).reshape(-1) % 2
        assert np.sum(np.abs(v[sector == parity]) ** 2) == pytest.approx(1.0, abs=1e-12)
        # the other sector's lowest energy is the lowest of the other parity
        other = w[np.argmax([np.sum(np.abs(x[sector != parity]) ** 2) > 0.5 for x in vecs.T])]
        assert abs(ground.other_energy - other) <= 1e-10

    def test_real_vectors_stay_real(self, basis10, rng):
        fock = ed.build_fock_basis(3, 10)
        h0 = ed.build_hamiltonian(fock, 0.5, 1.2, basis=basis10)
        for h in (h0, h0.in_sector(1)):
            x = rng.standard_normal(h.dim)
            hx = h.matvec(x)
            assert hx.dtype == np.float64
            assert np.max(np.abs(hx - h.matvec(x.astype(complex)))) <= 1e-12 * np.max(np.abs(hx))

    def test_step_cap_raises_convergence_error(self, basis10, monkeypatch):
        fock = ed.build_fock_basis(2, 10)
        h = ed.build_hamiltonian(fock, 0.5, 0.8, basis=basis10)
        monkeypatch.setattr(ed, "GROUND_STATE_MAX_STEPS", 5)
        with pytest.raises(ConvergenceError, match="after 5 steps") as info:
            ed.ground_state(h)
        # the trace holds the lowest Ritz value of each step, which can only fall
        trace = info.value.trace
        assert trace.shape == (5,)
        assert np.all(np.diff(trace) <= 1e-12)


class TestKrylov:
    def test_diagonal_evolution_phases(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        h0 = ed.build_hamiltonian(fock, 0.0, 0.0, basis=basis10)
        diag = (h0.bath_onebody[:, None] + np.diag(h0.t_imp + h0.v_imp)[None, :]).reshape(-1)
        rng = np.random.default_rng(11)
        for h in (h0, h0.in_sector(1)):
            v0 = random_sector_vector(h, rng)
            traj, states = ed_oracle.propagate_states(h, v0, dt=0.1, t_max=7.3, record_every=73)
            exact = np.exp(-1j * diag[h.full_index] * 7.3) * v0
            assert np.linalg.norm(states[-1] - exact) < 1e-10

    def test_matches_dense_expm(self, grid):
        basis = ho_mode_basis(grid, 6)
        fock = ed.build_fock_basis(2, 6)  # dim 126 <= 200
        h = ed.build_hamiltonian(fock, 0.5, 0.8, basis=basis)
        hd = h.to_dense()
        w, vecs = np.linalg.eigh(hd)
        mix = vecs[:, 0] + 0.5 * vecs[:, 3] + 0.2 * vecs[:, 10]
        mix = mix / np.linalg.norm(mix)
        traj, states = ed_oracle.propagate_states(h, mix, dt=0.1, t_max=10.0, record_every=100)
        exact = expm(-1j * hd * 10.0) @ mix
        assert np.linalg.norm(states[-1] - exact) < 1e-10

    @pytest.fixture(scope="class")
    def system126(self, grid):
        """The dim-126 system of test_matches_dense_expm and its dense matrix."""
        fock = ed.build_fock_basis(2, 6)
        h = ed.build_hamiltonian(fock, 0.5, 0.8, basis=ho_mode_basis(grid, 6))
        return h, h.to_dense()

    @staticmethod
    def count_matvecs(monkeypatch, h):
        calls = []
        matvec = h.matvec
        monkeypatch.setattr(h, "matvec", lambda v: calls.append(None) or matvec(v))
        return calls

    def test_matches_dense_expm_at_every_record(self, system126):
        h, hd = system126
        _, vecs = np.linalg.eigh(hd)
        mix = vecs[:, 0] + 0.5 * vecs[:, 3] + 0.2 * vecs[:, 10]
        mix = mix / np.linalg.norm(mix)
        traj, states = ed_oracle.propagate_states(h, mix, dt=0.1, t_max=10.0, record_every=1)
        assert traj.times.size == 101
        errors = [
            np.linalg.norm(vec - expm(-1j * hd * t) @ mix)
            for t, vec in zip(traj.times, states)
        ]
        assert max(errors) <= 1e-12
        assert traj.max_krylov_dim <= ed.KRYLOV_MAX_DIM

    def test_long_record_spacing_takes_internal_steps(self, system126, monkeypatch):
        # a generic start vector: no Krylov space of KRYLOV_MAX_DIM vectors
        # reaches t = 10 at ||H|| ~ 17, so the one record needs internal steps
        h, hd = system126
        rng = np.random.default_rng(5)
        v = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
        v /= np.linalg.norm(v)
        calls = self.count_matvecs(monkeypatch, h)
        traj, states = ed_oracle.propagate_states(h, v, dt=0.1, t_max=10.0, record_every=100)
        assert traj.times.size == 2
        assert len(calls) > ed.KRYLOV_MAX_DIM
        assert traj.max_krylov_dim <= ed.KRYLOV_MAX_DIM
        assert np.linalg.norm(states[-1] - expm(-1j * hd * traj.times[-1]) @ v) < 1e-10
        assert traj.max_norm_drift < 1e-12

    @pytest.mark.parametrize("dt, t_max, record_every", [(0.1, 2.0, 3), (0.05, 3.0, 2), (0.07, 1.0, 1)])
    def test_record_k_sits_at_k_record_spacings(self, system126, dt, t_max, record_every):
        h, _ = system126
        v0 = ed.ground_state(h).vector
        traj, states = ed_oracle.propagate_states(
            h, v0, dt=dt, t_max=t_max, record_every=record_every
        )
        n_rec = int(round(t_max / dt)) // record_every
        assert np.array_equal(traj.times, (dt * record_every) * np.arange(n_rec + 1))
        assert states.shape == (n_rec + 1, h.dim)

    def test_t_max_below_one_record_interval_is_refused(self, system126):
        # 0.06 / 0.05 rounds to one step, short of one 4-step record interval;
        # the run must not go on to t = 0.2
        h, _ = system126
        v0 = ed.ground_state(h).vector
        with pytest.raises(ConfigurationError, match=r"time\.t_max.*time\.dt \* time\.record_every"):
            ed_oracle.propagate_states(h, v0, dt=0.05, t_max=0.06, record_every=4)
        # a record_every that is no whole number >= 1 is refused, not coerced
        for bad in (0, -3, 2.5):
            with pytest.raises(ConfigurationError, match=r"time\.record_every = .* whole number"):
                ed_oracle.propagate_states(h, v0, dt=0.05, t_max=0.06, record_every=bad)

    def test_matvec_budget(self, basis10, monkeypatch):
        # the perfbench ed-quench point at g_bi = 1.8; matvec counts repeat
        # exactly, so this bounds the cost without a timing assertion
        fock = ed.build_fock_basis(4, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10))
        v0, h1 = ground.vector, ed.with_impurity_coupling(ground.hamiltonian, 1.8)
        calls = self.count_matvecs(monkeypatch, h1)
        traj, states = ed_oracle.propagate_states(h1, v0, dt=0.05, t_max=3.0, record_every=2)
        assert traj.times.size == 31
        assert len(calls) <= 200

    def test_unitarity(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10))
        v0, h1 = ground.vector, ed.with_impurity_coupling(ground.hamiltonian, 0.8)
        traj, states = ed_oracle.propagate_states(h1, v0, dt=0.1, t_max=5.0, record_every=5)
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        assert traj.max_norm_drift < 1e-9

    def test_energy_conserved(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10))
        v0, h1 = ground.vector, ed.with_impurity_coupling(ground.hamiltonian, 1.0)
        traj, states = ed_oracle.propagate_states(h1, v0, dt=0.1, t_max=10.0, record_every=20)
        energies = [
            float(np.real(np.vdot(states[k], h1.matvec(states[k]))))
            for k in range(traj.times.size)
        ]
        e0 = energies[0]
        assert np.max(np.abs(np.asarray(energies) - e0)) < 1e-9 * abs(e0)


class TestContrast:
    def test_unquenched_is_unity(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.3, basis=basis10))
        h, v0, e0 = ground.hamiltonian, ground.vector, ground.energy
        traj, states = ed_oracle.propagate_states(h, v0, dt=0.1, t_max=5.0, record_every=5)
        s = ed.ed_contrast(traj.times, states @ np.conj(v0), e0, 0.1 * 5)
        assert np.max(np.abs(s.values - 1.0)) < 1e-8

    def test_min_contrast_decreases_with_coupling(self, basis10):
        fock = ed.build_fock_basis(4, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10))
        v0, e0 = ground.vector, ground.energy
        minima = []
        for g in (0.1, 0.5, 1.0, 2.0):
            h1 = ed.with_impurity_coupling(ground.hamiltonian, g)
            traj, states = ed_oracle.propagate_states(h1, v0, dt=0.1, t_max=20.0, record_every=2)
            s = ed.ed_contrast(traj.times, states @ np.conj(v0), e0, 0.1 * 2)
            assert np.max(np.abs(s.values)) <= 1.0 + 1e-10
            minima.append(float(np.min(np.abs(s.values))))
        assert all(a >= b for a, b in zip(minima, minima[1:]))


class TestSpectralShift:
    def test_first_peak_moves_up_with_coupling(self, basis10):
        from polaron1d.observables import find_peaks, spectral_function

        fock = ed.build_fock_basis(2, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10))
        v0, e0 = ground.vector, ground.energy
        first_peaks = []
        for g in (0.3, 0.6, 1.0):
            h1 = ed.with_impurity_coupling(ground.hamiltonian, g)
            traj, states = ed_oracle.propagate_states(h1, v0, dt=0.1, t_max=40.0, record_every=1)
            s = ed.ed_contrast(traj.times, states @ np.conj(v0), e0, 0.1)
            spec = spectral_function(s, window="hann")
            peaks = [p for p in find_peaks(spec, 0.2) if p["omega"] > spec.resolution]
            first_peaks.append(min(p["omega"] for p in peaks))
        assert first_peaks[0] < first_peaks[1] < first_peaks[2]


class TestSchmidt:
    def test_product_state(self, basis10):
        fock = ed.build_fock_basis(2, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10))
        lambdas = ed.schmidt(ground.vector, ground.hamiltonian)
        assert lambdas[0] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(lambdas) == pytest.approx(1.0, abs=1e-12)
        assert ed.entanglement_entropy(lambdas) == pytest.approx(0.0, abs=1e-10)

    def test_bell_state(self):
        fock = ed.build_fock_basis(1, 2)
        amps = np.zeros((2, 2), dtype=complex)
        # (|bath mode 0, imp mode 1> + |bath mode 1, imp mode 0>)/sqrt(2), odd
        i0 = fock.index([1, 0])
        i1 = fock.index([0, 1])
        amps[i0, 1] = 1 / np.sqrt(2)
        amps[i1, 0] = 1 / np.sqrt(2)
        h = ed.build_hamiltonian(fock, 0.0, 0.0).in_sector(1)
        lambdas = ed.schmidt(ed_oracle.restrict(h, amps), h)
        assert np.allclose(lambdas[:2], [0.5, 0.5], atol=1e-12)
        assert ed.entanglement_entropy(lambdas) == pytest.approx(np.log(2), abs=1e-12)

    def test_entropy_of_each_row_matches_a_loop(self, rng):
        # one entropy per row of a stack, over the weights above 1e-16 only
        lambdas = rng.random((5, 10)) ** 8
        lambdas /= lambdas.sum(axis=1, keepdims=True)
        lambdas[1, 4:] = 1e-17
        lambdas[2] = np.eye(10)[0]
        want = [-sum(lam * np.log(lam) for lam in row if lam > 1e-16) for row in lambdas]
        got = ed.entanglement_entropy(lambdas)
        assert got.shape == (5,)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert got[2] == 0.0

    def test_requires_normalization(self, basis10):
        h = ed.build_hamiltonian(ed.build_fock_basis(1, 2), 0.0, 0.0)
        with pytest.raises(UsageError):
            ed.schmidt(np.array([1.0, 1.0], dtype=complex), h)

    def test_population_stays_condensed_without_coupling(self, basis10):
        fock = ed.build_fock_basis(3, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10))
        h0, v0 = ground.hamiltonian, ground.vector
        traj, states = ed_oracle.propagate_states(h0, v0, dt=0.1, t_max=3.0, record_every=10)
        for vec in states:
            assert ed.schmidt(vec, h0)[0] == pytest.approx(1.0, abs=1e-10)

    def test_entropy_grows_with_coupling(self, basis10):
        fock = ed.build_fock_basis(4, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10))
        v0 = ground.vector
        averages = []
        for g in (0.25, 0.5, 1.0, 2.0):
            h1 = ed.with_impurity_coupling(ground.hamiltonian, g)
            traj, states = ed_oracle.propagate_states(h1, v0, dt=0.1, t_max=20.0, record_every=4)
            lambdas = np.array([ed.schmidt(vec, h1) for vec in states])
            averages.append(float(np.mean(ed.entanglement_entropy(lambdas))))
        assert all(a <= b + 1e-12 for a, b in zip(averages, averages[1:]))


class TestBathDensityMatrix:
    """The bath one-body density matrix from the stacked annihilators, against
    explicit occupations and explicit one-body operators."""

    @pytest.fixture(scope="class")
    def vectors(self, grid):
        fock = ed.build_fock_basis(3, 6)
        ground = ed.ground_state(
            ed.build_hamiltonian(fock, 0.5, 1.8, basis=ho_mode_basis(grid, 6))
        )
        h = ground.hamiltonian
        rand = random_sector_vector(h, np.random.default_rng(5))
        return h, {"ground": ground.vector, "random": rand}

    @pytest.mark.parametrize("kind", ["ground", "random"])
    def test_matches_loop_oracle(self, vectors, kind):
        h, vecs = vectors
        got = h.bath_rdm(vecs[kind])
        want = ed_oracle.bath_rdm(h.fock, ed_oracle.embed(h, vecs[kind]))
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("kind", ["ground", "random"])
    def test_bath_energies_match_one_body_operators(self, vectors, kind):
        h, vecs = vectors
        fock, m = h.fock, h.fock.n_modes
        hops = ed_oracle.one_body_transitions(fock)
        vmat = ed_oracle.embed(h, vecs[kind]).reshape(fock.bath_dim, m)
        kinetic, potential = (
            float(np.real(np.vdot(vmat, one_body_operator(fock, hops, coeffs) @ vmat)))
            for coeffs in (0.5 * ed._quadratic_matrix(m, -1.0), 0.5 * ed._quadratic_matrix(m, 1.0))
        )
        bd = ed.energy_breakdown(vecs[kind], h)
        assert bd.kinetic_b == pytest.approx(kinetic, abs=1e-12)
        assert bd.potential_b == pytest.approx(potential, abs=1e-12)


class TestEnergyBreakdown:
    def test_interaction_terms_match_oracle(self, grid, rng):
        basis = ho_mode_basis(grid, 6)
        fock = ed.build_fock_basis(3, 6)
        g_bb, g_bi = 0.5, 1.8
        h = ed.build_hamiltonian(fock, g_bb, g_bi, basis=basis)
        bb_unit, bi_unit = ed_oracle.oracle_blocks(fock, basis, 1.0, 1.0)
        for hs in (h, h.in_sector(1)):
            w = random_sector_vector(hs, rng)
            v = ed_oracle.embed(hs, w)
            vmat = v.reshape(fock.bath_dim, fock.n_modes)
            bd = ed.energy_breakdown(w, hs)
            assert bd.intra_bb == pytest.approx(
                float(np.real(np.vdot(vmat, g_bb * (bb_unit @ vmat)))), abs=1e-12
            )
            assert bd.inter_bi == pytest.approx(
                float(np.real(np.vdot(v, g_bi * (bi_unit @ v)))), abs=1e-12
            )

    def test_sum_matches_hamiltonian_expectation(self, basis10, rng):
        fock = ed.build_fock_basis(2, 10)
        h0 = ed.build_hamiltonian(fock, 0.5, 0.7, basis=basis10)
        for h in (h0, h0.in_sector(1)):
            v = random_sector_vector(h, rng)
            bd = ed.energy_breakdown(v, h)
            direct = float(np.real(np.vdot(v, h.matvec(v))))
            assert bd.total == pytest.approx(direct, abs=1e-10)

    def test_noninteracting_virial(self, basis10):
        from polaron1d.observables import virial_check

        fock = ed.build_fock_basis(2, 10)
        ground = ed.ground_state(ed.build_hamiltonian(fock, 0.0, 0.0, basis=basis10))
        bd = ed.energy_breakdown(ground.vector, ground.hamiltonian)
        assert virial_check(bd) == pytest.approx(0.0, abs=1e-8)


class TestParitySectors:
    """The sector layout against the full-space oracle (tests/ed_oracle.py):
    H maps each total-parity sector into itself, the sector matvec is the
    oracle's matrix action restricted to the sector, and the two sectors
    together carry the whole spectrum. omega_i = 0.8 keeps the impurity band
    (modes i <-> i + 2) in play."""

    SIZES = [(0, 3), (1, 2), (1, 14), (2, 3), (3, 7), (4, 10)]
    G_BB, G_BI, OMEGA_I = 0.5, 1.8, 0.8

    @pytest.fixture(scope="class")
    def systems(self, grid):
        out = {}
        for n_bath, n_modes in self.SIZES:
            basis = ho_mode_basis(grid, n_modes)
            fock = ed.build_fock_basis(n_bath, n_modes)
            h = ed.build_hamiltonian(fock, self.G_BB, self.G_BI, omega_i=self.OMEGA_I, basis=basis)
            out[n_bath, n_modes] = (h, ed_oracle.oracle_blocks(fock, basis, self.G_BB, self.G_BI))
        return out

    @staticmethod
    def sectors(h):
        return [hs for hs in (h.in_sector(0), h.in_sector(1)) if hs.sector_dim]

    @pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_sector_matvec_is_the_oracle_restricted(self, systems, size):
        h, blocks = systems[size]
        rng = np.random.default_rng(3)
        for hs in self.sectors(h):
            w = random_sector_vector(hs, rng)
            full = ed_oracle.oracle_matvec(hs, blocks, ed_oracle.embed(hs, w))
            got = hs.matvec(w)
            want = full[hs.full_index[hs.slots]]
            assert np.linalg.norm(got[hs.slots] - want) <= 1e-12 * np.linalg.norm(want)
            # invalid slots (odd M) hold exact zeros, in and out
            assert np.all(got[hs.full_index < 0] == 0.0)
            assert np.all(hs.matvec(w.real.copy())[hs.full_index < 0] == 0.0)

    @pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_oracle_maps_each_sector_into_itself(self, systems, size):
        h, blocks = systems[size]
        rng = np.random.default_rng(4)
        for hs in self.sectors(h):
            w = random_sector_vector(hs, rng)
            full = ed_oracle.oracle_matvec(hs, blocks, ed_oracle.embed(hs, w))
            outside = np.ones(full.size, dtype=bool)
            outside[hs.full_index[hs.slots]] = False
            # the oracle's grid quadrature leaves parity-forbidden integrals
            # at round-off, not at exact zero
            assert np.linalg.norm(full[outside]) <= 1e-13 * np.linalg.norm(full)

    # the dense oracle at 4 x 10 (dim 7150) would take 400 MB
    @pytest.mark.parametrize("size", SIZES[:-1], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_sector_spectra_make_the_full_spectrum(self, systems, size):
        h, blocks = systems[size]
        full = np.linalg.eigvalsh(ed_oracle.oracle_dense(h, blocks))
        sectors = np.sort(np.concatenate([np.linalg.eigvalsh(hs.to_dense()) for hs in self.sectors(h)]))
        assert sectors.size == full.size == h.fock.total_dim
        assert np.max(np.abs(sectors - full)) <= 1e-11 * max(1.0, np.max(np.abs(full)))

    def test_propagation_refuses_a_mixed_parity_start(self, systems):
        # a start that mixes the sectors has no sector vector: in the full
        # space it is refused by either sector for its length
        h, _ = systems[3, 7]
        even, odd = h.in_sector(0), h.in_sector(1)
        rng = np.random.default_rng(8)
        v_even = ed_oracle.embed(even, random_sector_vector(even, rng))
        v_odd = ed_oracle.embed(odd, random_sector_vector(odd, rng))
        mixed = np.sqrt(1.0 - 1e-6) * v_even + np.sqrt(1e-6) * v_odd
        for hs in (even, odd):
            refusal = rf"length {h.fock.total_dim}; .* h\.dim = {hs.dim}"
            with pytest.raises(UsageError, match=refusal):
                ed.propagate_krylov(hs, mixed, dt=0.1, t_max=0.2, observe=lambda k, v: None)
        bad = ed_oracle.restrict(odd, v_odd)
        bad[np.flatnonzero(odd.full_index < 0)[0]] = 1e-3
        with pytest.raises(UsageError, match="invalid sector slots"):
            ed.propagate_krylov(odd, bad, dt=0.1, t_max=0.2, observe=lambda k, v: None)

    def test_propagation_refuses_a_full_space_vector(self, systems):
        # a full-space start of definite parity is refused too, naming the
        # sector length; its sector vector runs
        h, _ = systems[3, 7]
        odd = h.in_sector(1)
        w = random_sector_vector(odd, np.random.default_rng(13))
        v = ed_oracle.embed(odd, w)
        assert v.size == h.fock.total_dim == 588 and odd.dim == 336
        with pytest.raises(UsageError, match=r"length 588; a sector vector of h has h\.dim = 336"):
            ed.propagate_krylov(odd, v, dt=0.1, t_max=0.2, observe=lambda k, v: None)
        _, states = ed_oracle.propagate_states(odd, ed_oracle.restrict(odd, v), dt=0.1, t_max=0.2)
        assert np.array_equal(states[0], w)

    @pytest.mark.parametrize("size", [(2, 3), (3, 7)], ids=["2x3", "3x7"])
    def test_invalid_slots_stay_zero(self, systems, size):
        h, _ = systems[size]
        ground = ed.ground_state(h)
        rng = np.random.default_rng(9)
        for hs in self.sectors(h):
            invalid = hs.full_index < 0
            assert np.any(invalid)
            v0 = ground.vector if hs.sector == ground.sector else random_sector_vector(hs, rng)
            assert np.all(v0[invalid] == 0.0)
            _, states = ed_oracle.propagate_states(hs, v0, dt=0.1, t_max=3.0, record_every=3)
            assert np.all(states[:, invalid] == 0.0)

    @pytest.mark.parametrize("size", [(1, 14), (3, 7), (4, 10)], ids=["1x14", "3x7", "4x10"])
    def test_expect_bi_from_node_amplitudes(self, systems, size):
        h, _ = systems[size]
        rng = np.random.default_rng(10)
        for hs in self.sectors(h):
            v = random_sector_vector(hs, rng)
            bi_v = hs.matvec(v) - ed.with_impurity_coupling(hs, 0.0).matvec(v)
            want = float(np.real(np.vdot(v, bi_v)))
            assert abs(hs.expect_bi(v) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("size", [(1, 2), (3, 7), (4, 10)], ids=["1x2", "3x7", "4x10"])
    def test_schmidt_and_impurity_rdm_match_the_full_amplitudes(self, systems, size):
        h, _ = systems[size]
        rng = np.random.default_rng(12)
        for hs in self.sectors(h):
            w = random_sector_vector(hs, rng)
            vmat = ed_oracle.embed(hs, w).reshape(h.fock.bath_dim, h.fock.n_modes)
            sigma = np.linalg.svd(vmat, compute_uv=False)
            assert np.max(np.abs(ed.schmidt(w, hs) - sigma**2)) <= 1e-14
            assert np.max(np.abs(hs.impurity_rdm(w) - vmat.conj().T @ vmat)) <= 1e-14

    def test_ground_state_tie_goes_to_the_even_sector(self, systems, monkeypatch):
        h, _ = systems[3, 7]
        energies = {}
        real = ed._sector_ground_state

        def fake(hs):
            vec, _ = real(hs)
            return vec, energies[hs.sector]

        monkeypatch.setattr(ed, "_sector_ground_state", fake)
        energies.update({0: 2.0, 1: 2.0})
        tie = ed.ground_state(h)
        assert (tie.sector, tie.energy, tie.other_energy) == (0, 2.0, 2.0)
        energies.update({1: 2.0 - 3 * ed.GROUND_STATE_TOL})
        lower = ed.ground_state(h)
        assert (lower.sector, lower.other_energy) == (1, 2.0)
        assert lower.hamiltonian.sector == 1
