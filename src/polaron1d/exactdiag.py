"""Correlated tier: N_B bath bosons plus one spin-up impurity, both expanded
in the fixed harmonic-oscillator mode basis. Exact Hamiltonian action on the
truncated Fock space, Lanczos ground states, short-iterate Krylov real-time
propagation, exact contrast, Schmidt decomposition and entanglement measures.

The bath-bath contact term carries the conventional 1/2 prefactor,
H_BB = (g_bb/2) int Psi+ Psi+ Psi Psi; the bath-impurity term has no such
factor (distinguishable species). The spin-down impurity branch evolves with
the pure phase exp(-i E0 t) and never enters the diagonalization; that is
exact when the initial state is stationary for it (g_bi_initial = 0 and an
unchanged trap), which the runner demands of an ED quench.

The contact interaction is factorized. A product of four oscillator
functions is a polynomial of degree <= 4(M - 1) times exp(-2x^2), so the
Q = 2M - 1 point Gauss-Hermite rule for that weight gives every contact
integral exactly, u_ijkl = sum_q W_q phi_i(x_q) phi_j(x_q) phi_k(x_q)
phi_l(x_q). With the node densities n_q = sum_il phi_i(x_q) phi_l(x_q)
a_i+ a_l (the diagonal i = l included) and c_q = sum_l phi_l(x_q)^2:

    H_BI = g_bi sum_q W_q n_q (x) |phi(x_q)><phi(x_q)|
    H_BB = (g_bb/2) sum_q W_q (n_q^2 - c_q n_q)

H_BI is applied matrix-free, V Phi -> every n_q -> (g_bi W_q) Phi^T. Each
n_q is psi_q^+ psi_q with psi_q = sum_l phi_l(x_q) a_l, so one sparse matrix,
the stacked annihilators a_l (about 2 k nonzeros at N_B = 4, M = 10), lowers
V once, two small dense products carry the node sums and A^T raises the
result. H_BB is assembled by sparse products. The nodes come in pairs +-x_q
with n_{+-q} = E_q +- O_q, the parts of n_q with i + l even and odd, so a
pair contributes 2 W_q (E_q^2 + O_q^2 - c_q E_q) and no parity-forbidden
entry is ever formed.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import (
    AccuracyError,
    ConfigurationError,
    ConvergenceError,
    SizeError,
    StepSizeError,
    UsageError,
)
from .grid import Field, hermite_functions
from .observables import EnergyBreakdown, TimeSeries

DIM_GUARD_DEFAULT = 5_000_000


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis (n_1..n_M), sum n = N_B, lexicographic order,
    tensored with the impurity mode index. `binomials[r, k]` = C(r + k, k)
    counts the ways to put r bosons into k + 1 modes."""

    n_bath: int
    n_modes: int
    occupations: np.ndarray = field(repr=False, compare=False)
    binomials: np.ndarray = field(repr=False, compare=False)

    @property
    def bath_dim(self):
        return self.occupations.shape[0]

    @property
    def total_dim(self):
        return self.bath_dim * self.n_modes

    def rank(self, occs):
        """Basis index of each row of an array of valid occupations."""
        return _rank(self.binomials, self.n_bath, occs)

    def index(self, occupation):
        occ = np.asarray(occupation)
        valid = (
            occ.shape == (self.n_modes,)
            and (np.issubdtype(occ.dtype, np.integer) or np.issubdtype(occ.dtype, np.floating))
            and bool(np.all(occ >= 0))
            and bool(np.all(occ == np.floor(occ)))
            and occ.sum() == self.n_bath
        )
        if not valid:
            raise UsageError(f"occupation {occupation} not in the basis")
        return int(self.rank(occ))

    def state(self, index):
        return self.occupations[index]


def _rank(binomials, n_bath, occs):
    """Lexicographic index of each row of an array of occupations summing to
    n_bath: per mode, the number of states that share the preceding
    occupations and hold fewer bosons there, C(r + k, k) - C(r - n + k, k)
    with r bosons left and k modes after it."""
    occs = np.asarray(occs, dtype=np.int64)
    n_modes = occs.shape[-1]
    after = n_modes - 1 - np.arange(n_modes)
    left = n_bath - np.cumsum(occs, axis=-1) + occs
    return np.sum(binomials[left, after] - binomials[left - occs, after], axis=-1)


def build_fock_basis(n_bath, n_modes, dim_guard=DIM_GUARD_DEFAULT):
    if n_bath < 0 or n_modes < 1:
        raise ConfigurationError("need n_bath >= 0 and n_modes >= 1")
    bath_dim = math.comb(n_bath + n_modes - 1, n_bath)
    total = bath_dim * n_modes
    if total > dim_guard:
        raise SizeError(
            f"total dimension {total} exceeds the guard {dim_guard}",
            dimension=total,
        )
    # stars and bars: the M - 1 bar positions among N_B + M - 1 slots, taken in
    # lexicographic order, give the occupations in lexicographic order
    slots = n_bath + n_modes - 1
    bars = np.array(
        list(itertools.combinations(range(slots), n_modes - 1)), dtype=np.int32
    ).reshape(bath_dim, n_modes - 1)
    edges = np.hstack([np.full((bath_dim, 1), -1), bars, np.full((bath_dim, 1), slots)])
    occs = (np.diff(edges, axis=1) - 1).astype(np.int32)
    binomials = np.array(
        [[math.comb(r + k, k) for k in range(n_modes)] for r in range(n_bath + 1)],
        dtype=np.int64,
    )
    return FockBasis(
        n_bath=n_bath, n_modes=n_modes, occupations=occs, binomials=binomials
    )


def contact_rule(n_modes):
    """Nodes x_q, weights W_q and mode values phi[i, q] = phi_i(x_q) of the
    Q = 2M - 1 point Gauss-Hermite rule for the weight exp(-2x^2), rescaled so
    that u_ijkl = sum_q W_q phi_iq phi_jq phi_kq phi_lq exactly. The nodes are
    made exactly symmetric (x_{Q-1-q} = -x_q, centre node 0). Self-checked on
    the closed forms u_0000 = 1/sqrt(2 pi) and u_0011 = u_0000 / 2."""
    y, w = np.polynomial.hermite.hermgauss(2 * n_modes - 1)
    y = 0.5 * (y - y[::-1])
    w = 0.5 * (w + w[::-1])
    x = y / np.sqrt(2.0)
    weights = w * np.exp(y**2) / np.sqrt(2.0)
    phi = hermite_functions(x, n_modes)
    ref0 = 1.0 / np.sqrt(2.0 * np.pi)
    u0000 = float(weights @ phi[0] ** 4)
    if abs(u0000 - ref0) > 1e-12:
        raise AccuracyError(
            f"quadrature self-check failed: u[0000] = {u0000!r}, expected {ref0!r}"
        )
    if n_modes > 1 and abs(weights @ (phi[0] * phi[1]) ** 2 - 0.5 * ref0) > 1e-12:
        raise AccuracyError("quadrature self-check failed on u[0011]")
    return x, weights, phi


def _quadratic_matrix(m, sign):
    """x^2 (sign = +1) or p^2 (sign = -1) in the first m oscillator modes."""
    n = np.arange(m)
    mat = np.diag(n + 0.5)
    i = n[:-2]
    mat[i, i + 2] = mat[i + 2, i] = sign * 0.5 * np.sqrt((i + 1.0) * (i + 2.0))
    return mat


@dataclass
class EDHamiltonian:
    """Matrix-free action of the post-quench Hamiltonian on amplitude vectors
    indexed as (bath Fock state) x (impurity mode). H_BI acts through the
    stacked annihilators a_l, the node products `node_pairs`[(l, k), q] =
    phi_l(x_q) phi_k(x_q) and the weights `bi_weights` = g_bi W_q, with
    n_q = psi_q^+ psi_q and psi_q = sum_l phi_l(x_q) a_l."""

    fock: FockBasis
    basis: object
    bath_onebody: np.ndarray
    bb_csr: object
    h_imp: np.ndarray
    annihilators: object
    node_pairs: np.ndarray
    bi_weights: np.ndarray
    transitions: dict
    t_imp: np.ndarray
    v_imp: np.ndarray

    @property
    def dim(self):
        return self.fock.total_dim

    @property
    def shape(self):
        return (self.dim, self.dim)

    @property
    def dtype(self):
        return np.complex128

    def _bath_block_apply(self, mat_csr, vmat):
        """A real sparse matrix applied to the bath (row) index of a complex
        amplitude matrix, on its float64 view (real and imaginary parts as
        interleaved columns)."""
        flat = np.ascontiguousarray(vmat).view(np.float64)
        return (mat_csr @ flat).view(np.complex128)

    def _bi_apply(self, vmat):
        """H_BI on a (bath x impurity) amplitude matrix V. Row (b', l) of
        A V is <b'|a_l V, so its (s', M^2) reshape contracted with the node
        products is psi_q applied to column q of V Phi; after the weights,
        the products again and A^T raise it back (psi_q^+, then Phi^T)."""
        m = self.fock.n_modes
        lowered = self._bath_block_apply(self.annihilators, vmat).reshape(-1, m * m)
        psi = (lowered @ self.node_pairs) * self.bi_weights
        raised = (psi @ self.node_pairs.T).reshape(-1, m)
        return self._bath_block_apply(self.annihilators.T, raised)

    def matvec(self, v):
        v = np.asarray(v, dtype=np.complex128)
        vmat = v.reshape(self.fock.bath_dim, self.fock.n_modes)
        out = self.bath_onebody[:, None] * vmat
        out += vmat @ self.h_imp.T
        if self.bb_csr is not None:
            out += self._bath_block_apply(self.bb_csr, vmat)
        if self.annihilators is not None:
            out += self._bi_apply(vmat)
        return out.reshape(-1)

    def __matmul__(self, v):
        return self.matvec(v)

    def to_dense(self):
        s, m = self.fock.bath_dim, self.fock.n_modes
        h = np.kron(np.diag(self.bath_onebody), np.eye(m))
        h += np.kron(np.eye(s), self.h_imp)
        if self.bb_csr is not None:
            h += np.kron(self.bb_csr.toarray(), np.eye(m))
        if self.annihilators is not None:
            lower = self.annihilators.toarray().reshape(-1, m, s)
            for pair, w_q in zip(self.node_pairs.T, self.bi_weights):
                pair = pair.reshape(m, m)
                n_q = np.einsum("il,bis,blt->st", pair, lower, lower)
                h += np.kron(n_q, w_q * pair)
        return h

    def as_linear_operator(self):
        return LinearOperator(
            shape=self.shape, matvec=self.matvec, dtype=np.complex128
        )

    # --- expectation helpers -------------------------------------------------

    def impurity_rdm(self, v):
        s, m = self.fock.bath_dim, self.fock.n_modes
        vmat = np.asarray(v, dtype=np.complex128).reshape(s, m)
        return vmat.conj().T @ vmat

    def expect_bb(self, v):
        if self.bb_csr is None:
            return 0.0
        s, m = self.fock.bath_dim, self.fock.n_modes
        vmat = np.asarray(v, dtype=np.complex128).reshape(s, m)
        return float(
            np.real(np.vdot(vmat, self._bath_block_apply(self.bb_csr, vmat)))
        )

    def expect_bi(self, v):
        if self.annihilators is None:
            return 0.0
        s, m = self.fock.bath_dim, self.fock.n_modes
        vmat = np.asarray(v, dtype=np.complex128).reshape(s, m)
        return float(np.real(np.vdot(vmat, self._bi_apply(vmat))))


def _bath_rdm(fock, transitions, v):
    """One-body bath density matrix <a_i^+ a_l> of amplitudes indexed by bath
    Fock state first: a full vector (bath x impurity) or a bath-only vector."""
    m = fock.n_modes
    vmat = np.asarray(v, dtype=np.complex128).reshape(fock.bath_dim, -1)
    weights = np.sum(np.abs(vmat) ** 2, axis=1)
    rdm = np.zeros((m, m), dtype=np.complex128)
    rdm[np.diag_indices(m)] = fock.occupations.T @ weights
    for (i, l), (src, dst, amp) in transitions.items():
        val = np.sum(amp * np.sum(np.conj(vmat[dst]) * vmat[src], axis=1))
        rdm[i, l] += val
        rdm[l, i] += np.conj(val)
    return rdm


def _one_body_transitions(fock):
    """(i, l) -> (src, dst, amp) arrays for a_i^+ a_l with i != l."""
    occs = fock.occupations
    m = fock.n_modes
    out = {}
    for l in range(m):
        src = np.flatnonzero(occs[:, l] > 0)
        for i in range(m):
            if i == l:
                continue
            amp = np.sqrt(occs[src, l] * (occs[src, i] + 1.0))
            shifted = occs[src].copy()
            shifted[:, l] -= 1
            shifted[:, i] += 1
            out[(i, l)] = (src, fock.rank(shifted), amp)
    return out


def _annihilators(fock):
    """The annihilators a_l of every mode as one CSR matrix of shape (s' M, s),
    row b' M + l holding <b'|a_l, with s' states of N_B - 1 bosons."""
    n, m = fock.n_bath, fock.n_modes
    if n == 0:
        return sp.csr_matrix((0, fock.bath_dim))
    s_less = int(fock.binomials[n - 1, m - 1])
    src, mode = np.nonzero(fock.occupations)
    less = fock.occupations[src]
    amp = np.sqrt(less[np.arange(src.size), mode].astype(np.float64))
    less[np.arange(src.size), mode] -= 1
    rows = m * _rank(fock.binomials, n - 1, less) + mode
    return sp.csr_matrix((amp, (rows, src)), shape=(m * s_less, fock.bath_dim))


def _one_body_stack(fock, transitions, coeffs):
    """The operators sum_il coeffs[k, i, l] a_i^+ a_l, k = 0..K-1, stacked as
    one (K s x s) CSR matrix with operator k in block row k, for s bath
    states. A hop is stored only for the k whose coefficient is nonzero."""
    s = fock.bath_dim
    states = np.arange(s)
    diag = np.diagonal(coeffs, axis1=1, axis2=2)
    parts = [(np.arange(coeffs.shape[0]), states, states, diag @ fock.occupations.T)]
    for (i, l), (src, dst, amp) in transitions.items():
        ops = np.flatnonzero(coeffs[:, i, l])
        parts.append((ops, dst, src, coeffs[ops, i, l, None] * amp))
    rows = np.concatenate([(s * ops[:, None] + dst).ravel() for ops, dst, _, _ in parts])
    cols = np.concatenate([np.tile(src, ops.size) for ops, _, src, _ in parts])
    vals = np.concatenate([val.ravel() for _, _, _, val in parts])
    return sp.csr_matrix((vals, (rows, cols)), shape=(s * coeffs.shape[0], s))


def _bath_contact_csr(fock, transitions, x, weights, phi, g_bb):
    """(g_bb/2) sum_q W_q (n_q^2 - c_q n_q) on the bath Fock space, summed
    over the node pairs +-x_q as 2 W_q (E_q^2 + O_q^2 - c_q E_q) (the centre
    node once): one sparse product A^T A of the stacked sqrt(2 W_q) E_q and
    sqrt(2 W_q) O_q, minus the one-body term sum_q W_q c_q n_q."""
    m = phi.shape[0]
    n = np.arange(m)
    even = (n[:, None] + n[None, :]) % 2 == 0
    half = x >= 0.0
    scale = np.sqrt(np.where(x[half] > 0.0, 2.0, 1.0) * weights[half])
    pair = np.einsum("q,iq,lq->qil", scale, phi[:, half], phi[:, half])
    a = _one_body_stack(fock, transitions, np.concatenate([pair * even, pair * ~even]))
    c = np.sum(phi**2, axis=0)
    lin = _one_body_stack(fock, transitions, ((phi * (weights * c)) @ phi.T * even)[None])
    return ((0.5 * g_bb) * (a.T @ a - lin)).tocsr()


def _verify_hermitian(h):
    """Assembly self-check: <a|Hb> = <Ha|b> on two fixed dense vectors."""
    dim = h.dim
    idx = np.arange(dim)
    a = np.exp(1j * 0.37 * idx) * (1.0 + 0.1 * np.cos(2.1 * idx))
    b = np.exp(-1j * 0.59 * idx) * (1.0 + 0.1 * np.sin(1.3 * idx))
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    lhs = np.vdot(a, h.matvec(b))
    rhs = np.conj(np.vdot(b, h.matvec(a)))
    scale = max(abs(lhs), abs(rhs), 1.0)
    if abs(lhs - rhs) > 1e-10 * scale:
        raise AccuracyError(
            f"assembled Hamiltonian is not Hermitian: deviation {abs(lhs - rhs):.2e}"
        )


def build_hamiltonian(fock, g_bb, g_bi, omega_i=1.0, basis=None):
    """Assemble the matrix action of H = H_B(0) + H_I(0) + H_BB + H_BI on the
    Gauss-Hermite factorization of the contact interaction. Hermiticity is
    self-checked on fixed dense probe vectors."""
    if g_bb < 0 or g_bi < 0:
        raise ConfigurationError("couplings must be >= 0")
    if basis is not None and basis.n_modes != fock.n_modes:
        raise UsageError("mode basis and Fock basis mode counts differ")
    m = fock.n_modes
    bath_onebody = (fock.occupations @ (np.arange(m) + 0.5)).astype(np.float64)
    t_imp = 0.5 * _quadratic_matrix(m, -1.0)
    v_imp = 0.5 * omega_i**2 * _quadratic_matrix(m, 1.0)
    transitions = _one_body_transitions(fock)
    x, weights, phi = contact_rule(m)
    bb = _bath_contact_csr(fock, transitions, x, weights, phi, g_bb) if g_bb > 0 else None
    h = EDHamiltonian(
        fock=fock,
        basis=basis,
        bath_onebody=bath_onebody,
        bb_csr=bb,
        h_imp=t_imp + v_imp,
        annihilators=_annihilators(fock) if g_bi > 0 else None,
        node_pairs=np.einsum("lq,kq->lkq", phi, phi).reshape(m * m, -1),
        bi_weights=g_bi * weights,
        transitions=transitions,
        t_imp=t_imp,
        v_imp=v_imp,
    )
    _verify_hermitian(h)
    return h


@dataclass(frozen=True)
class ManyBodyVector:
    amplitudes: np.ndarray = field(repr=False, compare=False)
    fock: FockBasis = None

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


def _deterministic_start(dim):
    # near-uniform positive start with a fixed incommensurate dither: a purely
    # uniform vector is parity-even and can lock Lanczos out of odd-sector
    # ground states (e.g. the fermionized two-body limit)
    v = 1.0 + 0.05 * np.cos(7.3 * np.arange(dim))
    return v / np.linalg.norm(v)


def ground_state(h, tol=1e-10):
    """Lowest eigenpair via Lanczos (ARPACK) with a deterministic uniform
    start vector; dense fallback for tiny dimensions. The residual
    ||Hv - Ev|| is verified against tol."""
    dim = h.dim
    if dim <= 32:
        w, vecs = np.linalg.eigh(h.to_dense())
        energy, vec = float(w[0]), vecs[:, 0].astype(np.complex128)
    else:
        try:
            w, vecs = eigsh(
                h.as_linear_operator(),
                k=1,
                which="SA",
                v0=_deterministic_start(dim),
                tol=min(tol * 1e-2, 1e-10),
                maxiter=max(50 * dim, 10000),
            )
        except Exception as exc:
            raise ConvergenceError(f"Lanczos ground state failed: {exc}") from exc
        energy, vec = float(w[0]), vecs[:, 0].astype(np.complex128)
    vec = vec / np.linalg.norm(vec)
    lead = int(np.argmax(np.abs(vec)))
    phase = vec[lead] / abs(vec[lead])
    vec = vec / phase
    residual = float(np.linalg.norm(h.matvec(vec) - energy * vec))
    if residual > max(tol, 1e-12) * max(1.0, abs(energy)):
        raise ConvergenceError(
            f"ground-state residual {residual:.2e} above tolerance",
            trace=np.array([energy]),
        )
    return ManyBodyVector(amplitudes=vec, fock=h.fock), energy


@dataclass(frozen=True)
class EDTrajectory:
    times: np.ndarray = field(repr=False, compare=False)
    vectors: np.ndarray = field(repr=False, compare=False)
    fock: FockBasis = None
    max_norm_drift: float = 0.0
    max_krylov_dim: int = 0

    @property
    def dt_sample(self):
        return float(self.times[1] - self.times[0])

    def vector(self, k):
        return ManyBodyVector(amplitudes=self.vectors[k], fock=self.fock)


def _lanczos_expm(matvec, v, dt, local_tol, max_dim):
    """One exp(-i dt H) v application in an adaptive Krylov space.
    Returns (w, dim_used) or (None, max_dim) when not converged."""
    alphas, betas = [], []
    basis = np.empty((max_dim, v.size), dtype=np.complex128)
    basis[0] = v
    r = matvec(v)
    a = float(np.real(np.vdot(v, r)))
    alphas.append(a)
    r = r - a * v
    y_prev = None
    for m in range(1, max_dim + 1):
        w_eig, u = eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
        y = u @ (np.exp(-1j * dt * w_eig) * u[0])
        # full reorthogonalization of the residual (cheap at these sizes)
        vm = basis[:m]
        r = r - np.conj(vm @ np.conj(r)) @ vm
        b = float(np.linalg.norm(r))
        breakdown = b < 1e-13
        converged = False
        if y_prev is not None:
            err = float(np.linalg.norm(y[:-1] - y_prev)) + abs(y[-1])
            converged = err < local_tol
        if converged or breakdown:
            return y @ vm, m
        y_prev = y
        if m == max_dim:
            return None, max_dim
        q = r / b
        basis[m] = q
        betas.append(b)
        r = matvec(q) - b * basis[m - 1]
        a = float(np.real(np.vdot(q, r)))
        alphas.append(a)
        r = r - a * q
    return None, max_dim


def _expm_step(matvec, v, dt, local_tol, max_dim, depth=0):
    w, used = _lanczos_expm(matvec, v, dt, local_tol, max_dim)
    if w is not None:
        return w, used
    if depth >= 6:
        raise StepSizeError(
            f"Krylov step rejected down to dt={dt:.3e}; use a smaller step",
            suggested_dt=dt / 4.0,
        )
    half, u1 = _expm_step(matvec, v, dt / 2.0, local_tol / 2.0, max_dim, depth + 1)
    half /= np.linalg.norm(half)
    out, u2 = _expm_step(matvec, half, dt / 2.0, local_tol / 2.0, max_dim, depth + 1)
    return out, max(u1, u2)


def propagate_krylov(h, v0, dt, t_max, record_every=1, local_tol=1e-10, max_dim=30):
    """exp(-i H t) v0 by short-iterate Lanczos steps with adaptive Krylov
    dimension <= max_dim and per-step error target local_tol. Unitarity is
    enforced by renormalization; the accumulated drift is reported."""
    if dt <= 0 or t_max <= 0:
        raise ConfigurationError("dt and t_max must be > 0")
    amps = np.asarray(v0.amplitudes, dtype=np.complex128)
    if abs(np.linalg.norm(amps) - 1.0) > 1e-8:
        raise UsageError("v0 must be normalized")
    record_every = max(int(record_every), 1)
    n_steps = int(round(t_max / dt))
    n_rec = max(n_steps // record_every, 1)
    times = [0.0]
    vectors = [amps.copy()]
    v = amps.copy()
    drift = 0.0
    max_used = 0
    t = 0.0
    for k in range(n_rec * record_every):
        v, used = _expm_step(h.matvec, v, dt, local_tol, max_dim)
        max_used = max(max_used, used)
        norm = np.linalg.norm(v)
        drift = max(drift, abs(norm - 1.0))
        v = v / norm
        t += dt
        if (k + 1) % record_every == 0:
            times.append(t)
            vectors.append(v.copy())
    return EDTrajectory(
        times=np.asarray(times),
        vectors=np.asarray(vectors),
        fock=v0.fock,
        max_norm_drift=drift,
        max_krylov_dim=max_used,
    )


def ed_contrast(trajectory, v0, e0):
    """Exact overlap series S(t) = e^{i E0 t} <v0 | v(t)>."""
    phases = np.exp(1j * e0 * trajectory.times)
    overlaps = trajectory.vectors @ np.conj(v0.amplitudes)
    s = phases * overlaps
    return TimeSeries(0.0, trajectory.dt_sample, s, label="S(t)")


@dataclass(frozen=True)
class SchmidtDecomposition:
    lambdas: np.ndarray = field(repr=False, compare=False)
    bath_vectors: np.ndarray = field(repr=False, compare=False)
    impurity_vectors: np.ndarray = field(repr=False, compare=False)
    fock: FockBasis = None


def schmidt(v):
    """Schmidt decomposition across the bath | impurity cut; lambdas are the
    squared singular values of the (bath_dim x n_modes) amplitude matrix."""
    amps = np.asarray(v.amplitudes, dtype=np.complex128)
    if abs(np.linalg.norm(amps) - 1.0) > 1e-8:
        raise UsageError("state must be normalized for a Schmidt decomposition")
    if v.fock is None:
        raise UsageError("vector carries no Fock basis reference")
    mat = amps.reshape(v.fock.bath_dim, v.fock.n_modes)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    lam = s**2
    return SchmidtDecomposition(
        lambdas=lam,
        bath_vectors=u,
        impurity_vectors=vh.conj(),
        fock=v.fock,
    )


def entropy_and_populations(decomp):
    """Natural-log von Neumann entropy and the impurity natural populations
    (equal to the Schmidt weights for a single impurity)."""
    lam = np.clip(decomp.lambdas, 0.0, None)
    pos = lam[lam > 1e-16]
    s_vn = float(-np.sum(pos * np.log(pos)))
    return {"s_vn": s_vn, "natural_populations": lam}


def schmidt_overlap_expansion(decomp, basis, transitions=None, n_keep=None):
    """Bath-impurity miscibility overlap expressed through the Schmidt modes.

    Returns the exact overlap built from all mode-density cross integrals
    K_ij and the first-order truncation around the dominant mode
    (valid for lambda_1 ~ 1); flags the truncation when lambda_1 < 0.5.
    """
    fock = decomp.fock
    if transitions is None:
        transitions = _one_body_transitions(fock)
    grid = basis.grid
    modes = basis.mode_functions
    lam = decomp.lambdas
    if n_keep is None:
        n_keep = int(np.sum(lam > 1e-14))
    n_keep = max(n_keep, 1)
    lam = lam[:n_keep]
    rho_b = []
    rho_i = []
    for k in range(n_keep):
        rdm = _bath_rdm(fock, transitions, decomp.bath_vectors[:, k])
        rho_b.append(np.real(np.einsum("il,ix,lx->x", rdm, modes, modes)))
        chi = decomp.impurity_vectors[k] @ modes
        rho_i.append(np.abs(chi) ** 2)
    rho_b = np.asarray(rho_b)
    rho_i = np.asarray(rho_i)
    dx = grid.dx
    k_bi = rho_b @ rho_i.T * dx
    k_bb = rho_b @ rho_b.T * dx
    k_ii = rho_i @ rho_i.T * dx
    num = float(lam @ k_bi @ lam)
    den_b = float(lam @ k_bb @ lam)
    den_i = float(lam @ k_ii @ lam)
    lam_exact = num**2 / (den_b * den_i)
    lam0 = k_bi[0, 0] ** 2 / (k_bb[0, 0] * k_ii[0, 0])
    order1 = lam0
    if n_keep > 1:
        ratio = lam[1:] / lam[0]
        corr = (
            (k_bi[0, 1:] + k_bi[1:, 0]) / k_bi[0, 0]
            - k_bb[0, 1:] / k_bb[0, 0]
            - k_ii[0, 1:] / k_ii[0, 0]
        )
        order1 = lam0 * (1.0 + 2.0 * float(ratio @ corr))
    return {
        "lambda_exact": lam_exact,
        "lambda_order1": order1,
        "lambda0": lam0,
        "k_bi": k_bi,
        "truncation_valid": bool(lam[0] >= 0.5),
    }


def one_body_density(h, v, species):
    """Grid-sampled one-body density of the bath (normalized to N_B) or the
    spin-up impurity (normalized to 1)."""
    basis = h.basis
    if basis is None:
        raise UsageError("Hamiltonian carries no mode-function basis")
    amps = v.amplitudes if isinstance(v, ManyBodyVector) else np.asarray(v)
    if species == "bath":
        rdm = _bath_rdm(h.fock, h.transitions, amps)
    elif species == "impurity":
        rdm = h.impurity_rdm(amps)
    else:
        raise UsageError("species must be 'bath' or 'impurity'")
    modes = basis.mode_functions
    vals = np.real(np.einsum("il,ix,lx->x", rdm, modes, modes))
    return Field(basis.grid, vals)


def energy_breakdown(v, h):
    """Operator expectations of the six Hamiltonian pieces."""
    amps = v.amplitudes if isinstance(v, ManyBodyVector) else np.asarray(v)
    bath_rdm = _bath_rdm(h.fock, h.transitions, amps)
    imp_rdm = h.impurity_rdm(amps)
    m = h.fock.n_modes
    t_b = 0.5 * _quadratic_matrix(m, -1.0)
    v_b = 0.5 * _quadratic_matrix(m, 1.0)
    return EnergyBreakdown(
        kinetic_b=float(np.real(np.trace(t_b @ bath_rdm))),
        potential_b=float(np.real(np.trace(v_b @ bath_rdm))),
        kinetic_i=float(np.real(np.trace(h.t_imp @ imp_rdm))),
        potential_i=float(np.real(np.trace(h.v_imp @ imp_rdm))),
        intra_bb=h.expect_bb(amps),
        inter_bi=h.expect_bi(amps),
    )
