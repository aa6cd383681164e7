"""Correlated tier: N_B bath bosons plus one spin-up impurity, both expanded
in the fixed harmonic-oscillator mode basis. Exact Hamiltonian action on the
truncated Fock space, real Lanczos ground states at every dimension (no dense
diagonalization), real-time propagation by error-controlled Krylov steps that
each serve every record time within their reach, exact contrast, Schmidt
weights and the entanglement entropy. Both solvers run on one fully
reorthogonalized Lanczos recurrence; the only scipy module the tier loads is
scipy.sparse.

A many-body state is a plain complex array of amplitudes indexed as (bath
Fock state) x (impurity mode): `ground_state` returns one, `propagate_krylov`
takes one and hands the caller's observer one per record time, in order,
without keeping any, and `schmidt`, `one_body_density` and `energy_breakdown`
read one. H is real symmetric, so the matvec keeps a float64 vector real and
the ground state is found in real arithmetic.

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
phi_l(x_q). With psi_q = sum_l phi_l(x_q) a_l both terms are in normal order:

    H_BI = g_bi sum_q W_q psi_q+ psi_q (x) |phi(x_q)><phi(x_q)|
    H_BB = (g_bb/2) sum_q W_q psi_q+ psi_q+ psi_q psi_q

Every Fock-space operator comes from one sparse matrix, the stacked
annihilators a_l (about 2 k nonzeros at N_B = 4, M = 10). H_BI is applied
matrix-free: A lowers V once, two small dense products carry the node sums
V Phi -> psi_q -> (g_bi W_q) Phi^T, and A^T raises the result. H_BB = B^T B is
kept as its pair factor B and applied as B^T (B V), B stacking the node sums
of the pair annihilators a_k a_l built from A at N_B - 1 and N_B bosons. The
nodes come in pairs +-x_q with psi_{+-q} psi_{+-q} = P_q +- R_q, the parts
with k + l even and odd, so a pair contributes g_bb W_q (P_q^T P_q +
R_q^T R_q) and no parity-forbidden entry is ever formed. H_BB is positive
semidefinite by construction (<V|H_BB|V> = ||B V||^2) and exactly zero for
N_B <= 1, where B has no rows. The dense matrix, a reference for checks that
no solver uses, is the matrix action on the identity columns.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import (
    AccuracyError,
    ConfigurationError,
    ConvergenceError,
    SizeError,
    StepSizeError,
    UsageError,
)
from .grid import Field, hermite_functions
from .observables import EnergyBreakdown, TimeSeries, record_intervals

DIM_GUARD_DEFAULT = 5_000_000
# Krylov propagation: bound on the error estimate of every state a Lanczos
# space gives, and the most vectors one space holds
KRYLOV_LOCAL_TOL = 1e-10
KRYLOV_MAX_DIM = 30
# ground_state: bound on the residual ||Hv - Ev|| relative to max(1, |E|);
# the Lanczos iteration stops at a hundredth of it, and after at most
# GROUND_STATE_MAX_STEPS vectors
GROUND_STATE_TOL = 1e-10
GROUND_STATE_MAX_STEPS = 300


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
    phi_l(x_q) phi_k(x_q) and the weights `bi_weights` = g_bi W_q (None at
    g_bi = 0), with n_q = psi_q^+ psi_q and psi_q = sum_l phi_l(x_q) a_l. The
    annihilators also give the bath density matrix, so they are kept at every
    g_bi; `creators` is their transpose, built once and shared by every
    matvec. H_BB acts as B^T (B V) through the pair factor `bb_factor` and its
    transposed view `bb_factor_t`, shared the same way (None at g_bb = 0)."""

    fock: FockBasis
    basis: object
    bath_onebody: np.ndarray
    bb_factor: object
    bb_factor_t: object
    h_imp: np.ndarray
    annihilators: object
    creators: object
    node_pairs: np.ndarray
    bi_weights: np.ndarray
    t_imp: np.ndarray
    v_imp: np.ndarray

    @property
    def dim(self):
        return self.fock.total_dim

    def _bath_block_apply(self, mat_csr, vmat):
        """A real sparse matrix applied to the bath (row) index of an
        amplitude matrix; a complex one is taken on its float64 view (real
        and imaginary parts as interleaved columns)."""
        if vmat.dtype == np.float64:
            return mat_csr @ vmat
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
        return self._bath_block_apply(self.creators, raised)

    def matvec(self, v):
        """H v; a float64 v gives a float64 result, any other v is taken as
        complex128."""
        v = np.asarray(v)
        if v.dtype != np.float64:
            v = v.astype(np.complex128, copy=False)
        vmat = v.reshape(self.fock.bath_dim, self.fock.n_modes)
        out = self.bath_onebody[:, None] * vmat
        out += vmat @ self.h_imp.T
        if self.bb_factor is not None:
            paired = self._bath_block_apply(self.bb_factor, vmat)
            out += self._bath_block_apply(self.bb_factor_t, paired)
        if self.bi_weights is not None:
            out += self._bi_apply(vmat)
        return out.reshape(-1)

    def to_dense(self):
        """H as a dense float64 matrix, column by column from the real
        matvec."""
        return np.column_stack([self.matvec(col) for col in np.eye(self.dim)])

    # --- expectation helpers -------------------------------------------------

    def impurity_rdm(self, v):
        s, m = self.fock.bath_dim, self.fock.n_modes
        vmat = np.asarray(v, dtype=np.complex128).reshape(s, m)
        return vmat.conj().T @ vmat

    def expect_bb(self, v):
        """<V|H_BB|V> = ||B V||^2."""
        if self.bb_factor is None:
            return 0.0
        s, m = self.fock.bath_dim, self.fock.n_modes
        vmat = np.asarray(v, dtype=np.complex128).reshape(s, m)
        return float(np.linalg.norm(self._bath_block_apply(self.bb_factor, vmat)) ** 2)

    def expect_bi(self, v):
        if self.bi_weights is None:
            return 0.0
        s, m = self.fock.bath_dim, self.fock.n_modes
        vmat = np.asarray(v, dtype=np.complex128).reshape(s, m)
        return float(np.real(np.vdot(vmat, self._bi_apply(vmat))))


def _bath_rdm(annihilators, n_modes, v):
    """One-body bath density matrix <a_i^+ a_l> = (a_i V)^+ (a_l V) from the
    stacked annihilators of `_annihilators`, for amplitudes V indexed by bath
    Fock state first: a full vector (bath x impurity) or a bath-only vector."""
    vmat = np.asarray(v, dtype=np.complex128).reshape(annihilators.shape[1], -1)
    lowered = (annihilators @ vmat).reshape(-1, n_modes, vmat.shape[1])
    lowered = lowered.transpose(1, 0, 2).reshape(n_modes, -1)
    return lowered.conj() @ lowered.T


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


def _bath_contact_csr(fock, annihilators, x, weights, phi, g_bb):
    """The CSR pair factor B with B^T B = (g_bb/2) sum_q W_q psi_q^+ psi_q^+
    psi_q psi_q on the bath Fock space. The pair annihilators a_k a_l =
    (A' (x) 1) A, rows (b'', k, l), come from the stacked annihilators A' and
    A at N_B - 1 and N_B bosons; B stacks their node sums sqrt(2 W_q) P_q and
    sqrt(2 W_q) R_q over the nodes x_q > 0 and sqrt(W_0) P_0 at the centre,
    with P_q and R_q the parts of psi_q psi_q with k + l even and odd, times
    sqrt(g_bb/2). Below two bosons B has no rows."""
    n, m = fock.n_bath, fock.n_modes
    if n < 2:
        return sp.csr_matrix((0, fock.bath_dim))
    modes = np.arange(m)
    even = (modes[:, None] + modes[None, :]) % 2 == 0
    half = x >= 0.0
    scale = np.sqrt(np.where(x[half] > 0.0, 2.0, 1.0) * weights[half])
    pair = np.einsum("q,kq,lq->qkl", scale, phi[:, half], phi[:, half])
    coeffs = sp.csr_matrix(np.concatenate([pair * even, pair * ~even]).reshape(-1, m * m))
    lower = _annihilators(build_fock_basis(n - 1, m))
    pairs = sp.kron(lower, sp.identity(m), format="csr") @ annihilators
    b = sp.kron(sp.identity(lower.shape[0] // m), coeffs, format="csr") @ pairs
    b.data *= np.sqrt(0.5 * g_bb)
    return b


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
    x, weights, phi = contact_rule(m)
    annihilators = _annihilators(fock)
    bb = _bath_contact_csr(fock, annihilators, x, weights, phi, g_bb) if g_bb > 0 else None
    h = EDHamiltonian(
        fock=fock,
        basis=basis,
        bath_onebody=bath_onebody,
        bb_factor=bb,
        bb_factor_t=bb.T if bb is not None else None,
        h_imp=t_imp + v_imp,
        annihilators=annihilators,
        creators=annihilators.T,
        node_pairs=np.einsum("lq,kq->lkq", phi, phi).reshape(m * m, -1),
        bi_weights=None,
        t_imp=t_imp,
        v_imp=v_imp,
    )
    return with_impurity_coupling(h, g_bi)


def with_impurity_coupling(h, g_bi):
    """h with the bath-impurity coupling g_bi. Every other block, the
    bath-bath one included, is shared with h, not rebuilt; Hermiticity is
    self-checked."""
    if g_bi < 0:
        raise ConfigurationError("couplings must be >= 0")
    _, weights, _ = contact_rule(h.fock.n_modes)
    h = replace(h, bi_weights=g_bi * weights if g_bi > 0 else None)
    _verify_hermitian(h)
    return h


def _deterministic_start(dim):
    # near-uniform positive start with a fixed incommensurate dither: a purely
    # uniform vector is parity-even and can lock Lanczos out of odd-sector
    # ground states (e.g. the fermionized two-body limit)
    v = 1.0 + 0.05 * np.cos(7.3 * np.arange(dim))
    return v / np.linalg.norm(v)


def ground_state(h):
    """Lowest eigenpair by a real Lanczos iteration from a deterministic
    near-uniform start, at every dimension. The iteration stops when the
    Ritz residual beta_m |u_m0| of the lowest Ritz pair is within
    GROUND_STATE_TOL / 100 relative to max(1, |theta|), which includes a
    breakdown of the Krylov space (beta_m < 1e-13 at an invariant subspace,
    as at g = 0), and raises ConvergenceError with the trace of lowest Ritz values when
    GROUND_STATE_MAX_STEPS vectors do not get there. The residual
    ||Hv - Ev|| of the returned state is verified against GROUND_STATE_TOL."""
    dim = h.dim
    steps = min(GROUND_STATE_MAX_STEPS, dim)
    thetas = []

    def converged(w, u, beta):
        thetas.append(float(w[0]))
        if beta * abs(u[-1, 0]) <= GROUND_STATE_TOL * 1e-2 * max(1.0, abs(w[0])):
            return True
        if w.size == steps:
            raise ConvergenceError(
                f"Lanczos ground state: Ritz residual {beta * abs(u[-1, 0]):.2e} "
                f"after {steps} steps",
                trace=np.array(thetas),
            )
        return False

    # rows the iteration never reaches are never written, so the cap costs
    # address space, not resident memory
    basis = np.empty((steps, dim))
    vm, w, u, _ = _lanczos(h.matvec, _deterministic_start(dim), basis, converged)
    energy, vec = float(w[0]), u[:, 0] @ vm
    vec = vec.astype(np.complex128) / np.linalg.norm(vec)
    lead = int(np.argmax(np.abs(vec)))
    phase = vec[lead] / abs(vec[lead])
    vec = vec / phase
    residual = float(np.linalg.norm(h.matvec(vec) - energy * vec))
    if residual > GROUND_STATE_TOL * max(1.0, abs(energy)):
        raise ConvergenceError(
            f"ground-state residual {residual:.2e} above tolerance",
            trace=np.array([energy]),
        )
    return vec, energy


@dataclass(frozen=True)
class EDTrajectory:
    """The record times of a propagation and how it went: the largest norm
    defect and the largest Krylov space used."""

    times: np.ndarray = field(repr=False, compare=False)
    max_norm_drift: float = 0.0
    max_krylov_dim: int = 0


def _lanczos(matvec, v, basis, converged=None):
    """Krylov basis V_m of the unit vector v in the rows of `basis` (real or
    complex), fully reorthogonalized, and the eigenpairs (w, u) of T_m =
    V_m^+ H V_m. m is the number of rows, the dimension at breakdown, or the
    first m at which `converged(w, u, beta_m)` holds. Returns
    (V_m, w, u, beta_m)."""
    basis[0] = v
    alphas, betas = [], []
    r = matvec(v)
    for m in range(1, basis.shape[0] + 1):
        q = basis[m - 1]
        alphas.append(float(np.real(np.vdot(q, r))))
        r = r - alphas[-1] * q
        vm = basis[:m]
        r = r - np.conj(vm @ np.conj(r)) @ vm
        b = float(np.linalg.norm(r))
        end = b < 1e-13 or m == basis.shape[0]
        if end or converged is not None:
            w, u = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            if (converged is not None and converged(w, u, b)) or end:
                return vm, w, u, b
        betas.append(b)
        basis[m] = r / b
        r = matvec(basis[m]) - b * q


def _krylov_error(w, u, beta, taus):
    """Error estimate beta_m |e_m^T exp(-i tau T_m) e_1| at each time tau."""
    return beta * np.abs(np.exp(-1j * np.multiply.outer(taus, w)) @ (u[0] * u[-1]))


def _krylov_state(vm, w, u, tau):
    """V_m exp(-i tau T_m) e_1, renormalized, and its norm defect."""
    y = (u @ (np.exp(-1j * tau * w) * u[0])) @ vm
    norm = np.linalg.norm(y)
    return y / norm, abs(norm - 1.0)


def propagate_krylov(h, v0, dt, t_max, record_every=1, *, observe):
    """exp(-i H t) v0 at every record time by error-controlled Lanczos steps
    with dense output (Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911
    (1997); Sidje, ACM TOMS 24, 130 (1998)). A step builds one Krylov space
    of at most KRYLOV_MAX_DIM vectors and gives each pending record tau as
    V_m exp(-i tau T_m) e_1 while the error estimate stays below
    KRYLOV_LOCAL_TOL, and the next step starts from the last of them; a step
    that reaches no record ends at an internal time, halved until the
    estimate passes. States are renormalized and the largest norm defect is
    reported. Record times accumulate t += dt as a fixed-step loop would;
    a t_max shorter than one record interval raises ConfigurationError.

    `observe(k, v)` is called with the state v at record k, for k = 0 ..
    n_rec in order; only the current state is held, and the propagator
    never writes into a state it has passed on, so the observer may keep
    it. Returns the record times and the run's diagnostics."""
    n_rec = record_intervals(dt, t_max, record_every)
    v = np.asarray(v0, dtype=np.complex128)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise UsageError("v0 must be normalized")
    clock = itertools.accumulate(itertools.repeat(dt, n_rec * record_every))
    times = np.array([0.0, *itertools.islice(clock, record_every - 1, None, record_every)])
    basis = np.empty((KRYLOV_MAX_DIM, v.size), dtype=np.complex128)
    observe(0, v)
    t_start, k, drift, max_used = 0.0, 1, 0.0, 0
    while k <= n_rec:
        vm, w, u, beta = _lanczos(h.matvec, v, basis)
        max_used = max(max_used, vm.shape[0])
        taus = times[k:] - t_start
        passed = _krylov_error(w, u, beta, taus) <= KRYLOV_LOCAL_TOL
        n_pass = passed.size if passed.all() else int(np.argmin(passed))
        if n_pass == 0:
            tau = taus[0] / 2.0
            while not _krylov_error(w, u, beta, tau) <= KRYLOV_LOCAL_TOL:
                tau /= 2.0
                if tau == 0.0:
                    raise StepSizeError(f"no Krylov step from t={t_start:.6g} passes")
            v, defect = _krylov_state(vm, w, u, tau)
            drift, t_start = max(drift, defect), t_start + tau
            continue
        for j in range(k, k + n_pass):
            v, defect = _krylov_state(vm, w, u, taus[j - k])
            drift = max(drift, defect)
            observe(j, v)
        k += n_pass
        t_start = times[k - 1]
    return EDTrajectory(times=times, max_norm_drift=drift, max_krylov_dim=max_used)


def ed_contrast(times, overlaps, e0):
    """Exact overlap series S(t) = e^{i E0 t} <v0 | v(t)> from the overlaps
    <v0 | v(t)> at the record times."""
    s = np.exp(1j * e0 * times) * np.asarray(overlaps)
    return TimeSeries(0.0, float(times[1] - times[0]), s, label="S(t)")


def schmidt(vector, n_modes):
    """Descending Schmidt weights lambda = sigma^2 of one normalized state
    across the bath | impurity cut, sigma the singular values of its
    (bath_dim x n_modes) amplitude matrix."""
    amps = np.asarray(vector, dtype=np.complex128)
    if abs(np.linalg.norm(amps) - 1.0) > 1e-8:
        raise UsageError("state must be normalized for a Schmidt decomposition")
    _, s, _ = np.linalg.svd(amps.reshape(-1, n_modes), full_matrices=False)
    return s**2


def entanglement_entropy(lambdas):
    """Natural-log von Neumann entropy -sum lambda ln lambda of Schmidt
    weights along the last axis, over the weights above 1e-16."""
    lam = np.asarray(lambdas)
    pos = lam > 1e-16
    return -np.sum(lam * np.log(lam, where=pos, out=np.zeros_like(lam)), axis=-1)


def one_body_density(h, v, species):
    """Grid-sampled one-body density of the bath (normalized to N_B) or the
    spin-up impurity (normalized to 1)."""
    basis = h.basis
    if basis is None:
        raise UsageError("Hamiltonian carries no mode-function basis")
    if species == "bath":
        rdm = _bath_rdm(h.annihilators, h.fock.n_modes, v)
    elif species == "impurity":
        rdm = h.impurity_rdm(v)
    else:
        raise UsageError("species must be 'bath' or 'impurity'")
    modes = basis.mode_functions
    vals = np.real(np.einsum("il,ix,lx->x", rdm, modes, modes))
    return Field(basis.grid, vals)


def energy_breakdown(v, h):
    """Operator expectations of the six Hamiltonian pieces."""
    bath_rdm = _bath_rdm(h.annihilators, h.fock.n_modes, v)
    imp_rdm = h.impurity_rdm(v)
    m = h.fock.n_modes
    t_b = 0.5 * _quadratic_matrix(m, -1.0)
    v_b = 0.5 * _quadratic_matrix(m, 1.0)
    return EnergyBreakdown(
        kinetic_b=float(np.real(np.trace(t_b @ bath_rdm))),
        potential_b=float(np.real(np.trace(v_b @ bath_rdm))),
        kinetic_i=float(np.real(np.trace(h.t_imp @ imp_rdm))),
        potential_i=float(np.real(np.trace(h.v_imp @ imp_rdm))),
        intra_bb=h.expect_bb(v),
        inter_bi=h.expect_bi(v),
    )
