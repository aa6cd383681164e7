"""Correlated tier: N_B bath bosons plus one spin-up impurity, both expanded
in the fixed harmonic-oscillator mode basis. Exact Hamiltonian action on the
truncated Fock space, real Lanczos ground states at every dimension (no dense
diagonalization), real-time propagation by error-controlled Krylov steps that
each serve every record time within their reach, exact contrast, Schmidt
weights and the entanglement entropy. Both solvers run on one fully
reorthogonalized Lanczos recurrence; the only scipy module the tier loads is
scipy.sparse.

Every solver runs in one total-parity sector. H conserves the parity
(-1)^(sum_l l n_l + i) of bath quanta plus impurity mode i: every contact
integral u_klmn vanishes unless its mode indices sum to an even number, and
the impurity one-body term couples mode i to i and i +- 2 only. A state of
sector sigma is a plain complex array, the amplitude matrix W[b, j] = V[b,
2j + c_b] flattened, with ceil(M/2) columns: c_b = (p_b + sigma) mod 2 is the
row class of bath Fock state b and p_b = sum_l l n_l mod 2 its parity. For
odd M the slots with 2j + c_b = M are invalid; they hold exactly 0 and every
operation keeps them so. `ground_state` solves both sectors and returns the
lower state with H in its sector, `propagate_krylov` takes a sector vector
and hands the caller's observer one per record time, in order, without
keeping any, and `schmidt`, `one_body_density` and `energy_breakdown` read
one. H is real symmetric, so the matvec keeps a float64 vector real and the
ground state is found in real arithmetic.

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
matrix-free: A lowers W once, small dense products carry the node sums
W -> psi_q -> (g_bi W_q) psi_q back, and A^T raises the result. H_BB = B^T B
is kept as its pair factor B and applied as B^T (B W), B stacking the node
sums of the pair annihilators a_k a_l built from A at N_B - 1 and N_B
bosons. The nodes come in pairs +-x_q with psi_{+-q} psi_{+-q} = P_q +- R_q,
the parts with k + l even and odd, so a pair contributes g_bb W_q (P_q^T P_q
+ R_q^T R_q) and no parity-forbidden entry is ever formed. H_BB is positive
semidefinite by construction (<V|H_BB|V> = ||B V||^2) and exactly zero for
N_B <= 1, where B has no rows.

In the sector layout A, A^T, B and B^T apply unchanged, to ceil(M/2) columns
instead of M: H_BB conserves the bath parity and so each row class, and a
row (b', l) of A collects from bath states of one class, those of b' + e_l.
Only two small tables follow the row class. The impurity one-body term is
held per slot, as the diagonal `onebody` (with the bath one-body energy) and
the band `imp_band` coupling j to j + 1. The node products come as one table
per class of the lowered state b', slot j of b' + e_l holding impurity mode
2j + (c_b' + l) mod 2; A's rows are sorted by the parity of b', so each table
applies to one contiguous block. The dense matrix, a reference for checks
that no solver uses, is the matrix action on the unit vectors of the valid
slots.
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
# ground_state: the Ritz residual is checked at every GROUND_STATE_CHECK_EVERY-th
# step (a dense eigh of T_m each), which may run up to that many steps past
# the first one that passes
GROUND_STATE_CHECK_EVERY = 4


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


def _parities(occupations):
    """Parity p = sum_l l n_l mod 2 of each row of occupations."""
    return (occupations @ np.arange(occupations.shape[-1])) % 2


def _sector_rows(fock, bath_onebody, h_imp, sector):
    """The parts of an EDHamiltonian that follow the bath rows of sector
    `sector`: the row class c_b = (p_b + sector) mod 2 of each bath state,
    the bath states of each class, the one-body energy of each slot (b, j)
    (bath one-body plus the impurity diagonal at mode i = 2j + c_b), the
    impurity band coupling slot j to j + 1 (modes i and i + 2, the only
    off-diagonal entries of the quadratic h_imp; None when it vanishes, as at
    omega_i = 1) and the full-space index b M + i of each
    slot. Slots with i >= M (odd M, class 1, last column) are invalid: their
    one-body energy and band entries are 0 and their index is -1."""
    m, k = fock.n_modes, (fock.n_modes + 1) // 2
    row_class = (_parities(fock.occupations) + sector) % 2
    modes = 2 * np.arange(k)[None, :] + row_class[:, None]
    valid = modes < m
    safe = np.minimum(modes, m - 1)
    band = np.where(valid[:, 1:], h_imp[safe[:, :-1], safe[:, 1:]], 0.0)
    return dict(
        sector=sector,
        class_rows=(np.flatnonzero(row_class == 0), np.flatnonzero(row_class == 1)),
        onebody=np.where(valid, bath_onebody[:, None] + np.diag(h_imp)[safe], 0.0),
        imp_band=band if np.any(band) else None,
        full_index=np.where(valid, m * np.arange(fock.bath_dim)[:, None] + modes, -1).reshape(-1),
    )


def _node_tables(phi, n_modes):
    """The node products of each class c of a lowered state b':
    T_c[(l, j), q] = phi_l(x_q) phi_i(x_q), with i = 2j + (c + l) mod 2 the
    impurity mode of slot j after b' + e_l, and 0 where i >= M."""
    m, k = n_modes, (n_modes + 1) // 2
    l = np.arange(m)[:, None]
    tables = []
    for c in (0, 1):
        modes = 2 * np.arange(k)[None, :] + (c + l) % 2
        table = phi[l] * phi[np.minimum(modes, m - 1)] * (modes < m)[:, :, None]
        tables.append(table.reshape(m * k, -1))
    return tuple(tables)


@dataclass
class EDHamiltonian:
    """Matrix-free action of the post-quench Hamiltonian in one total-parity
    sector `sector`, on sector vectors: amplitude matrices W[b, j] = V[b,
    2j + c_b] of n_cols = ceil(M/2) columns, flattened, with c_b the row
    class of bath state b (`class_rows` lists the states of each class).
    `onebody` and `imp_band` are the one-body terms per slot and `full_index`
    the full-space index of each slot, -1 where the slot is invalid (odd M).

    H_BI acts through the stacked annihilators a_l, whose rows (b', l) are
    sorted so that the `lowered_even` lowered states b' of even parity come
    first, the node products `node_tables` of those two blocks of lowered
    states and the weights `bi_weights` = g_bi W_q (None at g_bi = 0), with
    n_q = psi_q^+ psi_q and psi_q = sum_l phi_l(x_q) a_l. The annihilators
    also give the bath density matrix, so they are kept at every g_bi;
    `creators` is their transpose, built once and shared by every matvec.
    H_BB acts as B^T (B W) through the pair factor `bb_factor` and its
    transposed view `bb_factor_t`, shared the same way (None at g_bb = 0).
    `bath_onebody` and `h_imp` are the one-body terms of the full space."""

    fock: FockBasis
    basis: object
    bath_onebody: np.ndarray
    h_imp: np.ndarray
    t_imp: np.ndarray
    v_imp: np.ndarray
    bb_factor: object
    bb_factor_t: object
    annihilators: object
    creators: object
    lowered_even: int
    node_tables: tuple
    bi_weights: np.ndarray
    sector: int
    class_rows: tuple
    onebody: np.ndarray
    imp_band: np.ndarray
    full_index: np.ndarray

    @property
    def n_cols(self):
        return (self.fock.n_modes + 1) // 2

    @property
    def dim(self):
        """Length of a sector vector, invalid slots included."""
        return self.fock.bath_dim * self.n_cols

    @property
    def slots(self):
        """The valid slots of a sector vector, in order."""
        return np.flatnonzero(self.full_index >= 0)

    @property
    def sector_dim(self):
        """Number of states in the sector."""
        return int(np.count_nonzero(self.full_index >= 0))

    def in_sector(self, sector):
        """This Hamiltonian in parity sector `sector`; every block is shared."""
        if sector == self.sector:
            return self
        return replace(
            self,
            node_tables=self.node_tables[::-1],
            **_sector_rows(self.fock, self.bath_onebody, self.h_imp, sector),
        )

    def _bath_block_apply(self, mat_csr, vmat):
        """A real sparse matrix applied to the bath (row) index of an
        amplitude matrix; a complex one is taken on its float64 view (real
        and imaginary parts as interleaved columns)."""
        if vmat.dtype == np.float64:
            return mat_csr @ vmat
        flat = np.ascontiguousarray(vmat).view(np.float64)
        return (mat_csr @ flat).view(np.complex128)

    def _lower(self, wmat):
        """A W with rows b' and columns (l, j): slot j of b' + e_l lowered by
        a_l."""
        lowered = self._bath_block_apply(self.annihilators, wmat)
        return lowered.reshape(-1, self.fock.n_modes * self.n_cols)

    @property
    def _lowered_blocks(self):
        """The rows of the even and of the odd lowered states b'."""
        return slice(0, self.lowered_even), slice(self.lowered_even, None)

    def _node_amplitudes(self, lowered):
        """psi[b', q] = <b'| psi_q phi(x_q) W: each block of lowered states
        contracted with the node products of its class."""
        psi = np.empty((lowered.shape[0], self.node_tables[0].shape[1]), dtype=lowered.dtype)
        for rows, table in zip(self._lowered_blocks, self.node_tables):
            np.matmul(lowered[rows], table, out=psi[rows])
        return psi

    def _bi_apply(self, wmat):
        """H_BI on a sector amplitude matrix W: A lowers it, the node products
        of each block of lowered states carry it to the node amplitudes
        psi_q and, after the weights, back, and A^T raises the result."""
        lowered = self._lower(wmat)
        psi = self._node_amplitudes(lowered) * self.bi_weights
        raised = np.empty_like(lowered)
        for rows, table in zip(self._lowered_blocks, self.node_tables):
            np.matmul(psi[rows], table.T, out=raised[rows])
        return self._bath_block_apply(self.creators, raised.reshape(-1, self.n_cols))

    def matvec(self, v):
        """H v for a sector vector v; a float64 v gives a float64 result, any
        other v is taken as complex128. Invalid slots that hold 0 stay 0."""
        v = np.asarray(v)
        if v.dtype != np.float64:
            v = v.astype(np.complex128, copy=False)
        wmat = v.reshape(self.fock.bath_dim, self.n_cols)
        out = self.onebody * wmat
        if self.imp_band is not None:
            out[:, :-1] += self.imp_band * wmat[:, 1:]
            out[:, 1:] += self.imp_band * wmat[:, :-1]
        if self.bb_factor is not None:
            paired = self._bath_block_apply(self.bb_factor, wmat)
            out += self._bath_block_apply(self.bb_factor_t, paired)
        if self.bi_weights is not None:
            out += self._bi_apply(wmat)
        return out.reshape(-1)

    def to_dense(self):
        """H on the valid slots of the sector, in slot order, as a dense
        float64 matrix, column by column from the real matvec."""
        slots = self.slots
        unit = np.zeros(self.dim)
        columns = []
        for slot in slots:
            unit[slot] = 1.0
            columns.append(self.matvec(unit)[slots])
            unit[slot] = 0.0
        return np.column_stack(columns)

    # --- expectation helpers -------------------------------------------------

    def _amplitudes(self, v):
        """A sector vector as its complex (bath_dim, n_cols) amplitude matrix."""
        return np.asarray(v, dtype=np.complex128).reshape(self.fock.bath_dim, self.n_cols)

    def class_blocks(self, v):
        """The two row-class blocks of a sector vector's amplitude matrix, over
        their valid columns: class 0 holds the even impurity modes 0, 2, ...,
        class 1 the odd modes 1, 3, ..."""
        wmat = self._amplitudes(v)
        m = self.fock.n_modes
        return tuple(
            wmat[rows, : (m + 1 - c) // 2] for c, rows in enumerate(self.class_rows)
        )

    def impurity_rdm(self, v):
        """Impurity density matrix V^+ V: a class block each on the even and
        the odd modes, zero between them."""
        m = self.fock.n_modes
        rdm = np.zeros((m, m), dtype=np.complex128)
        for c, block in enumerate(self.class_blocks(v)):
            rdm[c::2, c::2] = block.conj().T @ block
        return rdm

    def bath_rdm(self, v):
        """One-body bath density matrix <a_i^+ a_l> = (a_i V)^+ (a_l V) of a
        sector vector, from its lowered amplitudes A W. Slot j of rows (b', i)
        and (b', l) holds the same impurity mode when i + l is even; entries
        with i + l odd change the total parity and vanish."""
        m = self.fock.n_modes
        wmat = self._amplitudes(v)
        low = self._lower(wmat).reshape(-1, m, self.n_cols).transpose(1, 0, 2).reshape(m, -1)
        rdm = low.conj() @ low.T
        modes = np.arange(m)
        rdm[(modes[:, None] + modes[None, :]) % 2 == 1] = 0.0
        return rdm

    def expect_bb(self, v):
        """<V|H_BB|V> = ||B W||^2."""
        if self.bb_factor is None:
            return 0.0
        wmat = self._amplitudes(v)
        return float(np.linalg.norm(self._bath_block_apply(self.bb_factor, wmat)) ** 2)

    def expect_bi(self, v):
        """<V|H_BI|V> = sum_q g_bi W_q sum_b' |psi_q[b']|^2 from the node
        amplitudes, with no raise back."""
        if self.bi_weights is None:
            return 0.0
        wmat = self._amplitudes(v)
        psi = self._node_amplitudes(self._lower(wmat))
        return float(self.bi_weights @ np.sum(psi.real**2 + psi.imag**2, axis=0))


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
    """Assembly self-check: <a|Hb> = <Ha|b> on two fixed dense sector
    vectors."""
    idx = np.arange(h.dim)
    keep = h.full_index >= 0
    a = np.exp(1j * 0.37 * idx) * (1.0 + 0.1 * np.cos(2.1 * idx)) * keep
    b = np.exp(-1j * 0.59 * idx) * (1.0 + 0.1 * np.sin(1.3 * idx)) * keep
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
    Gauss-Hermite factorization of the contact interaction, in the even
    sector (`EDHamiltonian.in_sector` gives the odd one). Hermiticity is
    self-checked on fixed dense probe vectors."""
    if g_bb < 0 or g_bi < 0:
        raise ConfigurationError("couplings must be >= 0")
    if basis is not None and basis.n_modes != fock.n_modes:
        raise UsageError("mode basis and Fock basis mode counts differ")
    n, m = fock.n_bath, fock.n_modes
    bath_onebody = (fock.occupations @ (np.arange(m) + 0.5)).astype(np.float64)
    t_imp = 0.5 * _quadratic_matrix(m, -1.0)
    v_imp = 0.5 * omega_i**2 * _quadratic_matrix(m, 1.0)
    x, weights, phi = contact_rule(m)
    annihilators = _annihilators(fock)
    bb = _bath_contact_csr(fock, annihilators, x, weights, phi, g_bb) if g_bb > 0 else None
    # rows (b', l) of A grouped by the parity of b', even first, so that the
    # node products of each class apply to one contiguous block
    lowered = _parities(build_fock_basis(n - 1, m).occupations) if n > 0 else np.zeros(0, int)
    order = np.argsort(lowered, kind="stable")
    annihilators = annihilators[(m * order[:, None] + np.arange(m)).reshape(-1)]
    h = EDHamiltonian(
        fock=fock,
        basis=basis,
        bath_onebody=bath_onebody,
        h_imp=t_imp + v_imp,
        t_imp=t_imp,
        v_imp=v_imp,
        bb_factor=bb,
        bb_factor_t=bb.T if bb is not None else None,
        annihilators=annihilators,
        creators=annihilators.T,
        lowered_even=int(np.count_nonzero(lowered == 0)),
        node_tables=_node_tables(phi, m),
        bi_weights=None,
        **_sector_rows(fock, bath_onebody, t_imp + v_imp, 0),
    )
    return with_impurity_coupling(h, g_bi)


def with_impurity_coupling(h, g_bi):
    """h with the bath-impurity coupling g_bi, in the same sector. Every
    other block, the bath-bath one included, is shared with h, not rebuilt;
    Hermiticity is self-checked."""
    if g_bi < 0:
        raise ConfigurationError("couplings must be >= 0")
    _, weights, _ = contact_rule(h.fock.n_modes)
    h = replace(h, bi_weights=g_bi * weights if g_bi > 0 else None)
    _verify_hermitian(h)
    return h


def _deterministic_start(h):
    # near-uniform positive start with a fixed incommensurate dither, the
    # restriction to the sector of one full-space vector: a uniform start
    # keeps every other symmetry of H and can be locked out of the ground
    # state's symmetry class
    keep = h.full_index >= 0
    v = np.zeros(h.dim)
    v[keep] = 1.0 + 0.05 * np.cos(7.3 * h.full_index[keep])
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class GroundState:
    """The lowest eigenpair of H over both parity sectors: `vector`, a
    sector vector of `hamiltonian` (H in the winning sector), its `energy`,
    and `other_energy`, the lowest energy of the other sector (None where
    that sector is empty, as at M = 1)."""

    vector: np.ndarray = field(repr=False, compare=False)
    energy: float
    hamiltonian: EDHamiltonian = field(repr=False, compare=False)
    other_energy: float | None

    @property
    def sector(self):
        return self.hamiltonian.sector


def _sector_ground_state(h):
    """Lowest eigenpair (vector, energy) of h in its sector; see
    `ground_state`."""
    steps = min(GROUND_STATE_MAX_STEPS, h.sector_dim)

    def converged(t, w, u, beta):
        if beta * abs(u[-1, 0]) <= GROUND_STATE_TOL * 1e-2 * max(1.0, abs(w[0])):
            return True
        if w.size == steps:
            # the lowest Ritz value of every step, from the leading blocks of T
            trace = [np.linalg.eigvalsh(t[:j, :j])[0] for j in range(1, steps + 1)]
            raise ConvergenceError(
                f"Lanczos ground state ({('even', 'odd')[h.sector]} sector): Ritz "
                f"residual {beta * abs(u[-1, 0]):.2e} after {steps} steps",
                trace=np.array(trace),
            )
        return False

    # rows the iteration never reaches are never written, so the cap costs
    # address space, not resident memory
    basis = np.empty((steps, h.dim))
    vm, w, u, _ = _lanczos(
        h.matvec, _deterministic_start(h), basis, converged, GROUND_STATE_CHECK_EVERY
    )
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


def ground_state(h):
    """Lowest eigenpair of H over both parity sectors, as a GroundState. In
    each sector a real Lanczos iteration runs from a deterministic
    near-uniform start and stops at the first check, every
    GROUND_STATE_CHECK_EVERY steps and at the last, where the Ritz residual
    beta_m |u_m0| of the lowest Ritz pair is within GROUND_STATE_TOL / 100
    relative to max(1, |theta|), or at a breakdown of the Krylov space
    (beta_m < 1e-13 at an invariant subspace, as at g = 0); it raises
    ConvergenceError with the trace of lowest Ritz values when
    GROUND_STATE_MAX_STEPS vectors do not get there. The residual ||Hv - Ev||
    of each sector's state is verified against GROUND_STATE_TOL. The odd
    state is returned only when its energy lies below the even one by more
    than GROUND_STATE_TOL max(1, |E_even|); a tie within that returns the
    even state."""
    even = h.in_sector(0)
    odd = h.in_sector(1)
    v_even, e_even = _sector_ground_state(even)
    if odd.sector_dim == 0:
        return GroundState(vector=v_even, energy=e_even, hamiltonian=even, other_energy=None)
    v_odd, e_odd = _sector_ground_state(odd)
    if e_odd < e_even - GROUND_STATE_TOL * max(1.0, abs(e_even)):
        return GroundState(vector=v_odd, energy=e_odd, hamiltonian=odd, other_energy=e_even)
    return GroundState(vector=v_even, energy=e_even, hamiltonian=even, other_energy=e_odd)


@dataclass(frozen=True)
class EDTrajectory:
    """The record times of a propagation and how it went: the largest norm
    defect and the largest Krylov space used."""

    times: np.ndarray = field(repr=False, compare=False)
    max_norm_drift: float = 0.0
    max_krylov_dim: int = 0


def _lanczos(matvec, v, basis, converged=None, check_every=1):
    """Krylov basis V_m of the unit vector v in the rows of `basis` (real or
    complex), fully reorthogonalized, and the eigenpairs (w, u) of T_m =
    V_m^+ H V_m. m is the number of rows, the dimension at breakdown, or the
    first multiple of `check_every` at which `converged(T_m, w, u, beta_m)`
    holds. Returns (V_m, w, u, beta_m)."""
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
        if end or (converged is not None and m % check_every == 0):
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            w, u = np.linalg.eigh(t)
            if (converged is not None and converged(t, w, u, b)) or end:
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
    (1997); Sidje, ACM TOMS 24, 130 (1998)), in the parity sector of h. A
    step builds one Krylov space of at most KRYLOV_MAX_DIM sector vectors
    and gives each pending record tau as V_m exp(-i tau T_m) e_1 while the
    error estimate stays below KRYLOV_LOCAL_TOL, and the next step starts
    from the last of them; a step that reaches no record ends at an internal
    time, halved until the estimate passes. States are renormalized and the
    largest norm defect is reported. Record times accumulate t += dt as a
    fixed-step loop would; a t_max shorter than one record interval raises
    ConfigurationError.

    v0 is a normalized sector vector of h, of length h.dim, whose invalid
    slots hold 0; any other length, a full-space vector (bath Fock state x
    impurity mode) included, raises UsageError. `observe(k, v)` is called
    with the sector vector v at record k, for k = 0 .. n_rec in order; only
    the current state is held, and the propagator never writes into a state
    it has passed on, so the observer may keep it. Returns the record times and
    the run's diagnostics."""
    n_rec = record_intervals(dt, t_max, record_every)
    v = np.asarray(v0, dtype=np.complex128).reshape(-1)
    if v.size != h.dim:
        raise UsageError(f"v0 has length {v.size}; a sector vector of h has h.dim = {h.dim}")
    if np.any(v[h.full_index < 0]):
        raise UsageError("v0 holds amplitudes in invalid sector slots")
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
    return TimeSeries(0.0, float(times[1] - times[0]), s)


def schmidt(v, h):
    """Descending Schmidt weights lambda = sigma^2 of one normalized sector
    vector of h across the bath | impurity cut, sigma the singular values of
    its amplitude matrix: those of its two row-class blocks (the matrix is
    block diagonal in the impurity mode parity), padded with zeros to
    min(bath_dim, M)."""
    amps = np.asarray(v, dtype=np.complex128)
    if abs(np.linalg.norm(amps) - 1.0) > 1e-8:
        raise UsageError("state must be normalized for a Schmidt decomposition")
    sigma = np.concatenate(
        [np.linalg.svd(block, compute_uv=False) for block in h.class_blocks(amps) if block.size]
    )
    lambdas = np.zeros(min(h.fock.bath_dim, h.fock.n_modes))
    lambdas[: sigma.size] = np.sort(sigma**2)[::-1]
    return lambdas


def entanglement_entropy(lambdas):
    """Natural-log von Neumann entropy -sum lambda ln lambda of Schmidt
    weights along the last axis, over the weights above 1e-16."""
    lam = np.asarray(lambdas)
    pos = lam > 1e-16
    return -np.sum(lam * np.log(lam, where=pos, out=np.zeros_like(lam)), axis=-1)


def one_body_density(h, v, species):
    """Grid-sampled one-body density of the bath (normalized to N_B) or the
    spin-up impurity (normalized to 1) of a sector vector of h."""
    basis = h.basis
    if basis is None:
        raise UsageError("Hamiltonian carries no mode-function basis")
    if species == "bath":
        rdm = h.bath_rdm(v)
    elif species == "impurity":
        rdm = h.impurity_rdm(v)
    else:
        raise UsageError("species must be 'bath' or 'impurity'")
    modes = basis.mode_functions
    vals = np.real(np.einsum("il,ix,lx->x", rdm, modes, modes))
    return Field(basis.grid, vals)


def energy_breakdown(v, h):
    """Operator expectations of the six Hamiltonian pieces in a sector vector
    of h."""
    m = h.fock.n_modes
    bath_rdm = h.bath_rdm(v)
    imp_rdm = h.impurity_rdm(v)
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
