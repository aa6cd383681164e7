"""Correlated tier: N_B bath bosons plus one spin-up impurity, both expanded
in the fixed harmonic-oscillator mode basis. Exact Hamiltonian action on the
truncated Fock space, Lanczos ground states, short-iterate Krylov real-time
propagation, exact contrast, Schmidt decomposition and entanglement measures.

The bath-bath contact term carries the conventional 1/2 prefactor,
H_BB = (g_bb/2) int Psi+ Psi+ Psi Psi; the bath-impurity term has no such
factor (distinguishable species). The spin-down impurity branch evolves with
the pure phase exp(-i E0 t) and never enters the diagonalization.
"""

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
from .grid import Field
from .observables import EnergyBreakdown, TimeSeries

DIM_GUARD_DEFAULT = 5_000_000


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis (n_1..n_M), sum n = N_B, lexicographic order,
    tensored with the impurity mode index."""

    n_bath: int
    n_modes: int
    occupations: np.ndarray = field(repr=False, compare=False)
    index_map: dict = field(repr=False, compare=False)

    @property
    def bath_dim(self):
        return self.occupations.shape[0]

    @property
    def total_dim(self):
        return self.bath_dim * self.n_modes

    def index(self, occupation):
        occ = np.asarray(occupation, dtype=np.int32)
        key = occ.tobytes()
        if key not in self.index_map:
            raise UsageError(f"occupation {occupation} not in the basis")
        return self.index_map[key]

    def state(self, index):
        return self.occupations[index]


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
    occs = np.zeros((bath_dim, n_modes), dtype=np.int32)
    row = 0
    work = np.zeros(n_modes, dtype=np.int32)

    def fill(pos, remaining):
        nonlocal row
        if pos == n_modes - 1:
            work[pos] = remaining
            occs[row] = work
            row += 1
            return
        for n in range(remaining + 1):
            work[pos] = n
            fill(pos + 1, remaining - n)
        work[pos] = 0

    fill(0, n_bath)
    index_map = {occs[i].tobytes(): i for i in range(bath_dim)}
    return FockBasis(
        n_bath=n_bath, n_modes=n_modes, occupations=occs, index_map=index_map
    )


def _pair_index(m):
    """tri(i, j) lookup for unordered pairs i <= j < m."""
    tri = {}
    count = 0
    for i in range(m):
        for j in range(i, m):
            tri[(i, j)] = count
            count += 1
    return tri, count


@dataclass(frozen=True)
class InteractionTensor:
    """Contact integrals u[i,j,k,l] = int phi_i phi_j phi_k phi_l dx for the
    oscillator basis, stored per unordered index pair (full permutation
    symmetry of the real product integrand)."""

    n_modes: int
    pair_gram: np.ndarray = field(repr=False, compare=False)
    _tri: dict = field(repr=False, compare=False)

    def value(self, i, j, k, l):
        a = self._tri[(i, j) if i <= j else (j, i)]
        b = self._tri[(k, l) if k <= l else (l, k)]
        return float(self.pair_gram[a, b])

    def dense(self):
        m = self.n_modes
        u = np.empty((m, m, m, m))
        for (i, j), a in self._tri.items():
            for (k, l), b in self._tri.items():
                v = self.pair_gram[a, b]
                u[i, j, k, l] = u[j, i, k, l] = u[i, j, l, k] = u[j, i, l, k] = v
        return u


def contact_tensor(basis):
    """All mode-product contact integrals via grid quadrature, with a
    closed-form self-check on the lowest Gaussian integrals."""
    m = basis.n_modes
    grid = basis.grid
    tri, n_pairs = _pair_index(m)
    pairs = np.empty((n_pairs, grid.n_points))
    for (i, j), a in tri.items():
        pairs[a] = basis.mode_functions[i] * basis.mode_functions[j]
    gram = (pairs * grid.dx) @ pairs.T
    tensor = InteractionTensor(n_modes=m, pair_gram=gram, _tri=tri)
    ref0 = 1.0 / np.sqrt(2.0 * np.pi)
    if abs(tensor.value(0, 0, 0, 0) - ref0) > 1e-8:
        raise AccuracyError(
            f"quadrature self-check failed: u[0000] = {tensor.value(0, 0, 0, 0)!r}, "
            f"expected {ref0!r}"
        )
    if m > 1 and abs(tensor.value(0, 0, 1, 1) - 0.5 * ref0) > 1e-8:
        raise AccuracyError("quadrature self-check failed on u[0011]")
    return tensor


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
    indexed as (bath Fock state) x (impurity mode)."""

    fock: FockBasis
    basis: object
    bath_onebody: np.ndarray
    bb_csr: object
    h_imp: np.ndarray
    bi_bsr: object
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
        flat = np.ascontiguousarray(vmat).view(np.float64).reshape(
            vmat.shape[0], 2 * vmat.shape[1]
        )
        out = mat_csr @ flat
        return out.view(np.complex128).reshape(vmat.shape)

    def matvec(self, v):
        v = np.asarray(v, dtype=np.complex128)
        s, m = self.fock.bath_dim, self.fock.n_modes
        vmat = v.reshape(s, m)
        out = self.bath_onebody[:, None] * vmat
        out = out + vmat @ self.h_imp.T
        if self.bb_csr is not None:
            out = out + self._bath_block_apply(self.bb_csr, vmat)
        res = out.reshape(-1)
        if self.bi_bsr is not None:
            res = res + (self.bi_bsr @ v.real + 1j * (self.bi_bsr @ v.imag))
        return res

    def __matmul__(self, v):
        return self.matvec(v)

    def to_dense(self):
        s, m = self.fock.bath_dim, self.fock.n_modes
        h = np.kron(np.diag(self.bath_onebody), np.eye(m))
        h += np.kron(np.eye(s), self.h_imp)
        if self.bb_csr is not None:
            h += np.kron(self.bb_csr.toarray(), np.eye(m))
        if self.bi_bsr is not None:
            h += self.bi_bsr.toarray()
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
        if self.bi_bsr is None:
            return 0.0
        v = np.asarray(v, dtype=np.complex128)
        return float(
            np.real(np.vdot(v, self.bi_bsr @ v.real + 1j * (self.bi_bsr @ v.imag)))
        )


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
        has = np.flatnonzero(occs[:, l] > 0)
        for i in range(m):
            if i == l:
                continue
            src = has
            amp = np.sqrt(occs[src, l] * (occs[src, i] + 1.0))
            shifted = occs[src].copy()
            shifted[:, l] -= 1
            shifted[:, i] += 1
            dst = np.fromiter(
                (fock.index_map[row.tobytes()] for row in shifted),
                dtype=np.int64,
                count=src.size,
            )
            out[(i, l)] = (src.astype(np.int64), dst, amp)
    return out


def _bath_interaction_csr(fock, tensor, g_bb):
    """(g_bb/2) sum u[ijkl] a_i^+ a_j^+ a_k a_l on the bath Fock space."""
    occs = fock.occupations
    m = fock.n_modes
    index_map = fock.index_map
    rows, cols, vals = [], [], []
    half_g = 0.5 * g_bb
    for s in range(fock.bath_dim):
        occ = occs[s]
        occupied = np.flatnonzero(occ > 0)
        ann = []
        for a_i, k in enumerate(occupied):
            for l in occupied[a_i:]:
                if k == l:
                    if occ[k] < 2:
                        continue
                    amp = np.sqrt(occ[k] * (occ[k] - 1.0))
                    weight = 1.0
                else:
                    amp = np.sqrt(occ[k] * occ[l] * 1.0)
                    weight = 2.0
                mid = occ.copy()
                mid[k] -= 1
                mid[l] -= 1
                ann.append((k, l, mid, amp * weight))
        for k, l, mid, amp_ann in ann:
            par_kl = (k + l) % 2
            for i in range(m):
                for j in range(i, m):
                    if (i + j) % 2 != par_kl:
                        continue
                    tgt = mid.copy()
                    tgt[i] += 1
                    tgt[j] += 1
                    if i == j:
                        amp_cre = np.sqrt((mid[i] + 1.0) * (mid[i] + 2.0))
                        weight = 1.0
                    else:
                        amp_cre = np.sqrt((mid[i] + 1.0) * (mid[j] + 1.0))
                        weight = 2.0
                    t = index_map[tgt.tobytes()]
                    rows.append(t)
                    cols.append(s)
                    vals.append(
                        half_g * weight * amp_ann * amp_cre * tensor.value(i, j, k, l)
                    )
    mat = sp.coo_matrix(
        (vals, (rows, cols)), shape=(fock.bath_dim, fock.bath_dim)
    ).tocsr()
    mat.sum_duplicates()
    return mat


def _impurity_interaction_csr(fock, tensor, transitions, g_bi):
    """g_bi sum u[i,j,k,l] a_i^+ a_l (x) |j><k| on the full space."""
    m = fock.n_modes
    s_dim = fock.bath_dim
    u = tensor.dense()
    rows, cols, vals = [], [], []
    # bath-diagonal part: sum_i n_i W_ii
    occs = fock.occupations.astype(np.float64)
    w_diag = np.stack([u[i, :, :, i] for i in range(m)])  # (m, m, m) -> [i][j][k]
    diag_blocks = g_bi * np.tensordot(occs, w_diag, axes=(1, 0))  # (s, m, m)
    jj, kk = np.nonzero(np.abs(w_diag).sum(axis=0) > 0)
    base = np.arange(s_dim) * m
    for j, k in zip(jj, kk):
        rows.append(base + j)
        cols.append(base + k)
        vals.append(diag_blocks[:, j, k])
    # bath-changing part
    for (i, l), (src, dst, amp) in transitions.items():
        w = u[i, :, :, l]
        jj, kk = np.nonzero(np.abs(w) > 0)
        if jj.size == 0 or src.size == 0:
            continue
        block_vals = g_bi * np.outer(amp, w[jj, kk])
        rows.append((dst[:, None] * m + jj[None, :]).ravel())
        cols.append((src[:, None] * m + kk[None, :]).ravel())
        vals.append(block_vals.ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    dim = s_dim * m
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    mat.sum_duplicates()
    return mat


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


def build_hamiltonian(fock, tensor, g_bb, g_bi, omega_i=1.0, basis=None):
    """Assemble the matrix action of H = H_B(0) + H_I(0) + H_BB + H_BI.
    Hermiticity is self-checked on fixed dense probe vectors."""
    if g_bb < 0 or g_bi < 0:
        raise ConfigurationError("couplings must be >= 0")
    if tensor.n_modes != fock.n_modes:
        raise UsageError("tensor and Fock basis mode counts differ")
    m = fock.n_modes
    bath_onebody = (fock.occupations @ (np.arange(m) + 0.5)).astype(np.float64)
    t_imp = 0.5 * _quadratic_matrix(m, -1.0)
    v_imp = 0.5 * omega_i**2 * _quadratic_matrix(m, 1.0)
    transitions = _one_body_transitions(fock)
    bb = _bath_interaction_csr(fock, tensor, g_bb) if g_bb > 0 else None
    bi_bsr = (
        _impurity_interaction_csr(fock, tensor, transitions, g_bi).tobsr(blocksize=(m, m))
        if g_bi > 0
        else None
    )
    h = EDHamiltonian(
        fock=fock,
        basis=basis,
        bath_onebody=bath_onebody,
        bb_csr=bb,
        h_imp=t_imp + v_imp,
        bi_bsr=bi_bsr,
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
    basis = [v]
    r = matvec(v)
    a = float(np.real(np.vdot(v, r)))
    alphas.append(a)
    r = r - a * v
    y_prev = None
    for m in range(1, max_dim + 1):
        w_eig, u = eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
        y = u @ (np.exp(-1j * dt * w_eig) * u[0])
        # full reorthogonalization of the residual (cheap at these sizes)
        vm = np.column_stack(basis)
        r = r - vm @ (vm.conj().T @ r)
        b = float(np.linalg.norm(r))
        breakdown = b < 1e-13
        converged = False
        if y_prev is not None:
            err = float(np.linalg.norm(y[:-1] - y_prev)) + abs(y[-1])
            converged = err < local_tol
        if converged or breakdown:
            return vm @ y, m
        y_prev = y
        if m == max_dim:
            return None, max_dim
        q = r / b
        basis.append(q)
        betas.append(b)
        r = matvec(q) - b * basis[-2]
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
