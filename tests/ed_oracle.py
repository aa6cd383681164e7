"""Test-only oracle for the ED Hamiltonian: the loop-based assembly the
package used before the contact interaction was factorized on a
Gauss-Hermite rule. Contact integrals come from grid quadrature of the
sampled mode functions, the bath-bath block from a Python loop over Fock
states, the bath-impurity block from explicit COO triplets, and Fock states
are looked up in a bytes-keyed dict. Slow; keep the sizes small.

`propagate_states` is the test-side collector of whole trajectories: the
package streams Krylov records to an observer and keeps none of them.
`embed` and `restrict` are the bridge between a sector vector and the full
space (bath Fock state x impurity mode) the oracle works in; the package
itself reads sector vectors only."""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from polaron1d import exactdiag as ed


def embed(h, w):
    """The full-space vector of the sector vector w of h."""
    keep = h.full_index >= 0
    v = np.zeros(h.fock.total_dim, dtype=w.dtype)
    v[h.full_index[keep]] = w[keep]
    return v


def restrict(h, v):
    """The sector vector of h holding the entries of the full-space vector
    (or (bath_dim, n_modes) amplitude matrix) v in the sector of h; entries
    outside the sector are dropped."""
    v = np.asarray(v).reshape(-1)
    keep = h.full_index >= 0
    w = np.zeros(h.dim, dtype=v.dtype)
    w[keep] = v[h.full_index[keep]]
    return w


def propagate_states(h, v0, **kwargs):
    """`exactdiag.propagate_krylov` with every record state kept: the
    trajectory and an (n_rec + 1, dim) array of the states, checking that
    the records arrive once each and in order."""
    states = []

    def keep(k, v):
        assert k == len(states)
        states.append(v)

    traj = ed.propagate_krylov(h, v0, observe=keep, **kwargs)
    assert len(states) == traj.times.size
    return traj, np.array(states)


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
    """All mode-product contact integrals via grid quadrature."""
    m = basis.n_modes
    grid = basis.grid
    tri, n_pairs = _pair_index(m)
    pairs = np.empty((n_pairs, grid.n_points))
    for (i, j), a in tri.items():
        pairs[a] = basis.mode_functions[i] * basis.mode_functions[j]
    gram = (pairs * grid.dx) @ pairs.T
    return InteractionTensor(n_modes=m, pair_gram=gram, _tri=tri)


def gauss_hermite_tensor(n_modes):
    """The contact integrals of `exactdiag.contact_rule`, exact for the
    oscillator basis, in the oracle's pair storage."""
    _, weights, phi = ed.contact_rule(n_modes)
    tri, n_pairs = _pair_index(n_modes)
    pairs = np.empty((n_pairs, weights.size))
    for (i, j), a in tri.items():
        pairs[a] = phi[i] * phi[j]
    gram = (pairs * weights) @ pairs.T
    return InteractionTensor(n_modes=n_modes, pair_gram=gram, _tri=tri)


def index_map(fock):
    return {row.tobytes(): i for i, row in enumerate(fock.occupations)}


def one_body_transitions(fock):
    """(i, l) -> (src, dst, amp) arrays for a_i^+ a_l with i != l."""
    occs = fock.occupations
    m = fock.n_modes
    lookup = index_map(fock)
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
                (lookup[row.tobytes()] for row in shifted),
                dtype=np.int64,
                count=src.size,
            )
            out[(i, l)] = (src.astype(np.int64), dst, amp)
    return out


def bath_rdm(fock, v):
    """<a_i^+ a_l> of amplitudes indexed by bath Fock state first, by a loop
    over Fock states and ordered mode pairs: each element once, from the
    explicit occupations a_i^+ a_l |n> = sqrt(n_l (n_i - delta_il + 1)) |n'>."""
    m = fock.n_modes
    lookup = index_map(fock)
    vmat = np.asarray(v, dtype=np.complex128).reshape(fock.bath_dim, -1)
    rdm = np.zeros((m, m), dtype=np.complex128)
    for s, occ in enumerate(fock.occupations):
        for l in np.flatnonzero(occ):
            for i in range(m):
                tgt = occ.copy()
                tgt[l] -= 1
                tgt[i] += 1
                amp = np.sqrt(occ[l] * float(tgt[i]))
                rdm[i, l] += amp * np.vdot(vmat[lookup[tgt.tobytes()]], vmat[s])
    return rdm


def bath_interaction_csr(fock, tensor, g_bb):
    """(g_bb/2) sum u[ijkl] a_i^+ a_j^+ a_k a_l on the bath Fock space."""
    occs = fock.occupations
    m = fock.n_modes
    lookup = index_map(fock)
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
                    t = lookup[tgt.tobytes()]
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


def impurity_interaction_csr(fock, tensor, transitions, g_bi):
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


def oracle_blocks(fock, basis, g_bb, g_bi):
    """(bath-bath CSR on the bath space, bath-impurity CSR on the full space)."""
    tensor = contact_tensor(basis)
    transitions = one_body_transitions(fock)
    return (
        bath_interaction_csr(fock, tensor, g_bb),
        impurity_interaction_csr(fock, tensor, transitions, g_bi),
    )


def oracle_matvec(h, blocks, v):
    """H v with the one-body parts of `h` and the oracle interaction blocks."""
    bb, bi = blocks
    vmat = v.reshape(h.fock.bath_dim, h.fock.n_modes)
    out = h.bath_onebody[:, None] * vmat + vmat @ (h.t_imp + h.v_imp).T + bb @ vmat
    return out.reshape(-1) + bi @ v


def oracle_dense(h, blocks):
    bb, bi = blocks
    s, m = h.fock.bath_dim, h.fock.n_modes
    dense = np.kron(np.diag(h.bath_onebody), np.eye(m)) + np.kron(np.eye(s), h.t_imp + h.v_imp)
    return dense + np.kron(bb.toarray(), np.eye(m)) + bi.toarray()


def sector_matvec(h, blocks, w):
    """The oracle's matrix action on the sector vector w of h, restricted
    to the sector of h."""
    return restrict(h, oracle_matvec(h, blocks, embed(h, w)))
