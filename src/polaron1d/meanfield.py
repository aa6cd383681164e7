"""Coupled Gross-Pitaevskii tier: imaginary-time ground-state relaxation,
real-time quench propagation, Thomas-Fermi closed forms, the mean-field
Ramsey contrast and the sound-horizon diagnostic.

Conventions: the bath orbital phi_B is normalized to 1 and carries density
N_B |phi_B|^2. The bath nonlinearity uses the product-ansatz coefficient
g_BB (N_B - 1) |phi_B|^2 (variationally exact for N bosons in one orbital and
consistent with the exact-diagonalization tier at small N; at N_B = 100 it is
indistinguishable from the large-N convention). The spin-down impurity branch
never couples to the bath (the interaction involves the spin-up field only),
so the energy bookkeeping refers to the spin-up branch.

Both loops are time-splitting sine-spectral methods (Bao, Jaksch & Markowich,
J. Comput. Phys. 187, 318 (2003)); the relaxation is their normalized
gradient flow (Bao & Du, SIAM J. Sci. Comput. 25, 1674 (2004)) at one
imaginary step, run until its stationarity residual stalls at the splitting
bias.

The trap is mirror symmetric, so the relaxed state is parity even, and
real-time dynamics from an even state stay even. Relaxation, polish and
propagation therefore run in the even sector on the half grid: an even
orbital is carried by its h = ceil(n/2) interior samples with x <= 0
(`grid.half_points`, quadrature weights `grid.half_weights`), where the
sine-spectral steps need only the odd sine modes and run on half-length FFTs
(`grid.even_sine_filter`), and it is read there too. One half-grid GP
residual (`_gp_residual`, on the even kinetic block
`grid.even_kinetic_matrix`) sets the relaxation step, makes each residual
check, drives the Newton polish and gates its result, and
`energy_breakdown` and every record reduction (norms, energies, overlaps,
<x^2>, <p^2>) are half-grid sums; <x> of an even orbital is 0 by parity. An
orbital is unfolded into an exactly even full-grid Field (`grid.unfold_even`)
only for the returned ground state, the kept snapshots and the states handed
to `propagate`'s observer. `propagate` refuses a state whose
orbitals are not mirror symmetric to the bit; it never projects one. Where
the impurity is expelled from the bath the even stationary state is a
saddle, and a broken-parity one lies lower (E = 546.53354 against 546.67688
at g_bi = 1 on the default bath: N_B = 100, g_BB = 0.5, 450 points,
x_max = 40); that state is a mean-field property the outputs leave out.

The relaxation carries the real bath and spin-up orbitals as one complex
column b + i u and merges the two half-step decay filters around each
normalization into one filter per step. The real-time loop carries bath and
spin-up as a two-column block; the linear spin-down branch is advanced
exactly in the bare trap's even stationary states on the grid
(`grid.even_stationary_states`, the even parity block alone), at the record
points only. Each record is reduced
where it is made, to the scalar series and to its overlaps with the initial
bath and spin-up orbitals, from which `mean_field_contrast` builds S(t); a
propagation keeps three states (first, middle and last record), so its memory
does not grow with t_max.

The relaxation ends with a Newton polish of the coupled stationarity
equations, which sets the accuracy of the ground state: a polished GP
stationarity residual above RELAX_TOL raises ConvergenceError. Its bordered
Jacobian is two (h+1)^2 blocks on the half grid, bath and spin-up, coupled
only through diagonals proportional to g_BI, and it is solved by block
elimination, never formed as one (2h+2)^2 matrix.

The GP potentials of bath and spin-up, V_b = trap_b + g_BB (N_B - 1) |b|^2 +
g_BI |u|^2 and V_u = trap_u + g_BI N_B |b|^2, are [|b|^2, |u|^2] C plus the
stacked traps, with C the 2x2 coupling matrix (`_coupling_matrix`).
`_gp_potentials` evaluates them for the GP residual and the Newton polish.
Both loops take the potential step of bath and spin-up in that same form in
one pass over the float parts of their columns, which gives the exponent of
both factors at once, and every step writes into preallocated buffers.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConvergenceError, StepSizeError, UsageError
from .grid import (
    Field,
    bare_ground_state,
    box_wavenumbers,
    even_kinetic_matrix,
    even_sine_filter,
    even_stationary_states,
    evolve_coefficients,
    half_points,
    half_weights,
    is_mirror_symmetric,
    parity_odd_fraction,
    unfold_even,
)
from .observables import ENERGY_TERMS, EnergyBreakdown, TimeSeries, record_intervals


@dataclass(frozen=True)
class MeanFieldSystem:
    n_bath: int
    g_bb: float
    g_bi: float
    omega_b: float = 1.0
    omega_i: float = 1.0

    def __post_init__(self):
        if self.g_bb < 0 or self.g_bi < 0:
            raise ConfigurationError("couplings must be >= 0 (repulsive model)")
        if self.n_bath < 1:
            raise ConfigurationError("n_bath must be >= 1")
        if self.omega_b <= 0 or self.omega_i <= 0:
            raise ConfigurationError("trap frequencies must be > 0")


@dataclass(frozen=True)
class MeanFieldState:
    """The bath, spin-up and spin-down orbitals at one time, on one grid."""

    bath: Field
    up: Field
    down: Field
    time: float = 0.0

    def __post_init__(self):
        self.bath.grid.require_same(self.up.grid)
        self.up.grid.require_same(self.down.grid)


def _trap(grid, omega):
    return 0.5 * omega**2 * grid.x**2


def _stacked_traps(grid, sys):
    """(n_points, 2) block of the bath and spin-up traps."""
    return np.stack([_trap(grid, sys.omega_b), _trap(grid, sys.omega_i)], axis=1)


def _coupling_matrix(sys):
    """C with [|b|^2, |u|^2] C = [g_bb (N_B - 1) |b|^2 + g_bi |u|^2,
    g_bi N_B |b|^2], the interaction potentials of bath and spin-up."""
    n = sys.n_bath
    return np.array([[sys.g_bb * (n - 1), sys.g_bi * n], [sys.g_bi, 0.0]])


def _gp_potentials(sys, traps, b, u):
    """(n_points, 2) block of the GP potentials [V_b, V_u] of the bath and
    spin-up orbitals b and u on the points of the stacked `traps`."""
    return np.stack([np.abs(b) ** 2, np.abs(u) ** 2], axis=1) @ _coupling_matrix(sys) + traps


def _gp_residual(sys, t, traps, weights, pb, pu, mu_b, mu_i):
    """The coupled GP stationarity equations of the real, parity-even
    orbitals pb and pu, given by their half-grid samples (`grid.half_points`),
    at chemical potentials mu_b and mu_i: [(h_b - mu_b) b, (h_u - mu_i) u,
    (|b|^2 - 1)/2, (|u|^2 - 1)/2], with `t` the even kinetic block
    (`grid.even_kinetic_matrix`), `traps` the stacked traps on the half-grid
    points and `weights` their quadrature weights (`grid.half_weights`)."""
    v_b, v_u = _gp_potentials(sys, traps, pb, pu).T
    hb = t @ pb + (v_b - mu_b) * pb
    hu = t @ pu + (v_u - mu_i) * pu
    cb = 0.5 * (weights @ pb**2 - 1.0)
    cu = 0.5 * (weights @ pu**2 - 1.0)
    return np.concatenate([hb, hu, [cb, cu]])


def _gp_check(sys, t, traps, weights, pb, pu):
    """GP eigenvalues (mu_bath, mu_impurity) of the normalized half-grid
    orbitals pb and pu and the L2 norms (r_bath, r_impurity) of their
    `_gp_residual` at those eigenvalues."""
    ni = pb.size
    h_phi = _gp_residual(sys, t, traps, weights, pb, pu, 0.0, 0.0)[: 2 * ni].reshape(2, ni)
    phi = np.stack([pb, pu])
    mu = (phi * h_phi) @ weights
    r = np.sqrt((h_phi - mu[:, None] * phi) ** 2 @ weights)
    return tuple(mu.tolist()), tuple(r.tolist())


def energy_breakdown(sys, t, traps, weights, cols):
    """Six-term decomposition of the spin-up branch energy of the parity-even
    bath and spin-up orbitals whose half-grid samples are the columns of the
    real or complex (h, 2) block `cols`; `t`, `traps` and `weights` are as
    for `_gp_residual`. A complex block is read through its float view, so
    the even kinetic block acts on each part of each orbital apart."""
    n = sys.n_bath
    parts = cols.view(np.float64)
    kin_b, kin_i = (weights @ (parts * (t @ parts))).reshape(2, -1).sum(axis=1).tolist()
    rho = (parts**2).reshape(cols.shape[0], 2, -1).sum(axis=2)
    pot_b, pot_i = (weights @ (traps * rho)).tolist()
    e_bb = 0.5 * sys.g_bb * n * (n - 1) * float(weights @ rho[:, 0] ** 2)
    e_bi = sys.g_bi * n * float(weights @ (rho[:, 0] * rho[:, 1]))
    return EnergyBreakdown(n * kin_b, n * pot_b, kin_i, pot_i, e_bb, e_bi)


@dataclass(frozen=True)
class ThomasFermiProfile:
    mu: float
    radius: float
    n_bath: int
    g_bb: float
    omega_b: float = 1.0

    def density_values(self, x):
        rho = (self.mu - 0.5 * self.omega_b**2 * x**2) / self.g_bb
        return np.clip(rho, 0.0, None)

    def density(self, grid):
        return Field(grid, self.density_values(grid.x))


def thomas_fermi(sys):
    """Closed-form Thomas-Fermi chemical potential, radius and density."""
    if sys.g_bb <= 0:
        raise ConfigurationError("Thomas-Fermi limit undefined for g_bb = 0")
    mu = 0.5 * (1.5 * sys.n_bath * sys.g_bb * sys.omega_b) ** (2.0 / 3.0)
    radius = np.sqrt(2.0 * mu / sys.omega_b**2)
    return ThomasFermiProfile(
        mu=float(mu),
        radius=float(radius),
        n_bath=sys.n_bath,
        g_bb=sys.g_bb,
        omega_b=sys.omega_b,
    )


def density_drop_radius(density):
    """Radius where the bulk (inverted-parabola) fit of the density drops to
    zero; measures the Thomas-Fermi radius of a relaxed cloud."""
    x = density.grid.x
    rho = np.real(density.values)
    rho0 = float(np.max(rho))
    if rho0 <= 0:
        raise UsageError("empty density")
    above = np.abs(x)[rho > 0.5 * rho0]
    r_est = np.sqrt(2.0) * float(np.max(above))
    bulk = np.abs(x) <= 0.7 * r_est
    coeffs = np.polyfit(x[bulk] ** 2, rho[bulk], 1)
    if coeffs[0] >= 0:
        raise UsageError("density has no parabolic bulk")
    return float(np.sqrt(-coeffs[1] / coeffs[0]))


def sound_horizon(sys, bath_density, x_b, density_floor_frac=1e-12, return_info=False):
    """Time for sound to travel from the trap center to x_b:
    T = int_0^{x_b} dx / c(x) with c = sqrt(g_bb rho).

    Trapezoid rule over the grid samples of 1/c. Points with rho below
    density_floor_frac * rho(0) are excluded (1/c diverges where the density
    vanishes) and the cutoff position is reported.
    """
    grid = bath_density.grid
    if x_b <= 0:
        raise UsageError("x_b must be > 0")
    if x_b > grid.x_max:
        raise UsageError(f"x_b = {x_b} beyond the grid half-width {grid.x_max}")
    rho = np.clip(np.real(bath_density.values), 0.0, None)
    if np.min(np.real(bath_density.values)) < -1e-10:
        raise UsageError("density must be non-negative")
    rho0 = float(np.interp(0.0, grid.x, rho))
    floor = density_floor_frac * rho0
    # positive-x grid samples up to x_b, endpoint included by interpolation
    xs = grid.x[(grid.x >= 0.0) & (grid.x < x_b)]
    xs = np.append(xs, x_b)
    vals = np.interp(xs, grid.x, rho)
    keep = vals > floor
    if np.count_nonzero(keep) < 2:
        raise UsageError("density below the floor everywhere on [0, x_b]")
    cutoff_x = float(xs[keep][-1])
    xs, vals = xs[keep], vals[keep]
    c = np.sqrt(sys.g_bb * vals)
    t_total = float(np.trapezoid(1.0 / c, xs))
    if return_info:
        return t_total, {"cutoff_x": cutoff_x, "floor": floor}
    return t_total


@dataclass(frozen=True)
class RelaxResult:
    energy: float
    mu_bath: float
    mu_impurity: float
    breakdown: EnergyBreakdown
    iterations: int
    residual_bath: float
    residual_impurity: float
    energy_trace: np.ndarray = field(repr=False)


def _initial_guess(sys, grid):
    bath = bare_ground_state(grid, sys.omega_b)
    if sys.g_bb > 0 and sys.n_bath * sys.g_bb > 5.0:
        tf = thomas_fermi(sys)
        prof = np.sqrt(tf.density_values(grid.x) / sys.n_bath)
        bath = Field(grid, prof + 1e-3 * bath.values).normalized()
    return bath, bare_ground_state(grid, sys.omega_i)


# imaginary step of the split-step relaxation, which only has to bring the
# state into the reach of the Newton polish: RELAX_TAU, or RELAX_TAU_MU / mu
# for a stiffer bath or impurity of initial chemical potential mu (at tau mu
# ~ 1 the split-step fixed point is far from stationary). The polish removes
# the O(tau^2) splitting bias, and RELAX_TOL bounds the GP stationarity
# residual it must reach (energy criteria are quadratically blind to state error)
RELAX_TAU = 2e-2
RELAX_TAU_MU = 0.5
RELAX_MAX_ITERATIONS = 400_000
RELAX_CHECK_EVERY = 100
RELAX_TOL = 1e-8


# Newton polish: iteration cap and the stationarity residual that ends it early
POLISH_MAX_ITERATIONS = 10
POLISH_TARGET = 1e-13


def _bordered(t, shift, p, weights):
    """The (m+1)^2 block [[t + diag(shift), -p], [p weights, 0]] of one
    orbital's stationarity equation on m samples, bordered by its chemical
    potential and its norm constraint."""
    ni = p.size
    block = np.empty((ni + 1, ni + 1))
    block[:ni, :ni] = t
    block.reshape(-1)[: ni * (ni + 2) : ni + 2] += shift
    block[:ni, ni] = -p
    block[ni, :ni] = p * weights
    block[ni, ni] = 0.0
    return block


def _newton_step(sys, t, traps, weights, pb, pu, mu_b, mu_i, res):
    """The Newton update (db, du, dmu_b, dmu_i) that solves J delta = -res,
    J the bordered Jacobian of `_gp_residual`, by block elimination. `t`
    is the kinetic matrix on the samples of pb and pu and
    `weights` their quadrature weights (the norm is sum(weights p^2)).

    J is the bath block [[T + diag(V_b + 2 g_BB (N_B - 1) b^2 - mu_b), -b],
    [b w, 0]] and the spin-up block [[T + diag(V_u - mu_i), -u], [u w, 0]],
    coupled only by diag(2 g_BI b u) in the bath rows and diag(2 g_BI N_B b u)
    in the spin-up rows. The spin-up block is solved once, for the residual
    and for the coupling columns where b u is nonzero; the bath block less
    the coupling times those solutions then gives the bath update. At
    g_BI = 0 there are no coupling columns: two (m+1)^2 solves, m = pb.size,
    with one right-hand side each.
    """
    ni = pb.size
    n = sys.n_bath
    v_b, v_u = _gp_potentials(sys, traps, pb, pu).T
    couple = 2.0 * sys.g_bi * pb * pu
    cols = np.flatnonzero(couple)
    rhs = np.zeros((ni + 1, 1 + cols.size))
    rhs[:ni, 0] = -res[ni : 2 * ni]
    rhs[ni, 0] = -res[2 * ni + 1]
    rhs[cols, 1 + np.arange(cols.size)] = n * couple[cols]
    sol = np.linalg.solve(_bordered(t, v_u - mu_i, pu, weights), rhs)
    z, y = sol[:, 0], sol[:, 1:]
    bath = _bordered(t, v_b + 2.0 * sys.g_bb * (n - 1) * pb**2 - mu_b, pb, weights)
    bath[:ni, cols] -= couple[:, None] * y[:ni]
    xb = np.linalg.solve(bath, np.append(-res[:ni] - couple * z[:ni], -res[2 * ni]))
    xu = z - y @ xb[cols]
    return xb[:ni], xu[:ni], xb[ni], xu[ni]


def _newton_polish(gp, pb, pu):
    """Newton iteration on the coupled stationarity equations `_gp_residual`
    of the GP operator gp = (sys, t, traps, weights) for the real, positive,
    parity-even orbitals pb and pu, given by their half-grid samples, with
    the norm constraints and the chemical potentials as unknowns; each update
    comes from `_newton_step`, which solves the bordered Jacobian as two
    coupled (h+1)^2 blocks and never forms it. Returns the normalized
    half-grid (b, u) of the smallest residual reached, the inputs when Newton
    does not reduce it (e.g. near-singular Jacobian); `relax_ground_state`
    gates the result against RELAX_TOL."""
    ni = pb.size
    weights = gp[3]
    both = np.concatenate([weights, weights])

    def norm(res):
        # the L2 norm of the full-grid stationarity residual
        return float(np.sqrt(both @ res[: 2 * ni] ** 2))

    (mu_b, mu_i), _ = _gp_check(*gp, pb, pu)
    res = _gp_residual(*gp, pb, pu, mu_b, mu_i)
    for _ in range(POLISH_MAX_ITERATIONS):
        rnorm = norm(res)
        if rnorm < POLISH_TARGET:
            break
        try:
            db, du, dmu_b, dmu_i = _newton_step(*gp, pb, pu, mu_b, mu_i, res)
        except np.linalg.LinAlgError:
            break
        new = (pb + db, pu + du, mu_b + dmu_b, mu_i + dmu_i)
        new_res = _gp_residual(*gp, *new)
        # a step is kept only when it cuts the residual, so the current
        # iterate is always the best one reached
        if not norm(new_res) <= 0.9 * rnorm:
            break
        (pb, pu, mu_b, mu_i), res = new, new_res
    return pb / np.sqrt(weights @ pb**2), pu / np.sqrt(weights @ pu**2)


def relax_ground_state(sys, grid):
    """Imaginary-time relaxation of the coupled bath + spin-up equations,
    finished by a Newton solve of their stationarity equations.

    Each imaginary step is the Strang step K^1/2 P K^1/2 followed by a
    normalization, with P = exp(-tau V) and K = exp(-tau T) the decay filter,
    at one tau = min(RELAX_TAU, RELAX_TAU_MU / max(mu_B, mu_I)). K^1/2 is real
    symmetric, so between two potential steps K^1/2 . normalize . K^1/2 maps
    w to K w / sqrt(dx <w, K w>): the loop applies K once per step and takes
    the norm from the same product. K^1/2 itself runs only at the start and
    at each residual check, where the normalized orbitals are read. The real
    orbitals b and u share the decay filter, so they travel as one complex
    column b + i u.

    Every stage runs in the even sector on the half grid (see the module
    docstring): the result is the parity-even ground state, exactly even, a
    saddle where an expelled impurity would sit lower off-centre.
    The relaxation stops when the GP stationarity residual (`_gp_check`)
    stops improving (it stalls at the O(tau^2) splitting bias);
    `_newton_polish` then solves the stationarity equations. A polished
    residual above RELAX_TOL raises ConvergenceError carrying the energy
    trace. The spin-down orbital of the
    returned state is the relaxed spin-up orbital, which is the bare trap
    ground state only when sys.g_bi = 0; a relax run reports the spin-down
    impurity as `grid.bare_ground_state` instead.
    Returns (MeanFieldState at time 0, RelaxResult); RelaxResult.energy is
    the pre-quench energy E0 that `mean_field_contrast` takes.
    """
    bath, imp = _initial_guess(sys, grid)
    h = half_points(grid)
    weights = half_weights(grid)
    traps = _stacked_traps(grid, sys)[1 : h + 1]
    gp = (sys, even_kinetic_matrix(grid), traps, weights)
    b = bath.values.real[1 : h + 1].copy()
    u = imp.values.real[1 : h + 1].copy()

    tau = min(RELAX_TAU, RELAX_TAU_MU / max(_gp_check(*gp, b, u)[0]))
    # one check per ~0.6 units of imaginary time so the slowest O(1) mode
    # decays noticeably between residual checks at any tau
    check_every = max(RELAX_CHECK_EVERY, int(round(0.6 / tau)))
    decay_half = np.exp(-0.5 * tau * box_wavenumbers(grid) ** 2 / 2.0)
    kin_half = even_sine_filter(grid, decay_half)
    kin = even_sine_filter(grid, decay_half**2)
    coupling = -tau * _coupling_matrix(sys)
    decay_traps = -tau * traps
    trace = []
    iterations = 0
    r_prev = np.inf
    w = np.empty(h, dtype=np.complex128)
    # float (h, 2) views of packed columns hold the parts [b, u]
    w_parts = w.view(np.float64).reshape(-1, 2)
    squares = np.empty_like(w_parts)
    decay = np.empty_like(w_parts)
    weight_col = weights[:, None]
    norms2 = np.empty(2)
    # y = K^1/2 x, x the normalized orbitals
    y = kin_half(b + 1j * u)
    y_parts = y.view(np.float64).reshape(-1, 2)
    while True:
        for _ in range(check_every):
            # w = exp(-tau (y^2 C + traps)) y, part by part
            np.square(y_parts, out=squares)
            np.matmul(squares, coupling, out=decay)
            np.add(decay, decay_traps, out=decay)
            np.exp(decay, out=decay)
            np.multiply(y_parts, decay, out=w_parts)
            y[:] = w
            kin(y)
            # the norms dx <w, K w> of the full-grid orbitals
            np.multiply(w_parts, weight_col, out=squares)
            np.vecdot(squares, y_parts, axis=0, out=norms2)
            y_parts /= np.sqrt(norms2)
        iterations += check_every
        x = kin_half(w.copy())
        b = x.real / np.sqrt(weights @ x.real**2)
        u = x.imag / np.sqrt(weights @ x.imag**2)
        trace.append(energy_breakdown(*gp, np.stack([b, u], axis=1)).total)
        resid = max(_gp_check(*gp, b, u)[1])
        # the residual stalls at the O(tau^2) splitting bias; Newton takes over
        if resid > 0.7 * r_prev:
            break
        r_prev = resid
        if iterations >= RELAX_MAX_ITERATIONS:
            raise ConvergenceError(
                f"imaginary-time relaxation did not converge in {iterations} steps",
                trace=np.asarray(trace),
            )

    b, u = _newton_polish(gp, b, u)
    orbitals = np.stack([b, u], axis=1)
    breakdown = energy_breakdown(*gp, orbitals)
    (mu_b, mu_i), (r_b, r_u) = _gp_check(*gp, b, u)
    trace.append(breakdown.total)
    if not max(r_b, r_u) <= RELAX_TOL:
        raise ConvergenceError(
            f"Newton polish left a GP stationarity residual {max(r_b, r_u):.2e} "
            f"above {RELAX_TOL:.0e}",
            trace=np.asarray(trace),
        )
    full = unfold_even(grid, orbitals.astype(np.complex128))
    up = Field(grid, full[:, 1])
    state = MeanFieldState(bath=Field(grid, full[:, 0]), up=up, down=up)
    result = RelaxResult(
        energy=breakdown.total,
        mu_bath=mu_b,
        mu_impurity=mu_i,
        breakdown=breakdown,
        iterations=iterations,
        residual_bath=r_b,
        residual_impurity=r_u,
        energy_trace=np.asarray(trace),
    )
    return state, result


@dataclass(frozen=True)
class MeanFieldTrajectory:
    """What a propagation keeps: the record times, each record's overlaps
    (<b0|b(t)>, <u0|u(t)>) with the initial bath and spin-up orbitals, one
    row per record, and the states at the first, middle and last record
    (indices 0, (n_records + 1) // 2 and n_records of the records 0..n_records,
    each kept once: two states when n_records = 1)."""

    times: np.ndarray = field(repr=False, compare=False)
    overlaps: np.ndarray = field(repr=False, compare=False)
    snapshots: tuple = field(repr=False, compare=False)


def propagate(state, sys_post, dt, t_max, record_every=100, *, observe=None):
    """Real-time propagation of the coupled equations: Strang split steps
    for the bath and spin-up orbitals, carried in the even sector as one
    (h, 2) block of their half-grid samples (see the module docstring). A
    state whose bath, spin-up or spin-down orbital is not mirror symmetric
    to the bit raises UsageError, which names its odd fraction.

    The spin-down orbital never couples to the bath and evolves linearly in
    the bare impurity trap of sys_post; it is advanced exactly in that
    trap's even stationary states on the grid (`grid.even_stationary_states`,
    one dense eigendecomposition of the even parity block per call) and
    built, on the half grid, only at record points.
    Records every record_every steps (t_max is trimmed to a whole number of
    record intervals; a t_max shorter than one interval raises
    ConfigurationError). Aborts with a step-size advisory when a norm
    drifts by more than 1e-6 or the energy by more than 1e-6 relative.

    Each record is reduced on the half-grid block as it is produced: to the
    series, with x_mean_up exactly 0.0 by parity, to its two overlaps with
    the initial orbitals, and, for the first, middle and last record, to a
    kept full-grid state. `observe(k, state)`, when given, also sees record
    k's full-grid MeanFieldState, for k = 0, 1, ... in order. Memory held
    does not grow with the number of records beyond the scalar series.

    Returns (trajectory, series) where trajectory is a MeanFieldTrajectory
    and series a dict of TimeSeries; the energy series are keyed by
    observables.ENERGY_TERMS.
    """
    n_records = record_intervals(dt, t_max, record_every)
    grid = state.bath.grid
    for name in ("bath", "up", "down"):
        orbital = getattr(state, name)
        if not is_mirror_symmetric(orbital.values):
            raise UsageError(
                f"the {name} orbital is not mirror symmetric (odd fraction "
                f"{parity_odd_fraction(orbital):.3e}); mean-field propagation "
                f"runs in the parity-even sector"
            )
    h = half_points(grid)
    weights = half_weights(grid)
    # the spin-down expansion in the half-grid rows of the even states only
    # (the orbital is even to the bit); real states, so every product is by parts
    down_energies, down_states = even_stationary_states(grid, _trap(grid, sys_post.omega_i))
    down_states = down_states[1 : h + 1].copy()  # frees the full-grid rows
    down0 = weights * state.down.values[1 : h + 1]
    down_coeffs = down0.real @ down_states + 1j * (down0.imag @ down_states)
    x2 = grid.x[1 : h + 1] ** 2
    traps = _stacked_traps(grid, sys_post)[1 : h + 1]
    gp = (sys_post, even_kinetic_matrix(grid), traps, weights)
    # -dt (|cols|^2 C + traps) from the float view of cols: its columns are
    # (Re b, Im b, Re u, Im u), so the rows of C repeat for each part
    coupling = -dt * np.repeat(_coupling_matrix(sys_post), 2, axis=0)
    phase_traps = -dt * traps
    half_step = np.exp(-1j * (0.5 * dt) * box_wavenumbers(grid) ** 2 / 2.0)
    # one symbol column per orbital: a 1-D symbol broadcast over the (h, 2)
    # block gives the same bits, but numpy runs its spectral products with an
    # inner loop of length 2, which makes the step slower
    kin_phases = np.repeat(half_step[:, None], 2, axis=1)
    kin_half = even_sine_filter(grid, kin_phases)
    kin_full = even_sine_filter(grid, kin_phases**2)

    # the half-grid samples of bath and spin-up
    cols = np.empty((h, 2), dtype=np.complex128)
    cols[:, 0] = state.bath.values[1 : h + 1]
    cols[:, 1] = state.up.values[1 : h + 1]
    initial = np.conj(cols) * weights[:, None]
    keys = ("norm_bath", "norm_up", "norm_down", *ENERGY_TERMS, "x_mean_up", "x2_up", "p2_up")
    records = {key: [] for key in keys}
    times, overlaps = [], []
    snapshot_at = sorted({0, (n_records + 1) // 2, n_records})
    kept = {}

    def record(k, t):
        amp = evolve_coefficients(down_energies, down_coeffs, t - state.time)
        down = down_states @ amp.real + 1j * (down_states @ amp.imag)
        bd = energy_breakdown(*gp, cols)
        rho_b, rho_u = (np.abs(cols) ** 2).T
        times.append(t)
        overlaps.append(tuple(np.sum(initial * cols, axis=0).tolist()))
        if k in snapshot_at or observe is not None:
            full = unfold_even(grid, np.column_stack([cols, down]))
            st = MeanFieldState(*(Field(grid, orbital) for orbital in full.T), time=t)
            if k in snapshot_at:
                kept[k] = st
            if observe is not None:
                observe(k, st)
        records["norm_bath"].append(float(weights @ rho_b))
        records["norm_up"].append(float(weights @ rho_u))
        records["norm_down"].append(float(weights @ np.abs(down) ** 2))
        for key in ENERGY_TERMS:
            records[key].append(getattr(bd, key))
        # <x> of an even orbital is zero by parity
        records["x_mean_up"].append(0.0)
        records["x2_up"].append(float(weights @ (x2 * rho_u)))
        # <p^2> = 2 <T>, which energy_breakdown has computed on this record
        records["p2_up"].append(2.0 * bd.kinetic_i)
        return bd.total

    e0 = record(0, state.time)
    t = state.time
    parts = cols.view(np.float64)
    squares = np.empty_like(parts)
    angle = np.empty(cols.shape)
    phase = np.empty_like(cols)
    for k in range(1, n_records + 1):
        # merged Strang block: K/2 (V K)^{m-1} V K/2
        kin_half(cols)
        for sub in range(record_every):
            np.square(parts, out=squares)
            np.matmul(squares, coupling, out=angle)
            np.add(angle, phase_traps, out=angle)
            # exp(i angle) by parts: cheaper than the complex exp
            np.cos(angle, out=phase.real)
            np.sin(angle, out=phase.imag)
            cols *= phase
            if sub < record_every - 1:
                kin_full(cols)
        kin_half(cols)
        t += record_every * dt
        e_now = record(k, t)
        norm_drift = max(
            abs(records["norm_bath"][-1] - 1.0),
            abs(records["norm_up"][-1] - 1.0),
            abs(records["norm_down"][-1] - 1.0),
        )
        if norm_drift > 1e-6:
            raise StepSizeError(
                f"norm drift {norm_drift:.2e} at t={t:.3f}; reduce dt",
                suggested_dt=dt / 2,
            )
        if abs(e_now - e0) > 1e-6 * max(abs(e0), 1e-12):
            raise StepSizeError(
                f"energy drift {abs(e_now - e0):.2e} at t={t:.3f}; reduce dt",
                suggested_dt=dt / 2,
            )

    dt_sample = record_every * dt
    series = {
        key: TimeSeries(state.time, dt_sample, np.asarray(vals))
        for key, vals in records.items()
    }
    trajectory = MeanFieldTrajectory(
        times=np.array(times),
        overlaps=np.array(overlaps),
        snapshots=tuple(kept[k] for k in snapshot_at),
    )
    return trajectory, series


def mean_field_contrast(times, overlaps, e0, n_bath):
    """Ramsey contrast S(t) = e^{i E0 t} <phi_B^0|phi_B(t)>^{N_B} <phi_up^0|phi_up(t)>
    from the record times and the overlaps (<phi_B^0|phi_B(t)>,
    <phi_up^0|phi_up(t)>) that `propagate` reduces each record to; E0 is the
    pre-quench energy (RelaxResult.energy). The alpha, beta reweighting is a
    separate exact identity (observables.general_weights_contrast)."""
    times = np.asarray(times)
    # Python complex arithmetic, record by record: for an exponent of 100 or
    # more numpy's complex power rounds differently from repeated squaring
    s_vals = np.array(
        [
            np.exp(1j * e0 * t) * ov_u * ov_b**n_bath
            for t, (ov_b, ov_u) in zip(times.tolist(), np.asarray(overlaps).tolist())
        ],
        dtype=np.complex128,
    )
    return TimeSeries(float(times[0]), float(times[1] - times[0]), s_vals)
