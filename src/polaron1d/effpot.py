"""Effective-potential tier: the impurity moves in the static potential
V_eff(x) = (1/2) omega^2 x^2 + g_bi * rho_bath(x) built from a frozen bath
density (Thomas-Fermi closed form, a relaxed mean-field profile, or an
externally supplied sample). Eigensolve, quench/breathing dynamics, contrast
and the m_eff fit all live here.

A relaxed or Thomas-Fermi bath is exactly even, so its potential is mirror
symmetric to the bit and the eigensolve runs as two parity blocks
(`grid.stationary_states`); a density file that is not symmetric takes one
full eigendecomposition. The contrast sums the expansion with factored
phases, one complex matrix product, without forming the samples-by-levels
array of phases.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AnalysisError,
    ConfigurationError,
    FitQualityError,
    UsageError,
)
from .grid import (
    Field,
    bare_ground_state,
    evolve_coefficients,
    kinetic_matrix,
    stationary_states,
)
from .observables import TimeSeries, dominant_frequency, record_times


@dataclass(frozen=True)
class EffectivePotential:
    grid: object
    values: np.ndarray = field(repr=False, compare=False)
    omega_trap: float = 1.0

    def curvature_at_origin(self):
        """Discrete second derivative of V_eff at x = 0."""
        x, v = self.grid.x, self.values
        i = int(np.argmin(np.abs(x)))
        if i == 0 or i >= x.size - 1:
            raise UsageError("origin not interior to the grid")
        if abs(x[i]) < 1e-12:
            return float((v[i + 1] - 2.0 * v[i] + v[i - 1]) / self.grid.dx**2)
        # even grid: nodes straddle 0 at +-dx/2; use the symmetric 4-point form
        j = i if x[i] > 0 else i + 1
        return float(
            (v[j + 1] - v[j] - v[j - 1] + v[j - 2]) / (2.0 * self.grid.dx**2)
        )

    def well_minima(self):
        """Locations of interior local minima (double-well reporting)."""
        v = self.values
        interior = (v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:])
        return self.grid.x[1:-1][interior]


def build_effective_potential(bath_density, g_bi, omega_trap=1.0):
    """V_eff = trap + g_bi * rho on the grid of `bath_density`, a Field
    holding the bath density (normalized to the particle number)."""
    if g_bi < 0:
        raise ConfigurationError("g_bi must be >= 0")
    grid = bath_density.grid
    rho = np.real(bath_density.values)
    if np.min(rho) < -1e-10:
        raise UsageError("density has negative values")
    values = 0.5 * omega_trap**2 * grid.x**2 + g_bi * np.clip(rho, 0.0, None)
    return EffectivePotential(grid=grid, values=values, omega_trap=omega_trap)


def load_density_file(path, grid):
    """Two-column (x, rho) text sample interpolated onto the grid."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ConfigurationError(f"{path}: expected two columns (x, rho)")
    x, rho = data[:, 0], data[:, 1]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(rho))):
        raise ConfigurationError(f"{path}: non-finite value in the density sample")
    order = np.argsort(x)
    x, rho = x[order], rho[order]
    if np.min(rho) < -1e-10:
        raise ConfigurationError(f"{path}: density has negative values")
    vals = np.interp(grid.x, x, np.clip(rho, 0.0, None), left=0.0, right=0.0)
    return Field(grid, vals)


@dataclass(frozen=True)
class PotentialSpectrum:
    """The lowest n_eig stationary states of a potential: `states` holds one
    real, grid-normalized state per column, shape (n_points, n_eig)."""

    energies: np.ndarray = field(repr=False, compare=False)
    states: np.ndarray = field(repr=False, compare=False)
    box_contaminated: np.ndarray = field(repr=False, compare=False)
    potential: EffectivePotential


def eigensolve(pot, n_eig=40):
    """Lowest n_eig eigenpairs of -(1/2) d^2/dx^2 + V_eff under hard walls.
    The full spectrum is solved (`grid.stationary_states`, by parity blocks
    when V_eff is mirror symmetric, so each state is then exactly even or
    odd), and only the lowest n_eig states are unfolded onto the grid and
    kept. States whose energy exceeds V_eff(+-0.9 x_max) are flagged as
    contaminated by box (wall) states."""
    if not 1 <= n_eig <= 60:
        raise ConfigurationError("n_eig must be in 1..60")
    grid = pot.grid
    energies, states = stationary_states(grid, pot.values, n_eig)
    wall = 0.9 * grid.x_max
    v_wall = min(
        float(np.interp(-wall, grid.x, pot.values)),
        float(np.interp(wall, grid.x, pot.values)),
    )
    contaminated = energies > v_wall
    return PotentialSpectrum(
        energies=energies,
        states=states,
        box_contaminated=contaminated,
        potential=pot,
    )


@dataclass(frozen=True)
class EffpotContrast:
    series: TimeSeries
    weights: np.ndarray = field(repr=False, compare=False)


def _expansion(spec, initial, tol=1e-3):
    """Overlaps <psi_n|initial> with the real states of `spec`, as two real
    matrix products, gated on a complete expansion: the weights must sum to
    1 within tol."""
    spec.potential.grid.require_same(initial.grid)
    v = initial.values
    coeffs = (v.real @ spec.states + 1j * (v.imag @ spec.states)) * initial.grid.dx
    total = float(np.sum(np.abs(coeffs) ** 2))
    if abs(1.0 - total) > tol:
        raise AnalysisError(
            f"stationary-state expansion incomplete: sum of weights {total:.9f} "
            f"is not 1 within {tol:g}; increase n_eig (now {spec.energies.size})"
        )
    return coeffs


def effpot_contrast(spec, initial=None, t_max=100.0, dt=0.05):
    """Contrast from the stationary-state expansion:
    S(t) = sum_n |<psi_n|initial>|^2 exp(-i (E_n - E_ho) t), with E_ho = omega/2
    the energy of the default initial state, the ground state of the
    potential's bare trap (frequency omega). S(0) is the sum of the weights,
    which must be 1 within 1e-6, the tolerance spectral_function demands of
    S(0).

    The phases are factored: with the sample k = b B + j, B = ceil(sqrt(n_t))
    for n_t samples, S(t_k) is entry (b, j) of the one matrix product
    (coarse * w) @ fine^T, coarse[b, n] = exp(-i e_n b B dt) and
    fine[j, n] = exp(-i e_n j dt), so about 2 sqrt(n_t) exponentials per level
    are taken instead of n_t."""
    omega = spec.potential.omega_trap
    if initial is None:
        initial = bare_ground_state(spec.potential.grid, omega)
    weights = np.abs(_expansion(spec, initial, tol=1e-6)) ** 2
    n_t = record_times(dt, t_max, 1).size
    block = math.isqrt(n_t - 1) + 1
    levels = spec.energies - 0.5 * omega
    starts = dt * (block * np.arange(-(-n_t // block)))
    coarse = np.exp(-1j * np.multiply.outer(starts, levels))
    fine = np.exp(-1j * np.multiply.outer(dt * np.arange(block), levels))
    s_vals = ((coarse * weights) @ fine.T).reshape(-1)[:n_t]
    return EffpotContrast(series=TimeSeries(0.0, dt, s_vals), weights=weights)


def stationary_moments(spec, initial, t_max, dt):
    """Evolve `initial` in the stationary states of `spec` and return the
    <x>, <x^2> and <p^2> series (keys x_mean, x2, p2). The moment matrices
    are S^T diag(f) S dx over the real grid-sampled states S; <p^2> uses the
    sine-DVR kinetic matrix."""
    coeffs = _expansion(spec, initial)
    grid = initial.grid
    s = spec.states
    moments = {
        "x_mean": s.T @ (grid.x[:, None] * s),
        "x2": s.T @ (grid.x[:, None] ** 2 * s),
        "p2": 2.0 * (s[1:-1].T @ (kinetic_matrix(grid) @ s[1:-1])),
    }
    amps = evolve_coefficients(spec.energies, coeffs, record_times(dt, t_max, 1))
    series = {}
    for key, mat in moments.items():
        vals = np.sum(np.conj(amps) * (amps @ (mat * grid.dx)), axis=1)
        series[key] = TimeSeries(0.0, dt, np.real(vals))
    return series


@dataclass(frozen=True)
class BreathingResult:
    series: dict
    omega_br: float
    initial_spectrum: PotentialSpectrum = field(repr=False, compare=False)


def breathing_run(pot_builder, omega_i_initial, omega_i_final, t_max=80.0, dt=0.02, n_eig=40):
    """Trap-frequency quench of a single particle in the effective potential.

    pot_builder(omega) must return the EffectivePotential whose trap part uses
    that frequency. The particle starts in the ground state of
    pot_builder(omega_i_initial) and evolves in pot_builder(omega_i_final);
    the breathing frequency is the dominant line of the position variance
    (the mean-position record is kept alongside). The spectrum of
    pot_builder(omega_i_initial) is returned as `initial_spectrum`.
    """
    if omega_i_initial <= 0 or omega_i_final <= 0:
        raise ConfigurationError("trap frequencies must be > 0")
    spec0 = eigensolve(pot_builder(omega_i_initial), n_eig=n_eig)
    spec1 = eigensolve(pot_builder(omega_i_final), n_eig=n_eig)
    ground = Field(spec0.potential.grid, spec0.states[:, 0])
    series = stationary_moments(spec1, ground, t_max, dt)
    x_t = series["x_mean"].values
    variance = TimeSeries(0.0, dt, series["x2"].values - x_t**2)
    omega_br, _ = dominant_frequency(variance)
    return BreathingResult(series=series, omega_br=float(omega_br), initial_spectrum=spec0)


@dataclass(frozen=True)
class EffectiveMassFit:
    m_eff: float
    omega_eff: float
    residual: float


def fit_effective_mass(x2_series, p2_series, initial_moments):
    """Joint least-squares fit of the harmonic-evolution closed forms

        <x^2>(t) = (p2_0 / (m w)^2) sin^2(wt) + x2_0 cos^2(wt)
        <p^2>(t) = p2_0 cos^2(wt) + (m w)^2 x2_0 sin^2(wt)

    for the effective inertia m_eff and trap frequency of the dressed
    impurity. The polaron self-energy is a constant offset and is not
    extractable from these series. Raises FitQualityError when the residual
    exceeds 5% of the signal amplitude (model invalid, e.g. outside the
    miscible regime).
    """
    from scipy.optimize import least_squares

    x2_0 = float(initial_moments["x2_0"])
    p2_0 = float(initial_moments["p2_0"])
    if x2_series.dt_sample != p2_series.dt_sample or x2_series.values.size != p2_series.values.size:
        raise UsageError("x2 and p2 series must share a sampling grid")
    t = x2_series.times - x2_series.t0
    x2 = np.asarray(x2_series.values, dtype=float)
    p2 = np.asarray(p2_series.values, dtype=float)

    # rough frequency seed: variance oscillates at 2 w
    om_seed, _ = dominant_frequency(x2_series)
    om_seed = max(om_seed / 2.0, 1e-3)
    if x2_series.t_max - x2_series.t0 < 3.0 * (2.0 * np.pi / om_seed) / 2.0:
        raise UsageError("series must cover at least 3 oscillation periods")

    def residuals(p):
        m_eff, om = p
        mw2 = (m_eff * om) ** 2
        rx = (p2_0 / mw2) * np.sin(om * t) ** 2 + x2_0 * np.cos(om * t) ** 2 - x2
        rp = p2_0 * np.cos(om * t) ** 2 + mw2 * x2_0 * np.sin(om * t) ** 2 - p2
        return np.concatenate([rx, rp])

    best = None
    for om0 in (om_seed, om_seed * 0.5, om_seed * 2.0):
        try:
            res = least_squares(
                residuals,
                x0=[1.0, om0],
                bounds=([1e-6, 1e-6], [np.inf, np.inf]),
            )
        except ValueError:
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise AnalysisError("m_eff fit failed to start")
    m_eff, omega_eff = best.x
    amp = 0.5 * (np.max(x2) - np.min(x2)) + 0.5 * (np.max(p2) - np.min(p2))
    rms = float(np.sqrt(np.mean(residuals(best.x) ** 2)))
    rel = rms / max(amp, 1e-300)
    if rel > 0.05:
        raise FitQualityError(
            f"harmonic model residual {rel:.1%} of the signal amplitude "
            f"(> 5%); fit invalid",
            residual=rel,
        )
    return EffectiveMassFit(m_eff=float(m_eff), omega_eff=float(omega_eff), residual=rel)
