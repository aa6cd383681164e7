"""Hard-wall spatial grid, fields, quadrature and the sine-spectral kinetic
operator shared by every solver tier.

Units: hbar = m = omega_trap = 1 throughout. The grid is node-centered and
includes both wall points x = -x_max and x = +x_max; fields are forced to
zero there (sine-DVR semantics), which makes the sine-spectral kinetic
operator exact for hard-wall boundary conditions.

A sine-spectral operator S diag(sigma) S, with S the orthonormal DST-I on the
n interior points, has entries g(i - j) - g(i + j), where g is one DCT-I of
the zero-padded symbol sigma. Applied to a column it is the circular
convolution of the column's odd extension with g. `sine_filter` runs that
convolution on an FFT of length next_fast_len(3n + 1) (1350 on the 450-point
reference grid), so a prime n + 1 (449 there) costs nothing extra, where a
DST-I pair would run on an FFT of size 2(n + 1).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct, fft, ifft, next_fast_len

from .errors import ConfigurationError, UsageError

REFERENCE_N_POINTS = 450
REFERENCE_X_MAX = 40.0


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-x_max, x_max], both endpoints included."""

    n_points: int
    x_max: float
    x: np.ndarray = field(repr=False, compare=False)
    dx: float

    @property
    def is_reference_grid(self):
        """True when the library's reference resolution (450 points, half-width 40) is in use."""
        return self.n_points == REFERENCE_N_POINTS and self.x_max == REFERENCE_X_MAX

    def same_as(self, other):
        return self.n_points == other.n_points and self.x_max == other.x_max

    def require_same(self, other):
        if not self.same_as(other):
            raise UsageError(
                f"grid mismatch: ({self.n_points}, {self.x_max}) vs "
                f"({other.n_points}, {other.x_max})"
            )


def build_grid(n_points, x_max):
    if n_points < 16:
        raise ConfigurationError(f"n_points must be >= 16, got {n_points}")
    if x_max <= 0:
        raise ConfigurationError(f"x_max must be > 0, got {x_max}")
    n_points = int(n_points)
    dx = 2.0 * x_max / (n_points - 1)
    # (i - (n-1)/2)*dx is symmetric to the ulp and hits 0.0 exactly for odd n
    x = (np.arange(n_points) - (n_points - 1) / 2.0) * dx
    return Grid(n_points=n_points, x_max=float(x_max), x=x, dx=dx)


@dataclass(frozen=True)
class Field:
    """Samples of a wavefunction or density on a Grid. Endpoint values are
    zeroed on construction (hard wall). Treated as immutable."""

    grid: Grid
    values: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n_points,):
            raise UsageError(
                f"field has {v.shape} values for a {self.grid.n_points}-point grid"
            )
        v = v.copy()
        v[0] = 0.0
        v[-1] = 0.0
        object.__setattr__(self, "values", v)

    def norm2(self):
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx)

    def normalized(self):
        n2 = self.norm2()
        if n2 <= 0.0:
            raise UsageError("cannot normalize a zero field")
        return Field(self.grid, self.values / np.sqrt(n2))

    def density(self, n_particles=1.0):
        """One-body density n_particles * |psi|^2 as a real Field."""
        return Field(self.grid, n_particles * np.abs(self.values) ** 2)


def inner(f, g):
    """Riemann-sum inner product sum(conj(f) g) dx (endpoints carry zero field)."""
    f.grid.require_same(g.grid)
    return complex(np.sum(np.conj(f.values) * g.values) * f.grid.dx)


def expectation_x(f):
    return float(np.real(np.sum(np.abs(f.values) ** 2 * f.grid.x) * f.grid.dx))


def expectation_x2(f):
    return float(np.real(np.sum(np.abs(f.values) ** 2 * f.grid.x**2) * f.grid.dx))


def box_wavenumbers(grid):
    """Hard-wall mode wavenumbers k_j = j*pi/(2 x_max), j = 1..n_interior."""
    m = grid.n_points - 2
    return np.arange(1, m + 1) * np.pi / (2.0 * grid.x_max)


def _sine_kernel(n, symbol):
    """g(m) = (1/(n+1)) sum_k symbol_k cos(pi k m/(n+1)) over one period,
    m = 0..2n+1, along axis 0 (one DCT-I of the zero-padded symbol, mirrored
    about m = n+1)."""
    padded = np.zeros((n + 2,) + symbol.shape[1:], dtype=symbol.dtype)
    padded[1:-1] = symbol
    half = dct(padded, type=1, axis=0) / (2.0 * (n + 1))
    return np.concatenate([half, half[-2:0:-1]])


def sine_filter(grid, symbol):
    """The operator S diag(symbol) S on the interior points, S the orthonormal
    DST-I, as a function that overwrites the interior rows of a column block
    in place (wall rows untouched) and returns the block.

    `symbol` has shape (n_interior,) for a single field or
    (n_interior, n_cols) for an (n_points, n_cols) block, so each column can
    carry its own mass. The kernel spectrum is built here, once; each call
    is one forward and one inverse FFT of the odd extension.
    """
    symbol = np.asarray(symbol)
    n = grid.n_points - 2
    g = _sine_kernel(n, symbol)
    size = next_fast_len(3 * n + 1)
    # interior rows i = 1..n meet odd-extension slots j = -n..n, so i - j runs
    # over 3n values, all distinct modulo size: no wrap-around
    m = np.arange(1 - n, 2 * n + 1)
    taps = np.zeros((size,) + symbol.shape[1:], dtype=g.dtype)
    taps[m % size] = g[m % g.shape[0]]
    spectrum = fft(taps, axis=0)
    ext = np.zeros((size,) + symbol.shape[1:], dtype=np.complex128)

    def apply(cols):
        ext[1 : n + 1] = cols[1:-1]
        ext[size - n :] = -cols[-2:0:-1]
        out = fft(ext, axis=0)
        out *= spectrum
        out = ifft(out, axis=0, overwrite_x=True)[1 : n + 1]
        cols[1:-1] = out if np.iscomplexobj(cols) else out.real
        return cols

    return apply


def _kinetic_symbol(grid, mass):
    return box_wavenumbers(grid) ** 2 / (2.0 * mass)


def kinetic_apply(f, mass=1.0):
    """-(1/2 mass) d^2/dx^2 under hard-wall (sine-spectral) semantics."""
    values = sine_filter(f.grid, _kinetic_symbol(f.grid, mass))(f.values.copy())
    return Field(f.grid, values)


def kinetic_matrix(grid, mass=1.0):
    """Dense sine-DVR matrix of -(1/2 mass) d^2/dx^2 on the interior points:
    kinetic_matrix(grid) @ f.values[1:-1] is kinetic_apply(f).values[1:-1]."""
    n = grid.n_points - 2
    g = _sine_kernel(n, _kinetic_symbol(grid, mass))
    i = np.arange(1, n + 1)
    return g[np.abs(i[:, None] - i)] - g[i[:, None] + i]


def kinetic_expectation(f, mass=1.0):
    return float(np.real(inner(f, kinetic_apply(f, mass=mass))))


def expectation_p2(f, mass=1.0):
    """<p^2> = 2 m <T>."""
    return 2.0 * mass * kinetic_expectation(f, mass=mass)


def kinetic_phase_factors(grid, dt, mass=1.0):
    """exp(-i dt k^2 / 2 mass) on the interior sine modes (split-step use)."""
    k = box_wavenumbers(grid)
    return np.exp(-1j * dt * k**2 / (2.0 * mass))


@dataclass(frozen=True)
class SpinorImpurityState:
    """Spin-up/down impurity orbitals with superposition weights alpha, beta."""

    up: Field
    down: Field
    alpha: float
    beta: float

    def __post_init__(self):
        self.up.grid.require_same(self.down.grid)
        if abs(self.alpha**2 + self.beta**2 - 1.0) > 1e-10:
            raise ConfigurationError(
                f"spinor weights must satisfy alpha^2+beta^2=1, got "
                f"{self.alpha**2 + self.beta**2}"
            )


@dataclass(frozen=True)
class HOBasis:
    """The lowest n_modes eigenfunctions of the unit-frequency harmonic trap,
    sampled on the grid. mode_functions has shape (n_modes, n_points)."""

    grid: Grid
    n_modes: int
    mode_functions: np.ndarray = field(repr=False, compare=False)
    mode_energies: np.ndarray = field(repr=False, compare=False)


def hermite_functions(x, n_modes):
    """Stable three-term recurrence on Hermite functions (not polynomials):
    h_{n+1} = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_{n-1}."""
    out = np.zeros((n_modes, x.size))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x**2)
    if n_modes > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_modes - 1):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[n] - np.sqrt(
            n / (n + 1.0)
        ) * out[n - 1]
    return out


def ho_mode_basis(grid, n_modes):
    if n_modes < 1 or n_modes > 40:
        raise ConfigurationError(f"n_modes must be in 1..40, got {n_modes}")
    modes = hermite_functions(grid.x, n_modes)
    edge = max(abs(modes[n_modes - 1, 0]), abs(modes[n_modes - 1, -1]))
    if edge >= 1e-8:
        # classical turning point sqrt(2n+1) plus a heuristic decay margin
        needed = np.sqrt(2.0 * n_modes + 1.0) + 4.0
        raise ConfigurationError(
            f"grid too narrow for {n_modes} oscillator modes: mode {n_modes - 1} "
            f"has amplitude {edge:.2e} at the wall; need x_max >= ~{needed:.1f}"
        )
    modes[:, 0] = 0.0
    modes[:, -1] = 0.0
    energies = np.arange(n_modes) + 0.5
    return HOBasis(grid=grid, n_modes=n_modes, mode_functions=modes, mode_energies=energies)


def mode_field(basis, n):
    return Field(basis.grid, basis.mode_functions[n].astype(np.complex128))
