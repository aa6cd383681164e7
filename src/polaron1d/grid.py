"""Hard-wall spatial grid, fields, quadrature and the sine-spectral kinetic
operator shared by every solver tier.

Units: hbar = m = omega_trap = 1 throughout. The grid is node-centered and
includes both wall points x = -x_max and x = +x_max; fields are forced to
zero there (sine-DVR semantics), which makes the sine-spectral kinetic
operator exact for hard-wall boundary conditions.

A sine-spectral operator S diag(sigma) S, with S the orthonormal DST-I on the
n interior points, has entries g(i - j) - g(i + j), where g is one DCT-I of
the zero-padded symbol sigma: a Toeplitz minus a Hankel matrix.
`kinetic_matrix` is that matrix for sigma = k^2/2 (`_sine_kernel`).

Every field a solver filters by FFT is parity even (the impurity sits at the
centre of a mirror-symmetric trap), so there is one FFT filter,
`even_sine_filter`: folded onto the h = ceil(n/2) interior samples with
x <= 0 (`half_points`), the operator is Toeplitz minus Hankel again, with
the even kernel G(m) = g(m) - g(n + 1 - m), on one FFT of length
next_fast_len(2h - 1) (448 on the 450-point reference grid, where a DST-I
pair would need 2(n + 1) = 898). `even_kinetic_matrix` is its dense kinetic
matrix, `unfold_even` restores the full-grid samples and `half_weights`
gives the full-grid norm. `kinetic_apply`, the dense full-grid product, has
no caller in the package; it remains only because the benchmark's tracer
keys two per-layer metrics on it.

`stationary_states` solves -(1/2) d^2/dx^2 + V on the same grid for its full
spectrum and unfolds only the lowest states a caller keeps. A V that is
mirror symmetric to the bit is solved as two half-size parity blocks, read
straight off the sine kernel's Toeplitz and Hankel views (`_parity_blocks`);
any other V still gets the n x n matrix. `even_stationary_states` solves the
even block alone, and `evolve_coefficients` evolves a state's expansion in
it; the effective-potential tier evolves states this way in the full
spectrum, the exactly even mean-field spin-down branch in the even states.

The transforms are numpy.fft's. The DCT-I is the rfft of the even extension,
and the spectrum of a real kernel is its rfft with the Hermitian half filled
in, which gives the same bits as scipy.fft's real-input transforms.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, UsageError


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-x_max, x_max], both endpoints included."""

    n_points: int
    x_max: float
    x: np.ndarray = field(repr=False, compare=False)
    dx: float

    def require_same(self, other):
        if (self.n_points, self.x_max) != (other.n_points, other.x_max):
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


def parity_odd_fraction(f):
    """||f - J f|| / (2 ||f||), J the mirror x -> -x: the norm of the odd
    part of f relative to f (0 for an even field, 1 for an odd one)."""
    v = f.values
    return float(np.linalg.norm(v - v[::-1]) / (2.0 * np.linalg.norm(v)))


def box_wavenumbers(grid):
    """Hard-wall mode wavenumbers k_j = j*pi/(2 x_max), j = 1..n_interior."""
    m = grid.n_points - 2
    return np.arange(1, m + 1) * np.pi / (2.0 * grid.x_max)


def next_fast_len(target):
    """The smallest 2-3-5-7-11-smooth integer >= target: a length numpy's
    FFT factors into small radices (scipy.fft's rule for complex input)."""
    n = max(int(target), 1)
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _dct1(x):
    """Unnormalized DCT-I along axis 0: the rfft of the even extension
    x_0..x_{N-1}, x_{N-2}..x_1, real and imaginary parts taken separately."""
    if np.iscomplexobj(x):
        return _dct1(x.real) + 1j * _dct1(x.imag)
    ext = np.concatenate([x, x[-2:0:-1]])
    return np.fft.rfft(ext, axis=0).real


def _real_fft(x):
    """FFT along axis 0 of a real array, as the rfft plus its Hermitian half."""
    size = x.shape[0]
    half = np.fft.rfft(x, axis=0)
    out = np.empty((size,) + x.shape[1:], dtype=np.complex128)
    out[: half.shape[0]] = half
    out[half.shape[0] :] = np.conj(half[1 : (size + 1) // 2][::-1])
    return out


def _sine_kernel(n, symbol):
    """g(m) = (1/(n+1)) sum_k symbol_k cos(pi k m/(n+1)) over one period,
    m = 0..2n+1, along axis 0 (one DCT-I of the zero-padded symbol, mirrored
    about m = n+1)."""
    padded = np.zeros((n + 2,) + symbol.shape[1:], dtype=symbol.dtype)
    padded[1:-1] = symbol
    half = _dct1(padded) / (2.0 * (n + 1))
    return np.concatenate([half, half[-2:0:-1]])


def half_points(grid):
    """h = ceil(n/2), the number of interior points with x <= 0 (n interior
    points in all): the samples that carry a parity-even field."""
    return (grid.n_points - 1) // 2


def half_weights(grid):
    """Quadrature weights of the half-grid samples of an even field:
    sum_i w_i f_i^2 over the h = `half_points` samples is the full-grid
    sum f^2 dx (2 dx per mirrored pair, dx for the centre point of an odd
    number of interior points)."""
    w = np.full(half_points(grid), 2.0 * grid.dx)
    if grid.n_points % 2:
        w[-1] = grid.dx
    return w


def unfold_even(grid, half):
    """The full-grid samples (zero at the walls) of the even field whose
    first h interior samples are the rows of `half`: exactly mirror
    symmetric, bit for bit."""
    h, n = half.shape[0], grid.n_points - 2
    out = np.zeros((grid.n_points,) + half.shape[1:], dtype=half.dtype)
    out[1 : h + 1] = half
    out[h + 1 : -1] = half[: n - h][::-1]
    return out


def _even_kernel(n, symbol):
    """G(m) = g(m) - g(N - m), N = n + 1, over one period m = 0..2N-1, g the
    kernel `_sine_kernel(n, symbol)`: the kernel of the sine-spectral
    operator on even fields. g(N - m) is g(m) with the sign of every even
    mode flipped, so G is twice the sine kernel of the symbol's odd modes,
    the only ones an even field carries; it is computed that way, without
    the cancellation of the difference (the norm of a long real-time
    propagation then drifts less)."""
    odd = np.array(symbol)
    odd[1::2] = 0.0
    return 2.0 * _sine_kernel(n, odd)


def even_sine_filter(grid, symbol):
    """S diag(symbol) S on parity-even fields, carried by their first h
    interior samples (`half_points`): a function that overwrites an (h,) or
    (h, n_cols) block in place and returns it. `symbol` has shape
    (n_interior,), or (n_interior, n_cols) to give each column its own taps.

    An even field has c_{N-j} = c_j, N = n + 1, so the full operator folds
    into y_i = sum_j w_j [G(i - j) - G(i + j)] c_j on h points, with G the
    `_even_kernel` and w_j = 1, except 1/2 for the centre point of an odd n
    (its own mirror image). Both parts are circular convolutions of length
    L = next_fast_len(2h - 1), which holds their 2h - 1 lags: the Toeplitz
    taps G(m), m = 1-h..h-1, sit at slot m mod L, and the Hankel part is the
    same convolution of the reversed column with taps G(m + h + 1). The
    reversed column's spectrum is w^((h-1)k) C[-k mod L], w = exp(-2 pi i/L),
    C the column's own spectrum, so the phase is folded into the Hankel
    spectrum once and each call is one forward FFT, two spectral products
    read from C and its frequency reversal, a subtraction and one inverse FFT.
    """
    n, size = grid.n_points - 2, half_points(grid)
    kernel = _even_kernel(n, np.asarray(symbol))
    fft_size = next_fast_len(2 * size - 1)
    lags = np.arange(1 - size, size)
    slots, period = lags % fft_size, kernel.shape[0]
    toeplitz = np.zeros((fft_size,) + kernel.shape[1:], dtype=kernel.dtype)
    hankel = np.zeros_like(toeplitz)
    toeplitz[slots] = kernel[lags % period]
    hankel[slots] = kernel[(lags + size + 1) % period]
    toeplitz, hankel = (
        np.fft.fft(taps, axis=0) if np.iscomplexobj(taps) else _real_fft(taps)
        for taps in (toeplitz, hankel)
    )
    # the integer product (h-1)k is reduced mod L before the exponential
    shift = np.exp(-2j * np.pi * ((size - 1) * np.arange(fft_size) % fft_size) / fft_size)
    hankel *= shift.reshape((fft_size,) + (1,) * (hankel.ndim - 1))
    ext = np.zeros((fft_size,) + kernel.shape[1:], dtype=np.complex128)
    fwd = np.empty_like(ext)
    rev = np.empty_like(ext)
    negated = -np.arange(fft_size)

    def apply(cols):
        ext[:size] = cols
        if n % 2:
            ext[size - 1] *= 0.5
        np.fft.fft(ext, axis=0, out=fwd)
        # rev = C[-k mod L]: a gather into a contiguous buffer is cheaper
        # than multiplying through a row-reversed view of an (L, n_cols) block
        np.take(fwd, negated, axis=0, out=rev, mode="wrap")
        np.multiply(rev, hankel, out=rev)
        np.multiply(fwd, toeplitz, out=fwd)
        np.subtract(fwd, rev, out=fwd)
        out = np.fft.ifft(fwd, axis=0, out=fwd)[:size]
        cols[...] = out if np.iscomplexobj(cols) else out.real
        return cols

    return apply


def _kinetic_symbol(grid):
    return box_wavenumbers(grid) ** 2 / 2.0


def _toeplitz_hankel(size, kernel):
    """The Toeplitz part [K(i - j)] and the Hankel part [K(i + j)], i, j =
    1..size, of an even kernel K, as read-only views: no size x size array
    is allocated."""
    # the rows of the Toeplitz part K(|i - j|) are windows of K(|m|),
    # m = 1-size..size-1, taken in reverse order; the rows of the Hankel
    # part K(i + j) are windows of K(m), m = 2..2 size
    windows = np.lib.stride_tricks.sliding_window_view
    toeplitz = windows(np.concatenate([kernel[size - 1 : 0 : -1], kernel[:size]]), size)[::-1]
    return toeplitz, windows(kernel[2 : 2 * size + 1], size)


def kinetic_matrix(grid):
    """Dense sine-DVR matrix S diag(k^2/2) S of -(1/2) d^2/dx^2 on the
    interior points, S the orthonormal DST-I and k the `box_wavenumbers`."""
    n = grid.n_points - 2
    toeplitz, hankel = _toeplitz_hankel(n, _sine_kernel(n, _kinetic_symbol(grid)))
    return toeplitz - hankel


def kinetic_apply(f):
    """-(1/2) d^2/dx^2 under hard-wall (sine-DVR) semantics, as the dense
    product with `kinetic_matrix` on the interior points. No solver calls it:
    it stays public because the benchmark's tracer (perfbench/spans.py) keys
    two per-layer metrics on it."""
    values = np.zeros_like(f.values)
    values[1:-1] = kinetic_matrix(f.grid) @ f.values[1:-1]
    return Field(f.grid, values)


def even_kinetic_matrix(grid):
    """Dense matrix of -(1/2) d^2/dx^2 on parity-even fields, acting on their
    first h interior samples (`half_points`), built from the even kernel as
    `kinetic_matrix` is from the sine kernel: for an even f,
    even_kinetic_matrix(grid) @ f.values[1:h+1] is the first h rows of
    kinetic_matrix(grid) @ f.values[1:-1]. For an odd n the centre column carries
    weight 1/2 (`even_sine_filter`); conjugated by diag(1, ..., 1, 1/sqrt(2))
    it is the symmetric even block of `kinetic_matrix`."""
    n = grid.n_points - 2
    toeplitz, hankel = _toeplitz_hankel(half_points(grid), _even_kernel(n, _kinetic_symbol(grid)))
    block = toeplitz - hankel
    if n % 2:
        block[:, -1] *= 0.5
    return block


def bare_ground_state(grid, omega=1.0):
    """Gaussian ground state (omega/pi)^(1/4) exp(-omega x^2/2) of the bare
    trap of frequency omega, normalized on the grid."""
    vals = (omega / np.pi) ** 0.25 * np.exp(-0.5 * omega * grid.x**2)
    return Field(grid, vals.astype(np.complex128)).normalized()


def is_mirror_symmetric(values):
    """Whether grid samples are exactly even under x -> -x, bit for bit (the
    grid itself is symmetric to the ulp, `build_grid`)."""
    return bool(np.array_equal(values, values[::-1]))


def _parity_blocks(grid, potential):
    """The even block h11 + h12 J and the odd block h11 - h12 J of h =
    kinetic_matrix(grid) + diag(V[1:-1]), which commutes with the mirror J
    when `potential` (V on every grid point) is mirror symmetric, on the first
    k = n // 2 of the n interior points; for an odd n the centre point joins
    the even block, coupled to the half by sqrt(2) h[i, c].

    Every entry is read off the half-size corners of the sine kernel's
    Toeplitz and Hankel views with the float operations that form and fold h
    (Toeplitz minus Hankel, V added on the diagonal of h11, then h11 plus or
    minus h12 J), so the blocks are the bits of that fold and no n x n array
    is allocated."""
    n = grid.n_points - 2
    k = n // 2
    toeplitz, hankel = _toeplitz_hankel(n, _sine_kernel(n, _kinetic_symbol(grid)))
    even = np.empty((n - k, n - k))
    # h12 J, h's first k rows in its last k columns reversed (none of them on
    # h's diagonal), is formed in the even block's corner and h11 added to it
    far = even[:k, :k]
    np.subtract(toeplitz[:k, n - k :][:, ::-1], hankel[:k, n - k :][:, ::-1], out=far)
    near = toeplitz[:k, :k] - hankel[:k, :k]
    near[np.diag_indices(k)] += potential[1 : k + 1]
    odd = near - far
    far += near
    if n % 2:
        even[:k, k] = even[k, :k] = np.sqrt(2.0) * (toeplitz[:k, k] - hankel[:k, k])
        even[k, k] = toeplitz[k, k] - hankel[k, k] + potential[k + 1]
    return even, odd


def _unfold_even_vectors(a_even, m, out, cols):
    """Write the full-size unit vectors of even-block eigenvectors (the
    columns of a_even) to the columns `cols` of `out` (m rows, zeros)."""
    k = m // 2
    half = np.sqrt(0.5) * a_even[:k]
    out[:k, cols] = half
    out[m - k :, cols] = half[::-1]
    if m % 2:
        out[k, cols] = a_even[k]


def _parity_eigh(even, odd, out):
    """Eigenvalues, ascending, of a real symmetric matrix that commutes with
    the mirror J, from its even and odd blocks (`_parity_blocks`). The unit
    eigenvectors of the lowest out.shape[1] states, exactly even or odd, are
    written in the same order to the columns of `out`, which must hold
    zeros; no other state is unfolded."""
    k = odd.shape[0]
    m = even.shape[0] + k
    e_even, a_even = np.linalg.eigh(even)
    e_odd, a_odd = np.linalg.eigh(odd)
    energies = np.concatenate([e_even, e_odd])
    order = np.argsort(energies, kind="stable")
    # the column of each even, then each odd, state in ascending order
    col = np.empty(m, dtype=np.intp)
    col[order] = np.arange(m)
    even_col, odd_col = col[: m - k], col[m - k :]
    keep = even_col < out.shape[1]
    _unfold_even_vectors(a_even[:, keep], m, out, even_col[keep])
    keep = odd_col < out.shape[1]
    half = np.sqrt(0.5) * a_odd[:, keep]
    out[:k, odd_col[keep]] = half
    out[m - k :, odd_col[keep]] = -half[::-1]
    return energies[order]


def _grid_states(grid, states, energies):
    """Eigenvectors of the interior points as grid-normalized states, with the
    first sizable entry of each positive."""
    states /= np.sqrt(grid.dx)
    # deterministic sign: first sizable entry positive (|s| > cut, tested as
    # s > cut or s < -cut)
    cut = 1e-8 * np.maximum(states.max(axis=0), -states.min(axis=0))
    lead = np.argmax((states > cut) | (states < -cut), axis=0)
    states *= np.where(states[lead, np.arange(energies.size)] < 0, -1.0, 1.0)
    return energies, states


def stationary_states(grid, potential, n_states=None):
    """The lowest n_states stationary states (all n_points - 2 of them by
    default) of -(1/2) d^2/dx^2 + V under hard walls, the eigenpairs of
    kinetic_matrix(grid) + diag(V[1:-1]), where `potential` holds V on every
    grid point.

    The kinetic matrix commutes with the mirror x -> -x, so a potential that
    does too (`is_mirror_symmetric`) is solved as two half-size parity blocks
    read straight off the sine kernel (`_parity_blocks`), which together cost
    about a third of one full `eigh` on the 450-point grid and never form the
    n x n matrix; its states come out exactly even or odd. Any other
    potential takes one full `eigh` of the n x n matrix. Every eigenpair is
    solved either way, but only the kept states are unfolded onto the grid,
    written into the returned array in place, so no (n_points, n_interior)
    array is held for fewer states. The kept states are the same bits as the
    leading columns of the full set. n_states outside 1..n_points - 2 raises
    UsageError.

    Returns (energies, states): the n_states lowest energies in ascending
    order and their states as the columns of one real (n_points, n_states)
    array, zero at the walls, normalized on the grid (sum psi^2 dx = 1), with
    the first sizable entry of each state positive.
    """
    n = grid.n_points - 2
    n_states = n if n_states is None else n_states
    if not 1 <= n_states <= n:
        raise UsageError(
            f"n_states must be in 1..{n} on a {grid.n_points}-point grid, got {n_states}"
        )
    states = np.zeros((grid.n_points, n_states))
    if is_mirror_symmetric(potential):
        energies = _parity_eigh(*_parity_blocks(grid, potential), states[1:-1])
    else:
        h = kinetic_matrix(grid)
        h[np.diag_indices_from(h)] += potential[1:-1]
        energies, vectors = np.linalg.eigh(h)
        states[1:-1] = vectors[:, :n_states]
    return _grid_states(grid, states, energies[:n_states])


def even_stationary_states(grid, potential):
    """The even stationary states of a mirror-symmetric potential, from the
    even parity block alone (`_parity_blocks`): the energies, ascending, and
    the states, the same bits as the even columns of `stationary_states`. A
    state that is exactly even has no weight on the odd ones, so this is its
    whole expansion. A potential that is not mirror symmetric to the bit
    raises UsageError."""
    if not is_mirror_symmetric(potential):
        raise UsageError("even stationary states need a mirror-symmetric potential")
    energies, a_even = np.linalg.eigh(_parity_blocks(grid, potential)[0])
    states = np.zeros((grid.n_points, energies.size))
    _unfold_even_vectors(a_even, grid.n_points - 2, states[1:-1], slice(None))
    return _grid_states(grid, states, energies)


def evolve_coefficients(energies, coeffs, times):
    """Coefficients exp(-i E_n t) c_n of a stationary-state expansion evolved
    for a time t, or for each of an array of times (one row per time)."""
    return np.exp(-1j * np.multiply.outer(times, energies)) * coeffs


@dataclass(frozen=True)
class HOBasis:
    """The lowest n_modes eigenfunctions of the unit-frequency harmonic trap,
    sampled on the grid. mode_functions has shape (n_modes, n_points)."""

    grid: Grid
    n_modes: int
    mode_functions: np.ndarray = field(repr=False, compare=False)


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
    return HOBasis(grid=grid, n_modes=n_modes, mode_functions=modes)
