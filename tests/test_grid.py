import numpy as np
import pytest
import scipy.fft
from scipy.fft import dst, idst

from polaron1d import meanfield as mf
from polaron1d.errors import ConfigurationError, UsageError
from polaron1d.grid import (
    Field,
    _dct1,
    _kinetic_symbol,
    _real_fft,
    _sine_kernel,
    bare_ground_state,
    box_wavenumbers,
    build_grid,
    even_kinetic_matrix,
    even_sine_filter,
    half_points,
    half_weights,
    ho_mode_basis,
    inner,
    is_mirror_symmetric,
    kinetic_apply,
    kinetic_expectation,
    kinetic_matrix,
    next_fast_len,
    parity_odd_fraction,
    sine_filter,
    stationary_states,
    unfold_even,
)


def mode_field(basis, n):
    return Field(basis.grid, basis.mode_functions[n].astype(np.complex128))


def test_build_grid_reference_spacing():
    g = build_grid(450, 40.0)
    assert g.dx == pytest.approx(80.0 / 449.0, rel=1e-15)


def test_build_grid_rejects_small():
    with pytest.raises(ConfigurationError):
        build_grid(3, 1.0)
    with pytest.raises(ConfigurationError):
        build_grid(100, 0.0)


def test_grid_symmetric_and_contains_zero_when_odd():
    g = build_grid(201, 10.0)
    assert 0.0 in g.x
    assert np.array_equal(g.x, -g.x[::-1])
    g2 = build_grid(450, 40.0)
    assert np.array_equal(g2.x, -g2.x[::-1])


def test_field_endpoints_zeroed(grid):
    f = Field(grid, np.ones(grid.n_points, dtype=complex))
    assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_ho_mode_ground_state_value(odd_grid):
    b = ho_mode_basis(odd_grid, 4)
    i0 = int(np.argmin(np.abs(odd_grid.x)))
    assert odd_grid.x[i0] == 0.0
    assert b.mode_functions[0, i0] == pytest.approx(np.pi ** -0.25, rel=1e-12)


def test_ho_mode_energies(grid):
    b = ho_mode_basis(grid, 4)
    assert np.allclose(b.mode_energies, [0.5, 1.5, 2.5, 3.5])


def test_ho_modes_orthonormal(grid):
    b = ho_mode_basis(grid, 40)
    overlaps = b.mode_functions @ b.mode_functions.T * grid.dx
    assert np.max(np.abs(overlaps - np.eye(40))) < 1e-10


def test_ho_modes_parity_overlap(grid):
    b = ho_mode_basis(grid, 2)
    f0, f1 = mode_field(b, 0), mode_field(b, 1)
    assert abs(inner(f0, f1)) < 1e-12


def test_ho_basis_rejects_narrow_grid():
    g = build_grid(100, 6.0)
    with pytest.raises(ConfigurationError, match="x_max"):
        ho_mode_basis(g, 40)


def test_inner_products(grid):
    b = ho_mode_basis(grid, 2)
    f0 = mode_field(b, 0)
    assert inner(f0, f0).real == pytest.approx(1.0, abs=1e-10)


def test_inner_sesquilinear(grid, rng):
    b = ho_mode_basis(grid, 6)
    c1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    c2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f = Field(grid, c1 @ b.mode_functions)
    g = Field(grid, c2 @ b.mode_functions)
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)), abs=1e-12)


def test_inner_grid_mismatch():
    g1, g2 = build_grid(100, 10.0), build_grid(120, 10.0)
    f1 = Field(g1, np.ones(100, dtype=complex))
    f2 = Field(g2, np.ones(120, dtype=complex))
    with pytest.raises(UsageError):
        inner(f1, f2)


def test_kinetic_on_ho_ground_state(grid):
    b = ho_mode_basis(grid, 1)
    f0 = mode_field(b, 0)
    # harmonic-oscillator virial: <T> = E/2 = 0.25
    assert kinetic_expectation(f0) == pytest.approx(0.25, abs=1e-6)


def test_kinetic_box_mode_eigenfunction(grid):
    xm = grid.x_max
    f = Field(grid, np.sin(np.pi * (grid.x + xm) / (2 * xm)).astype(complex))
    tf = kinetic_apply(f)
    ratio = tf.values[1:-1] / f.values[1:-1]
    assert np.allclose(ratio, np.pi**2 / (8 * xm**2), rtol=1e-9)


def test_kinetic_linearity(grid, rng):
    b = ho_mode_basis(grid, 8)
    f = Field(grid, (rng.standard_normal(8) + 1j * rng.standard_normal(8)) @ b.mode_functions)
    g = Field(grid, (rng.standard_normal(8) + 1j * rng.standard_normal(8)) @ b.mode_functions)
    lhs = kinetic_apply(Field(grid, 2.0 * f.values + 3j * g.values))
    rhs = 2.0 * kinetic_apply(f).values + 3j * kinetic_apply(g).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12


def test_kinetic_symmetric(grid, rng):
    b = ho_mode_basis(grid, 12)
    for _ in range(3):
        f = Field(grid, (rng.standard_normal(12) + 1j * rng.standard_normal(12)) @ b.mode_functions)
        g = Field(grid, (rng.standard_normal(12) + 1j * rng.standard_normal(12)) @ b.mode_functions)
        assert inner(f, kinetic_apply(g)) == pytest.approx(
            np.conj(inner(g, kinetic_apply(f))), abs=1e-10
        )


def test_kinetic_matrix_matches_kinetic_apply(grid):
    rng = np.random.default_rng(11)  # local: the shared rng fixture feeds other tests
    f = Field(grid, rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points))
    ref = kinetic_apply(f).values[1:-1]
    out = kinetic_matrix(grid) @ f.values[1:-1]
    assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_points", [16, 450, 451])
def test_kinetic_matrix_equals_the_index_formula(n_points):
    # the windowed Toeplitz minus Hankel reads the same taps as the gathers
    # g[|i - j|] - g[i + j], i, j = 1..n, so the entries agree exactly
    grid = build_grid(n_points, 40.0)
    n = n_points - 2
    g = _sine_kernel(n, _kinetic_symbol(grid))
    i = np.arange(1, n + 1)
    assert np.array_equal(kinetic_matrix(grid), g[np.abs(i[:, None] - i)] - g[i[:, None] + i])


def test_stationary_states_of_the_bare_trap(grid):
    energies, states = stationary_states(grid, 0.5 * 0.7**2 * grid.x**2)
    assert states.shape == (grid.n_points, grid.n_points - 2)
    assert np.all(np.diff(energies) > 0)
    assert np.allclose(energies[:10], 0.7 * (np.arange(10) + 0.5), rtol=0, atol=1e-10)
    assert not np.any(states[[0, -1]])
    assert np.allclose(states.T @ states * grid.dx, np.eye(energies.size), rtol=0, atol=1e-12)
    # sign rule: the first sizable entry of every state is positive
    lead = np.argmax(np.abs(states) > 1e-8 * np.max(np.abs(states), axis=0), axis=0)
    assert np.all(states[lead, np.arange(energies.size)] > 0)
    ground = bare_ground_state(grid, 0.7).values
    assert np.max(np.abs(states[:, 0] - ground.real)) < 1e-12


def _full_eigh_states(grid, potential):
    """Oracle: one full `eigh` of the Hamiltonian, with the sign rule of
    `stationary_states`."""
    h = kinetic_matrix(grid)
    h[np.diag_indices_from(h)] += potential[1:-1]
    energies, vecs = np.linalg.eigh(h)
    states = np.zeros((grid.n_points, energies.size))
    states[1:-1] = vecs / np.sqrt(grid.dx)
    lead = np.argmax(np.abs(states) > 1e-8 * np.max(np.abs(states), axis=0), axis=0)
    states[:, states[lead, np.arange(energies.size)] < 0] *= -1.0
    return energies, states


def _double_well(grid, g_bi=2.5):
    """The effective potential of a Thomas-Fermi bath at a double-well
    coupling: its low doublets are split by 1e-10 to 1e-7."""
    bath = mf.thomas_fermi(mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.0))
    return 0.5 * grid.x**2 + g_bi * bath.density_values(grid.x)


@pytest.mark.parametrize("n_points", [450, 451])
def test_parity_blocks_match_the_full_eigh(n_points):
    grid = build_grid(n_points, 40.0)
    potential = _double_well(grid)
    assert is_mirror_symmetric(potential)
    energies, states = stationary_states(grid, potential)
    want_e, want_s = _full_eigh_states(grid, potential)
    scale = np.max(np.abs(want_e))
    assert np.max(np.abs(energies - want_e)) <= 1e-12 * scale
    assert np.all(np.diff(energies) >= 0)
    # every state is exactly even or exactly odd
    even = np.all(states == states[::-1], axis=0)
    odd = np.all(states == -states[::-1], axis=0)
    assert np.all(even ^ odd)
    assert even.sum() == (n_points - 1) // 2
    # near-degenerate levels (gap below 1e-6 of the spectral scale) are
    # compared by the projector on their group, the others state by state
    starts = np.flatnonzero(np.diff(energies, prepend=-np.inf, append=np.inf) > 1e-6 * scale)
    groups = [range(a, b) for a, b in zip(starts[:-1], starts[1:])]
    assert sum(len(g) for g in groups) == energies.size
    assert any(len(g) > 1 for g in groups)
    for g in groups:
        got, want = states[:, list(g)], want_s[:, list(g)]
        if len(g) == 1:
            assert np.max(np.abs(got - want)) < 1e-9
        else:
            diff = (got @ got.T - want @ want.T) * grid.dx
            assert np.max(np.abs(diff)) < 1e-9


def test_asymmetric_potential_takes_the_full_eigh(grid):
    potential = _double_well(grid)
    potential[100] += 1e-12
    assert not is_mirror_symmetric(potential)
    energies, states = stationary_states(grid, potential)
    want_e, want_s = _full_eigh_states(grid, potential)
    assert np.array_equal(energies, want_e)
    assert np.array_equal(states, want_s)


def test_parity_odd_fraction(grid):
    even = bare_ground_state(grid)
    odd = Field(grid, grid.x * even.values)
    assert parity_odd_fraction(even) == 0.0
    assert parity_odd_fraction(odd) == pytest.approx(1.0, rel=1e-14)
    mixed = Field(grid, even.values.real + 1j * odd.values.real / np.sqrt(odd.norm2()))
    assert parity_odd_fraction(mixed) == pytest.approx(np.sqrt(0.5), rel=1e-12)


def _dst_pair(cols, symbol):
    """Oracle: S diag(symbol) S on the interior rows by an explicit DST-I pair."""
    out = np.zeros_like(cols)
    coeff = dst(cols[1:-1], type=1, norm="ortho", axis=0) * symbol
    out[1:-1] = idst(coeff, type=1, norm="ortho", axis=0)
    return out


def _filter_case(n_points, n_cols, kind):
    """A random column block with zero walls and a per-column-mass symbol;
    n_cols = 1 gives a single field and a 1-D symbol."""
    grid = build_grid(n_points, 40.0)
    masses = np.array([1.0, 0.7, 1.9])[:n_cols]
    k2m = box_wavenumbers(grid)[:, None] ** 2 / (2.0 * masses)
    symbol = {
        "phase": np.exp(-1j * 5e-4 * k2m),
        "decay": np.exp(-0.5 * 2e-2 * k2m),
        "kinetic": k2m,
    }[kind]
    rng = np.random.default_rng(n_points * 10 + n_cols)
    cols = rng.standard_normal((n_points, n_cols)) + 1j * rng.standard_normal((n_points, n_cols))
    cols[0] = cols[-1] = 0.0
    if n_cols == 1:
        return grid, symbol[:, 0], cols[:, 0]
    return grid, symbol, cols


# interior sizes 14, 448, 449 and 512 run on FFTs of 27, 896, 900 and 1024
FILTER_SIZES = [16, 450, 451, 514]


@pytest.mark.parametrize("kind", ["phase", "decay", "kinetic"])
@pytest.mark.parametrize("n_cols", [1, 3])
@pytest.mark.parametrize("n_points", FILTER_SIZES)
def test_sine_filter_matches_dst_pair(n_points, n_cols, kind):
    grid, symbol, cols = _filter_case(n_points, n_cols, kind)
    ref = _dst_pair(cols, symbol)
    out = sine_filter(grid, symbol)(cols.copy())
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(out[0] == 0.0) and np.all(out[-1] == 0.0)


@pytest.mark.parametrize("n_points", FILTER_SIZES)
def test_sine_filter_phase_symbol_is_unitary(n_points):
    grid, symbol, cols = _filter_case(n_points, 3, "phase")
    apply = sine_filter(grid, symbol)
    out = cols.copy()
    for _ in range(5):
        apply(out)
    norms = np.linalg.norm(cols, axis=0)
    assert np.max(np.abs(np.linalg.norm(out, axis=0) - norms) / norms) < 1e-13


def test_sine_filter_keeps_real_blocks_real(grid):
    _, symbol, cols = _filter_case(grid.n_points, 3, "decay")
    out = sine_filter(grid, symbol)(cols.real.copy())
    assert out.dtype == np.float64
    ref = _dst_pair(cols.real, symbol)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["decay", "phase"])
@pytest.mark.parametrize("n_points", [450, 451])
def test_even_sine_filter_is_sine_filter_on_even_fields(n_points, kind):
    # an odd n_points puts a point at the centre, its own mirror image
    grid = build_grid(n_points, 40.0)
    h = half_points(grid)
    k2 = box_wavenumbers(grid) ** 2 / 2.0
    rng = np.random.default_rng(n_points)
    if kind == "decay":
        symbol = np.exp(-2e-2 * k2)
        half = rng.standard_normal(h)
    else:
        symbol = np.exp(-1j * 5e-4 * k2[:, None] / np.array([1.0, 0.7]))
        half = rng.standard_normal((h, 2)) + 1j * rng.standard_normal((h, 2))
    full = unfold_even(grid, half)
    assert is_mirror_symmetric(full)
    assert np.array_equal(full[1 : h + 1], half)
    ref = sine_filter(grid, symbol)(full.copy())
    out = even_sine_filter(grid, symbol)(half.copy())
    assert out.dtype == half.dtype
    assert np.max(np.abs(out - ref[1 : h + 1])) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_points", [450, 451])
def test_even_kinetic_matrix_is_the_even_block(n_points):
    # the even block of the kinetic matrix as `_parity_eigh` forms it: near +
    # fold on the first half, the centre of an odd n coupled by sqrt(2)
    grid = build_grid(n_points, 40.0)
    t = kinetic_matrix(grid)
    n = n_points - 2
    k = n // 2
    block = np.empty((n - k, n - k))
    block[:k, :k] = t[:k, :k] + t[:k, n - k :][:, ::-1]
    if n % 2:
        block[:k, k] = block[k, :k] = np.sqrt(2.0) * t[:k, k]
        block[k, k] = t[k, k]
    # on the half-grid samples the centre column carries weight 1/2, so the
    # symmetric block is D E D^-1, D = diag(1, ..., 1, 1/sqrt(2))
    d = np.ones(n - k)
    d[k:] = np.sqrt(0.5)
    got = d[:, None] * even_kinetic_matrix(grid) / d
    assert got.shape == (half_points(grid),) * 2
    assert np.max(np.abs(got - block)) <= 1e-14 * np.max(np.abs(block))


@pytest.mark.parametrize("n_points", [450, 451])
def test_half_weights_give_the_full_grid_norm(n_points):
    grid = build_grid(n_points, 40.0)
    half = np.random.default_rng(3).standard_normal(half_points(grid))
    full = Field(grid, unfold_even(grid, half))
    assert half_weights(grid) @ half**2 == pytest.approx(full.norm2(), rel=1e-14)


def test_kinetic_apply_reuses_one_filter(grid, rng):
    # the cached filter gives what a fresh one gives, and a later call leaves
    # an earlier result untouched
    fields = [
        Field(grid, rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points))
        for _ in range(2)
    ]
    fresh = sine_filter(grid, box_wavenumbers(grid) ** 2 / 2.0)
    first = kinetic_apply(fields[0])
    kept = first.values.copy()
    second = kinetic_apply(fields[1])
    assert np.array_equal(first.values, kept)
    for f, out in zip(fields, (first, second)):
        assert np.array_equal(out.values, fresh(f.values.copy()))


def test_mode_completeness_projection(grid):
    b = ho_mode_basis(grid, 20)
    f0 = mode_field(b, 0)
    coeffs = np.array([inner(mode_field(b, n), f0) for n in range(20)])
    recon = coeffs @ b.mode_functions
    assert np.sqrt(np.sum(np.abs(recon - f0.values) ** 2) * grid.dx) < 1e-10


def test_deterministic_construction():
    a = ho_mode_basis(build_grid(300, 30.0), 15).mode_functions
    b = ho_mode_basis(build_grid(300, 30.0), 15).mode_functions
    assert np.array_equal(a, b)


# grid.py runs its transforms on numpy.fft; scipy.fft is the test-only oracle
# for the same arithmetic, so these compare bits, not tolerances
FFT_SIZES = [16, 45, 100, 297, 448, 900, 1348, 1350]


def test_next_fast_len_matches_scipy():
    targets = range(1, 20_001)
    assert [next_fast_len(t) for t in targets] == [
        scipy.fft.next_fast_len(t) for t in targets
    ]


@pytest.mark.parametrize("n_cols", [None, 2, 3])
@pytest.mark.parametrize("n", FFT_SIZES)
def test_numpy_transforms_match_scipy_bits(n, n_cols):
    rng = np.random.default_rng(n)
    shape = (n,) if n_cols is None else (n, n_cols)
    x = rng.standard_normal(shape)
    z = x + 1j * rng.standard_normal(shape)
    assert np.array_equal(_dct1(x), scipy.fft.dct(x, type=1, axis=0))
    assert np.array_equal(_dct1(z), scipy.fft.dct(z, type=1, axis=0))
    assert np.array_equal(_real_fft(x), scipy.fft.fft(x, axis=0))
    buf = np.empty_like(z)
    np.fft.fft(z, axis=0, out=buf)
    assert np.array_equal(buf, scipy.fft.fft(z, axis=0))
    np.fft.ifft(buf, axis=0, out=buf)
    assert np.array_equal(buf, scipy.fft.ifft(scipy.fft.fft(z, axis=0), axis=0))
