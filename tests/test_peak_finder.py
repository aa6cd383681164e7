"""Parity of the package's numpy peak finder with scipy.signal, kept here as
the test-only oracle (the package no longer imports scipy.signal): the same
peak indices and the same half-prominence widths, bit for bit, on random
arrays and on real A(w) spectra of all three tiers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import find_peaks as oracle_find_peaks
from scipy.signal import peak_widths as oracle_peak_widths

import ed_oracle
from polaron1d import effpot as ep
from polaron1d import exactdiag as ed
from polaron1d import meanfield as mf
from polaron1d import observables as obs

# bound once, so the fixture below can wrap the module attribute
local_peaks = obs._local_peaks


def assert_parity(x, height=None):
    want, _ = oracle_find_peaks(x, height=height)
    got = local_peaks(x, height=height)
    assert np.array_equal(got, want)
    with warnings.catch_warnings():
        # zero widths (flat-topped peaks) and inf - inf are valid, only flagged
        warnings.simplefilter("ignore", RuntimeWarning)
        want_w = oracle_peak_widths(x, want, rel_height=0.5)[0] if want.size else np.empty(0)
        got_w = obs._half_prominence_widths(x, got)
    assert np.array_equal(got_w, want_w, equal_nan=True)


@pytest.fixture
def peak_calls(monkeypatch):
    """Checks every call the package makes to the peak finder against the
    oracle, and records the heights it was called with."""
    heights = []

    def checked(x, height=None):
        assert_parity(x, height)
        heights.append(height)
        return local_peaks(x, height)

    monkeypatch.setattr(obs, "_local_peaks", checked)
    return heights


floats = hnp.arrays(
    np.float64,
    st.integers(1, 40),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
)
# few distinct levels: plateaus, ties and edge maxima are common
small_ints = hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 3))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    x=st.one_of(floats, small_ints),
    frac=st.one_of(st.none(), st.floats(0.0, 1.0)),
    at_sample=st.booleans(),
)
def test_random_arrays(x, frac, at_sample):
    height = None if frac is None else float(np.min(x) + frac * np.ptp(x))
    if height is not None and at_sample:
        # a threshold equal to a sample: peaks exactly at it are kept
        height = float(np.sort(x)[int(frac * (x.size - 1))])
    assert_parity(x, height)


@pytest.mark.parametrize(
    "x",
    [
        [1.0],
        [0.0, 1.0],
        [1.0, 0.0, 1.0],
        [0.0, 2.0, 2.0, 2.0, 2.0, 0.0],
        [0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 3.0],
        [0.0, 1.0, 1.0],
        [0.0, np.inf, np.inf, 0.0],
        [0.0, 1.0, np.nan, 1.0, 0.0],
        [np.nan, 2.0, 0.0, 3.0, 3.0, np.nan],
        [-np.inf, 0.0, -np.inf, 1.0, 1.0, 0.5],
    ],
    ids=lambda x: " ".join(map(str, x)),
)
def test_hand_made_edges(x):
    assert_parity(np.asarray(x))


def assert_spectrum_parity(spec, peak_calls):
    for frac in (5e-4, 0.05, 0.2):
        obs.find_peaks(spec, frac)
    assert peak_calls == [frac * float(np.max(spec.values)) for frac in (5e-4, 0.05, 0.2)]
    # every local maximum, wings included
    assert_parity(spec.values)


def test_meanfield_spectrum(relaxed_default, peak_calls):
    state, res = relaxed_default
    sys_post = mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=1.0)
    traj, _ = mf.propagate(state, sys_post, dt=2e-3, t_max=10.0, record_every=25)
    s = mf.mean_field_contrast(traj.times, traj.overlaps, res.energy, sys_post.n_bath, 2e-3 * 25)
    assert_spectrum_parity(obs.spectral_function(s, window="hann"), peak_calls)


def test_effpot_spectrum(grid, default_system, peak_calls):
    pot = ep.build_effective_potential(mf.thomas_fermi(default_system).density(grid), 1.5)
    out = ep.effpot_contrast(ep.eigensolve(pot, n_eig=40), t_max=100.0, dt=0.05)
    assert_spectrum_parity(obs.spectral_function(out.series, window="hann"), peak_calls)
    # the region classifier's envelope runs through every maximum of |S(t)|
    obs.classify_region(obs.TimeSeries(0.0, 0.05, np.abs(out.series.values)))
    assert peak_calls[-1] is None


def test_ed_spectrum(basis10, peak_calls):
    fock = ed.build_fock_basis(2, 10)
    ground = ed.ground_state(ed.build_hamiltonian(fock, 0.5, 0.0, basis=basis10))
    v0, e0 = ground.vector, ground.energy
    h1 = ed.with_impurity_coupling(ground.hamiltonian, 1.0)
    traj, states = ed_oracle.propagate_states(h1, v0, dt=0.1, t_max=40.0, record_every=1)
    s = ed.ed_contrast(traj.times, states @ np.conj(v0), e0, 0.1)
    assert_spectrum_parity(obs.spectral_function(s, window="hann"), peak_calls)


def test_merged_lobe_takes_fallback(peak_calls):
    # two lines 1.2 unpadded bins apart: both maxima sit inside one Hann lobe
    dt = 0.05
    t = np.arange(0.0, 40.0, dt)
    delta = 1.2 * 2.0 * np.pi / (dt * t.size)
    series = obs.TimeSeries(0.0, dt, np.cos(2.0 * t) + 0.9 * np.cos((2.0 + delta) * t))
    _, info = obs.dominant_frequency(series)
    assert info["merged"] and info["fallback"]
    assert len(peak_calls) == 1 and peak_calls[0] == 0.5 * info["height"]
