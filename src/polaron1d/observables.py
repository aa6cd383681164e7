"""Shared observable and analysis layer: contrast reweighting, spectral
function, peak finding, miscibility overlap, energy bookkeeping, virial
check and dynamical-region classification.

Peaks are found by a numpy port of scipy.signal's find_peaks / peak_widths
rules (same indices, same widths), so importing this module does not load
scipy.signal; scipy.optimize is loaded only when a damped-cosine fit runs.

The spectral function's zero-padded transform is taken decimated in
frequency, as SPECTRAL_PAD_FACTOR transforms of the record's own length.
"""

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, ExtractionError, UsageError


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled record of a real or complex observable."""

    t0: float
    dt_sample: float
    values: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.size < 2:
            raise UsageError("time series needs at least 2 uniform samples")
        if self.dt_sample <= 0:
            raise UsageError("dt_sample must be positive")
        object.__setattr__(self, "values", v)

    @property
    def times(self):
        return self.t0 + self.dt_sample * np.arange(self.values.size)

    @property
    def t_max(self):
        return self.t0 + self.dt_sample * (self.values.size - 1)

    def restricted(self, t_lo, t_hi):
        t = self.times
        keep = (t >= t_lo - 1e-12) & (t <= t_hi + 1e-12)
        idx = np.where(keep)[0]
        return TimeSeries(float(t[idx[0]]), self.dt_sample, self.values[idx])


def record_times(dt, t_max, record_every, t0=0.0):
    """Record k of a run from t0 in steps of dt, recorded every record_every
    steps, sits at t0 + (dt * record_every) * k, to the bit the times of a
    TimeSeries(t0, dt * record_every, ...) of the records. t_max is trimmed to
    whole record intervals; a t_max shorter than one interval is refused, not
    run past, and so is a record_every that is not a whole number >= 1."""
    if not isinstance(record_every, numbers.Integral) or record_every < 1:
        raise ConfigurationError(
            f"time.record_every = {record_every!r} must be a whole number >= 1"
        )
    if dt <= 0 or t_max <= 0:
        raise ConfigurationError("dt and t_max must be > 0")
    n_records = int(round(t_max / dt)) // record_every
    if n_records == 0:
        raise ConfigurationError(
            f"time.t_max = {t_max:g} is shorter than one record interval "
            f"time.dt * time.record_every = {dt:g} * {record_every} = "
            f"{dt * record_every:g}"
        )
    return t0 + (dt * record_every) * np.arange(n_records + 1)


@dataclass(frozen=True)
class SpectralFunction:
    """A(omega) on a uniform frequency grid covering the full FFT band."""

    omegas: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)
    t_max_used: float = 0.0

    @property
    def resolution(self):
        return 2.0 * np.pi / self.t_max_used


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic_b: float
    potential_b: float
    kinetic_i: float
    potential_i: float
    intra_bb: float
    inter_bi: float

    @property
    def total(self):
        return (
            self.kinetic_b
            + self.potential_b
            + self.kinetic_i
            + self.potential_i
            + self.intra_bb
            + self.inter_bi
        )


# every energy term by name, then the total: the energies.csv columns and the
# energy series of a mean-field propagation
ENERGY_TERMS = tuple(f.name for f in fields(EnergyBreakdown)) + ("total",)


def general_weights_contrast(s, alpha):
    """Spin polarization magnitude for the initial state alpha |down> +
    beta |up>, beta^2 = 1 - alpha^2: sqrt(4 a^2 b^2 |S|^2 + (a^2 - b^2)^2),
    with S from the equal-weight case."""
    if not -1.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in -1..1, got {alpha!r}")
    a2, b2 = alpha**2, 1.0 - alpha**2
    out = np.sqrt(4.0 * a2 * b2 * np.abs(s.values) ** 2 + (a2 - b2) ** 2)
    return TimeSeries(s.t0, s.dt_sample, out)


def _window_values(n, t, t_max, window):
    if window == "none":
        return np.ones(n)
    if window == "hann":
        # decaying half-window: 1 at t=0, 0 at t_max (one-sided signals)
        return np.cos(0.5 * np.pi * t / t_max) ** 2
    raise ConfigurationError(f"unknown window {window!r}")


# spectral_function: zero padding of the transform, in multiples of the record
SPECTRAL_PAD_FACTOR = 8


def spectral_function(s, window="none"):
    """One-sided Fourier transform A(w) = (1/pi) Re int_0^inf e^{iwt} S(t) dt.

    The t=0 sample carries a half weight (trapezoid at the boundary), which
    makes the discrete sum rule  sum A dw = Re S(0)  exact for the unwindowed
    transform. The full band (-pi/dt, pi/dt] is returned, ascending.

    The transform is zero-padded to P n samples, P = SPECTRAL_PAD_FACTOR, and
    taken decimated in frequency: with k = P m + r, bin k is bin m of the
    n-point transform of x_j exp(2 pi i r j/(P n)), so P transforms of length n
    replace one of length P n.
    """
    if s.t0 != 0.0 or abs(s.values[0] - 1.0) > 1e-6:
        raise UsageError("spectral_function expects a series with S(0)=1 at t=0")
    n = s.values.size
    t = s.times
    w = _window_values(n, t, s.t_max, window)
    data = s.values.astype(np.complex128) * w
    data[0] *= 0.5
    n_pad = SPECTRAL_PAD_FACTOR * n
    # row r holds x_j exp(2 pi i r j/n_pad), one phase step per row
    step = np.exp(2j * np.pi * np.arange(n) / n_pad)
    twiddled = np.empty((SPECTRAL_PAD_FACTOR, n), dtype=np.complex128)
    twiddled[0] = data
    for r in range(1, SPECTRAL_PAD_FACTOR):
        np.multiply(twiddled[r - 1], step, out=twiddled[r])
    # sum_j y_j e^{+2 pi i j m/n} is the unscaled inverse FFT; row r, bin m
    # is bin k = P m + r of the padded transform
    transform = np.fft.ifft(twiddled, axis=1, norm="forward").real.T.reshape(-1)
    a = transform * (s.dt_sample / np.pi)
    # fftfreq order shifted to ascending omega
    omegas = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=s.dt_sample)
    return SpectralFunction(
        omegas=np.fft.fftshift(omegas), values=np.fft.fftshift(a), t_max_used=s.t_max
    )


def _parabolic_refine(x, y, i):
    """3-point parabola through (x,y) at i-1, i, i+1; returns (x_peak, y_peak)."""
    if i <= 0 or i >= y.size - 1:
        return x[i], y[i]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return x[i], y[i]
    delta = 0.5 * (y0 - y2) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
    xp = x[i] + delta * (x[i + 1] - x[i])
    yp = y1 - 0.25 * (y0 - y2) * delta
    return xp, yp


def _local_peaks(x, height=None):
    """Indices of the local maxima of x by scipy.signal.find_peaks' rule: a
    plateau counts once, at its midpoint rounded down, and the first and last
    samples never count. With `height`, keeps the peaks with x[p] >= height."""
    x = np.asarray(x, dtype=np.float64)
    # every change between neighbours (a NaN always counts as one); a peak is
    # a rise whose next change is a fall
    steps = np.flatnonzero(x[1:] != x[:-1])
    rise = x[steps] < x[steps + 1]
    fall = x[steps + 1] < x[steps]
    top = rise[:-1] & fall[1:]
    peaks = (steps[:-1][top] + 1 + steps[1:][top]) // 2
    if height is not None:
        peaks = peaks[x[peaks] >= height]
    return peaks


def _half_prominence_widths(x, peaks):
    """Widths in samples at half prominence, by scipy.signal.peak_widths' rule
    (rel_height=0.5, no window). Each base is the lowest sample on its side
    before x first exceeds the peak (which of tied minima is taken cannot move
    a crossing); the crossings of the half-prominence level are interpolated
    linearly."""
    x = np.asarray(x, dtype=np.float64)
    widths = np.empty(len(peaks))
    for k, p in enumerate(peaks):
        # the bases lie between the nearest samples above the peak (NaN counts)
        higher = np.flatnonzero(~(x <= x[p]))
        j = np.searchsorted(higher, p)
        lo = higher[j - 1] + 1 if j > 0 else 0
        hi = higher[j] - 1 if j < higher.size else x.size - 1
        base_l = lo + int(np.argmin(x[lo : p + 1]))
        base_r = p + int(np.argmin(x[p : hi + 1]))
        level = x[p] - (x[p] - max(x[base_l], x[base_r])) * 0.5
        inside = np.flatnonzero(~(level < x[base_l + 1 : p + 1]))
        i = base_l + 1 + inside[-1] if inside.size else base_l
        left = np.float64(i)
        if x[i] < level:
            left += (level - x[i]) / (x[i + 1] - x[i])
        inside = np.flatnonzero(~(level < x[p:base_r]))
        i = p + inside[0] if inside.size else base_r
        right = np.float64(i)
        if x[i] < level:
            right -= (level - x[i]) / (x[i - 1] - x[i])
        widths[k] = right - left
    return widths


def find_peaks(spec, threshold_frac):
    """Local maxima of A(w) above threshold_frac * max(A), quadratic-interpolated,
    sorted by omega. Each entry: {'omega', 'height', 'width'}."""
    if not 0.0 < threshold_frac < 1.0:
        raise ConfigurationError("threshold_frac must be in (0, 1)")
    a = spec.values
    top = float(np.max(a))
    if top <= 0.0:
        return []
    idx = _local_peaks(a, height=threshold_frac * top)
    widths = _half_prominence_widths(a, idx)
    dw = spec.omegas[1] - spec.omegas[0]
    out = []
    for i, wsamp in zip(idx, widths):
        om, h = _parabolic_refine(spec.omegas, a, int(i))
        out.append({"omega": float(om), "height": float(h), "width": float(wsamp * dw)})
    out.sort(key=lambda p: p["omega"])
    return out


# dominant_frequency: zero-padding factor of the Hann-windowed FFT, and the
# smallest peak-to-peak half-amplitude, relative to the mean |value|, that
# counts as a signal
FREQUENCY_PAD_FACTOR = 16
FREQUENCY_MIN_AMPLITUDE = 1e-10


def dominant_frequency(series):
    """Dominant oscillation frequency of a real series: detrend, Hann-windowed
    FFT peak with 3-point quadratic interpolation. Falls back to a damped-cosine
    least-squares fit when neighbouring peaks merge into one broad lobe.

    Returns (omega, info dict)."""
    y = np.asarray(series.values, dtype=float)
    y = y - np.mean(y)
    amp = 0.5 * (np.max(y) - np.min(y))
    scale = max(np.mean(np.abs(np.asarray(series.values, dtype=float))), 1e-300)
    if amp < FREQUENCY_MIN_AMPLITUDE * scale:
        raise ExtractionError(
            f"no oscillatory signal above noise floor (amplitude {amp:.3e})"
        )
    n = y.size
    t = series.times - series.t0
    w = np.hanning(n)
    n_pad = FREQUENCY_PAD_FACTOR * n
    spec = np.abs(np.fft.rfft(y * w, n=n_pad))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(n_pad, d=series.dt_sample)
    i = int(np.argmax(spec))
    omega, height = _parabolic_refine(freqs, spec, i)
    # Hann main lobe spans ~2 bins of the unpadded transform
    lobe = 2.0 * (2.0 * np.pi / (series.dt_sample * n))
    idx = _local_peaks(spec, height=0.5 * height)
    merged = False
    for j in idx:
        if j != i and abs(freqs[j] - freqs[i]) < lobe:
            merged = True
            break
    info = {"height": float(height), "merged": merged, "fallback": False}
    if merged:
        omega = _damped_cosine_frequency(t, y, omega)
        info["fallback"] = True
    return float(omega), info


def _damped_cosine_frequency(t, y, omega0):
    from scipy.optimize import least_squares

    amp0 = 0.5 * (np.max(y) - np.min(y))

    def model(p):
        a, gamma, om, phi = p
        return a * np.exp(-gamma * t) * np.cos(om * t + phi) - y

    res = least_squares(
        model,
        x0=[amp0, 0.0, omega0, 0.0],
        bounds=([0.0, -1.0, 0.0, -np.pi], [np.inf, np.inf, np.inf, np.pi]),
    )
    return float(res.x[2])


def miscibility_overlap(rho_a, rho_b):
    """Normalized density overlap Lambda in [0, 1]; 1 = fully miscible."""
    rho_a.grid.require_same(rho_b.grid)
    a = np.real(rho_a.values)
    b = np.real(rho_b.values)
    if np.min(a) < -1e-10 or np.min(b) < -1e-10:
        raise UsageError("densities must be non-negative")
    dx = rho_a.grid.dx
    cross = np.sum(a * b) * dx
    na = np.sum(a * a) * dx
    nb = np.sum(b * b) * dx
    if na <= 0.0 or nb <= 0.0:
        raise UsageError("zero-norm density in miscibility overlap")
    return float(cross**2 / (na * nb))


def virial_check(e):
    """Ground-state virial residual 2(T_B+T_I) - 2(V_B+V_I) + (E_BB+E_BI)."""
    return (
        2.0 * (e.kinetic_b + e.kinetic_i)
        - 2.0 * (e.potential_b + e.potential_i)
        + (e.intra_bb + e.inter_bi)
    )


# region classification thresholds (relative to S(0)); diagnostics, not physics
REGION_MIN_THRESHOLD = 0.5
REGION_DECAY_THRESHOLD = 0.1
REGION_WINDOW = 50.0


def _peak_envelope(t, s):
    """Upper envelope through local maxima of s(t), linearly interpolated."""
    idx = _local_peaks(s)
    idx = np.concatenate(([0], idx, [s.size - 1]))
    idx = np.unique(idx)
    return np.interp(t, t[idx], s[idx])


def classify_region(contrast):
    """Classify a real contrast record |S(t)| into the dynamical regions:

    R_I   - oscillatory, running min of |S|/|S(0)| above 0.5 on [0, 50]
    R_III - monotone-enveloped decay below 0.1 at t = 50
    R_II  - decaying-amplitude oscillations (everything between)

    Returns {'region', 'candidates', 'metrics'}; 'borderline' when the
    running minimum sits within 5% of a threshold.
    """
    if np.iscomplexobj(contrast.values):
        raise UsageError("region classification needs the real series |S(t)|, not S(t)")
    if contrast.t_max < REGION_WINDOW - 1e-9:
        raise UsageError(
            f"region classification needs the series to cover t in [0, >={REGION_WINDOW}]"
        )
    win = contrast.restricted(0.0, REGION_WINDOW)
    s = np.abs(np.asarray(win.values, dtype=float))
    s0 = s[0]
    if s0 <= 0:
        raise UsageError("contrast series starts at zero")
    s = s / s0
    t = win.times
    running_min = float(np.min(s))
    env = _peak_envelope(t, s)
    env_end = float(env[-1])
    # envelope counted monotone when it never revives above its running min
    monotone_env = bool(np.max(env - np.minimum.accumulate(env)) < 0.05)
    osc_amplitude = float(np.max(s - np.minimum.accumulate(s)))

    decay_rate = float("nan")
    decay_exponent = float("nan")
    # future-max envelope hugs monotone decays exactly (peak interpolation
    # degenerates to a chord there), better for the decay-law fits
    env_fit = np.maximum.accumulate(s[::-1])[::-1]
    pos = env_fit > 1e-12
    if env_end < 0.9 and np.count_nonzero(pos) > 10:
        tt, ee = t[pos], env_fit[pos]
        mask = (ee < 0.95) & (tt > 0)
        if np.count_nonzero(mask) > 5:
            # |S| ~ exp(-(t/tau)^p): slope of ln(-ln env) vs ln t gives p
            coeffs = np.polyfit(tt[mask], np.log(ee[mask]), 1)
            decay_rate = float(-coeffs[0])
            lnln = np.log(-np.log(ee[mask]))
            decay_exponent = float(np.polyfit(np.log(tt[mask]), lnln, 1)[0])

    if running_min > REGION_MIN_THRESHOLD:
        region, candidates = "R_I", ["R_I"]
        if running_min < REGION_MIN_THRESHOLD * 1.05:
            region, candidates = "borderline", ["R_I", "R_II"]
    elif env_end < REGION_DECAY_THRESHOLD and monotone_env:
        region, candidates = "R_III", ["R_III"]
    else:
        region, candidates = "R_II", ["R_II"]
        if running_min > REGION_MIN_THRESHOLD * 0.95:
            region, candidates = "borderline", ["R_I", "R_II"]
        elif env_end < REGION_DECAY_THRESHOLD * 1.05 and monotone_env:
            region, candidates = "borderline", ["R_II", "R_III"]

    metrics = {
        "running_min": running_min,
        "envelope_at_end": env_end,
        "monotone_envelope": monotone_env,
        "oscillation_amplitude": osc_amplitude,
        "decay_rate": decay_rate,
        "decay_exponent": decay_exponent,
    }
    return {"region": region, "candidates": candidates, "metrics": metrics}
