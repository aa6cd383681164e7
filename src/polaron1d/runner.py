"""Scenario orchestration: relax / quench / breathing / sweep pipelines with
deterministic CSV/JSON outputs and a manifest of checksums and diagnostics.

Each single-run pipeline runs in one frame (`_run`) that calls its tier's
body from `BODIES`: relax runs in the meanfield tier only, quench in the
meanfield, effpot and ed tiers, breathing in the meanfield and effpot
tiers. A tier a pipeline has no body for is refused, naming solver.tier.
A sweep runs quench or breathing points. `contract_errors` states which
configs each pipeline, and a sweep, can run. A body imports its tier's
module (and meanfield for a mean-field density source) when it runs, so a
run loads no other tier.

CSV files carry one header row and 17-significant-digit decimals so a
read-back reproduces the in-memory values exactly. The manifest is written
atomically after all other files.
"""

import functools
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from . import observables as obs
from .config import sweep_value_errors
from .errors import ConfigurationError, PolaronError, UsageError, exit_code
from .grid import (
    bare_ground_state,
    build_grid,
    ho_mode_basis,
    is_mirror_symmetric,
)

SUMMARY_SCHEMA_VERSION = 1


# --- deterministic writers ---------------------------------------------------


# rows formatted by one `%` call: enough to amortize the call, few enough
# that a block's Python floats and text stay small next to the data
CSV_BLOCK_ROWS = 4096

# axes held by `_axis_text`: a run writes at most four distinct first columns
# (t, omega, x and effpot's level index n), so a sweep's later points find
# all of theirs; an effpot sweep's four hold about 1.3 MB of text and keys,
# most of it the 40 008-row omega
CSV_AXIS_MEMO = 4


@functools.lru_cache(maxsize=CSV_AXIS_MEMO)
def _axis_text(axis_bytes):
    """The `%.17g` text of a CSV's first column, given as its float64 bytes
    (so a hit is exact), one string per CSV_BLOCK_ROWS block: each value
    followed by a `%s` slot for the rest of its row and a newline."""
    axis = np.frombuffer(axis_bytes)
    return tuple(
        ("%.17g%%s\n" * block.size) % tuple(block.tolist())
        for block in np.split(axis, range(CSV_BLOCK_ROWS, axis.size, CSV_BLOCK_ROWS))
    )


def _write_csv(path, header, columns):
    columns = [np.asarray(c, dtype=float) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise UsageError(f"{path}: columns differ in length {lengths}")
    cells = ",%.17g" * (len(columns) - 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        if not columns:
            return
        axis, rest = columns[0], columns[1:]
        # a sweep writes the same axes at every point: their text comes from
        # the memo, and each row's other values fill its slot
        blocks = _axis_text(axis.tobytes())
        for start, text in zip(range(0, axis.size, CSV_BLOCK_ROWS), blocks):
            stop = min(start + CSV_BLOCK_ROWS, axis.size)
            values = np.column_stack([c[start:stop] for c in rest]).ravel().tolist() if rest else ()
            fh.write(text % ((cells,) * (stop - start)) % tuple(values))


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class OutputSet:
    """Collects written files, then seals them into an atomic manifest.

    As a context manager it writes the manifest on leaving the block: with
    `status` when the block completes, "failed" when it raises, and then
    the exception's type, message and CLI exit code under
    `diagnostics["error"]`. Either way `diagnostics["peak_rss_mb"]` is the
    process's peak resident memory so far.
    """

    def __init__(self, directory, config):
        self.directory = directory
        self.config = config
        self.files = []
        self.diagnostics = {}
        self.status = "ok"
        self.t_start = time.time()
        os.makedirs(directory, exist_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.diagnostics["error"] = {
                "type": exc_type.__name__, "message": str(exc), "exit_code": exit_code(exc)
            }
        self.diagnostics["peak_rss_mb"] = _peak_rss_mb()
        manifest = {
            "code_version": __version__,
            "status": "failed" if exc_type is not None else self.status,
            "started_unix": self.t_start,
            "finished_unix": time.time(),
            "config": self.config.echo(),
            "outputs": {
                name: _sha256(os.path.join(self.directory, name))
                for name in self.files
                if os.path.exists(os.path.join(self.directory, name))
            },
            "diagnostics": self.diagnostics,
        }
        final = os.path.join(self.directory, "manifest.json")
        tmp = final + ".tmp"
        _write_json(tmp, manifest)
        os.replace(tmp, final)
        return False

    def path(self, name):
        self.files.append(name)
        return os.path.join(self.directory, name)


def _peak_rss_mb():
    # ru_maxrss is in kB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0**2 if sys.platform == "darwin" else 1024.0)


def _json_scrub(value):
    if isinstance(value, dict):
        return {k: _json_scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_scrub(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_scrub(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


# --- shared pieces ------------------------------------------------------------


def _mf_system(cfg, g_bi, omega_i=None):
    from . import meanfield as mf

    return mf.MeanFieldSystem(
        n_bath=cfg.n_bath,
        g_bb=cfg.g_bb,
        g_bi=g_bi,
        omega_b=cfg.omega_b,
        omega_i=cfg.omega_i_initial if omega_i is None else omega_i,
    )


@functools.lru_cache(maxsize=1)
def _relaxed(system, grid):
    """The relaxed ground state of `system` on `grid`, with read-only
    orbitals, and its RelaxResult: the runner's one relaxation.

    Cached on the hashable (system, grid) pair, so a sweep whose parameter
    leaves both unchanged relaxes once per process.
    """
    from . import meanfield as mf

    state, res = mf.relax_ground_state(system, grid)
    for orbital in (state.bath, state.up, state.down):
        orbital.values.flags.writeable = False
    return state, res


def _density_source(cfg, grid):
    """Frozen bath density for the effpot tier per cfg.source.

    Returns (density, tag, scale, diagnostics): a density file is always
    rescaled to integrate to n_bath and `scale` is that factor (1.0 for the
    other sources); `diagnostics` carries the relaxation telemetry of a
    relaxed source.
    """
    from . import effpot as ep
    from . import meanfield as mf

    if cfg.source == "tf":
        return mf.thomas_fermi(_mf_system(cfg, 0.0)).density(grid), "TF-analytic", 1.0, {}
    if cfg.source == "relaxed":
        state, res = _relaxed(_mf_system(cfg, cfg.g_bi_initial), grid)
        telemetry = {
            "relax_iterations": res.iterations,
            "relax_residual": max(res.residual_bath, res.residual_impurity),
        }
        return state.bath.density(cfg.n_bath), "relaxed-MF-density", 1.0, telemetry
    density = ep.load_density_file(cfg.source, grid)
    total = float(np.sum(np.real(density.values)) * grid.dx)
    if total <= 0:
        raise ConfigurationError(f"density file {cfg.source} integrates to zero")
    scale = cfg.n_bath / total
    return type(density)(grid, density.values * scale), "externally-supplied", scale, {}


def _contrast_files(out, s_series, cfg):
    svals = np.asarray(s_series.values, dtype=np.complex128)
    t = s_series.times
    _write_csv(
        out.path("contrast.csv"),
        ["t", "re_s", "im_s", "abs_s", "phase"],
        [t, svals.real, svals.imag, np.abs(svals), np.unwrap(np.angle(svals))],
    )
    spec = obs.spectral_function(s_series, window="hann")
    _write_csv(out.path("spectrum.csv"), ["omega", "a"], [spec.omegas, spec.values])
    peaks = obs.find_peaks(spec, threshold_frac=0.05)
    weighted = obs.general_weights_contrast(s_series, cfg.alpha, cfg.beta)
    summary = {
        "peaks": peaks,
        "frequency_resolution": spec.resolution,
        "min_contrast": float(np.min(np.abs(svals))),
        "min_weighted_contrast": float(np.min(weighted.values)),
        "alpha": cfg.alpha,
        "beta": cfg.beta,
    }
    if s_series.t_max >= obs.REGION_WINDOW:
        summary["region"] = obs.classify_region(
            obs.TimeSeries(s_series.t0, s_series.dt_sample, np.abs(svals))
        )
    else:
        summary["region"] = {
            "region": "not-evaluated",
            "candidates": [],
            "metrics": {"reason": f"series shorter than t={obs.REGION_WINDOW}"},
        }
    return summary


# --- pipeline bodies: (cfg, out, grid) -> summary entries ------------------------

# the effpot tier samples its expansion at every step of max(time.dt, this),
# whatever time.record_every says: the floor keeps it from sampling at a raw
# propagation dt (ROADMAP item 2)
EFFPOT_DT_FLOOR = 0.02


def _relax_meanfield(cfg, out, grid):
    from . import meanfield as mf

    sys_pre = _mf_system(cfg, cfg.g_bi_initial)
    state, res = _relaxed(sys_pre, grid)
    dens_b = state.bath.density(cfg.n_bath)
    dens_u = state.up.density()
    # the spin-down impurity never couples to the bath: bare trap ground state
    dens_d = bare_ground_state(grid, omega=cfg.omega_i_initial).density()
    _write_csv(
        out.path("densities.csv"),
        ["x", "rho_bath", "rho_up", "rho_down"],
        [grid.x, np.real(dens_b.values), np.real(dens_u.values), np.real(dens_d.values)],
    )
    _write_csv(
        out.path("energies.csv"),
        obs.ENERGY_TERMS,
        [[getattr(res.breakdown, key)] for key in obs.ENERGY_TERMS],
    )
    virial = obs.virial_check(res.breakdown)
    tf_profile = mf.thomas_fermi(sys_pre) if cfg.g_bb > 0 else None
    summary = {
        "energy": res.energy,
        "mu_bath": res.mu_bath,
        "mu_impurity": res.mu_impurity,
        "virial_residual": virial,
        "virial_relative": abs(virial) / max(abs(res.energy), 1e-300),
        "density_drop_radius": mf.density_drop_radius(dens_b),
        "tf_mu": tf_profile.mu if tf_profile else None,
        "tf_radius": tf_profile.radius if tf_profile else None,
        "iterations": res.iterations,
    }
    out.diagnostics.update(
        {
            "virial_relative": summary["virial_relative"],
            "stationarity_residual": max(res.residual_bath, res.residual_impurity),
        }
    )
    return summary


def _quench_meanfield(cfg, out, grid):
    from . import meanfield as mf

    state, res = _relaxed(_mf_system(cfg, cfg.g_bi_initial), grid)
    sys_post = _mf_system(cfg, cfg.g_bi_final)
    traj, series = mf.propagate(
        state, sys_post, dt=cfg.dt, t_max=cfg.t_max, record_every=cfg.record_every
    )
    s_series = mf.mean_field_contrast(
        traj.times, traj.overlaps, res.energy, sys_post.n_bath, cfg.dt * cfg.record_every
    )
    summary = _contrast_files(out, s_series, cfg)
    _write_csv(
        out.path("energies.csv"),
        ["t", *obs.ENERGY_TERMS],
        [series["total"].times] + [series[key].values for key in obs.ENERGY_TERMS],
    )
    cols = [grid.x]
    names = ["x"]
    for st in traj.snapshots:
        cols += [
            np.real(st.bath.density(cfg.n_bath).values),
            np.real(st.up.density().values),
            np.real(st.down.density().values),
        ]
        tag = f"t{st.time:g}"
        names += [f"rho_bath_{tag}", f"rho_up_{tag}", f"rho_down_{tag}"]
    _write_csv(out.path("densities.csv"), names, cols)
    final = traj.snapshots[-1]
    lam = obs.miscibility_overlap(final.up.density(), final.down.density())
    summary.update(
        {
            "energy_reference": res.energy,
            "miscibility_final": lam,
            "norm_drift": float(
                max(abs(np.asarray(series["norm_bath"].values) - 1.0).max(),
                    abs(np.asarray(series["norm_up"].values) - 1.0).max())
            ),
            "energy_drift": float(
                np.max(np.abs(np.asarray(series["total"].values) - series["total"].values[0]))
            ),
        }
    )
    out.diagnostics.update(
        {
            "norm_drift": summary["norm_drift"],
            "energy_drift": summary["energy_drift"],
        }
    )
    return summary


def _quench_effpot(cfg, out, grid):
    from . import effpot as ep

    source, source_tag, scale, telemetry = _density_source(cfg, grid)
    out.diagnostics.update(telemetry)
    pot = ep.build_effective_potential(source, cfg.g_bi_final, omega_trap=cfg.omega_i_initial)
    spec = ep.eigensolve(pot, n_eig=cfg.n_eig)
    out.diagnostics["mirror_symmetric"] = is_mirror_symmetric(pot.values)
    contrast = ep.effpot_contrast(spec, t_max=cfg.t_max, dt=max(cfg.dt, EFFPOT_DT_FLOOR))
    summary = _contrast_files(out, contrast.series, cfg)
    _write_csv(
        out.path("energies.csv"),
        ["n", "energy", "weight", "box_contaminated"],
        [np.arange(spec.energies.size), spec.energies, contrast.weights,
         spec.box_contaminated.astype(float)],
    )
    init = bare_ground_state(grid, omega=cfg.omega_i_initial)
    _write_csv(
        out.path("densities.csv"),
        ["x", "rho_bath", "v_eff", "rho_impurity_t0"],
        [grid.x, np.real(source.values), pot.values, np.abs(init.values) ** 2],
    )
    summary.update(
        {
            "source": source_tag,
            "density_scale": scale,
            "curvature_at_origin": pot.curvature_at_origin(),
            "well_minima": pot.well_minima(),
            "weights_sum": float(np.sum(contrast.weights)),
        }
    )
    return summary


def _quench_ed(cfg, out, grid):
    # the only exactdiag user: mean-field and effpot runs never load scipy;
    # an ED run loads scipy.sparse and neither meanfield nor effpot
    from . import exactdiag as ed

    basis = ho_mode_basis(grid, cfg.n_modes)
    fock = ed.build_fock_basis(cfg.n_bath, cfg.n_modes, dim_guard=cfg.dim_guard)
    h_pre = ed.build_hamiltonian(
        fock, cfg.g_bb, cfg.g_bi_initial, omega_i=cfg.omega_i_initial, basis=basis
    )
    ground = ed.ground_state(h_pre)
    v0, e0 = ground.vector, ground.energy
    # under the quench contract only g_bi changes: the bath block is shared,
    # and H conserves parity, so the run stays in the ground state's sector
    h_post = ed.with_impurity_coupling(ground.hamiltonian, cfg.g_bi_final)
    # each record is reduced as it comes; only the latest state is held, for
    # the final densities (the first state is v0)
    overlaps, lambdas, breakdowns = [], [], []
    v_final = v0

    def observe(k, v):
        nonlocal v_final
        overlaps.append(np.vdot(v0, v))
        lambdas.append(ed.schmidt(v, h_post))
        breakdowns.append(ed.energy_breakdown(v, h_post))
        v_final = v

    traj = ed.propagate_krylov(
        h_post, v0, dt=cfg.dt, t_max=cfg.t_max, record_every=cfg.record_every,
        observe=observe,
    )
    s_series = ed.ed_contrast(traj.times, overlaps, e0, cfg.dt * cfg.record_every)
    summary = _contrast_files(out, s_series, cfg)

    lambdas = np.array(lambdas)
    svn = ed.entanglement_entropy(lambdas)
    lam2 = lambdas[:, 1] if cfg.n_modes > 1 else np.zeros_like(svn)
    energies = {k: np.array([getattr(bd, k) for bd in breakdowns]) for k in obs.ENERGY_TERMS}
    _write_csv(
        out.path("entropy.csv"),
        ["t", "s_vn", "lambda_1", "lambda_2"],
        [traj.times, svn, lambdas[:, 0], lam2],
    )
    _write_csv(
        out.path("energies.csv"),
        ["t", *obs.ENERGY_TERMS],
        [traj.times] + [energies[key] for key in obs.ENERGY_TERMS],
    )
    rho_b0 = ed.one_body_density(h_post, v0, "bath")
    rho_u0 = ed.one_body_density(h_post, v0, "impurity")
    rho_bT = ed.one_body_density(h_post, v_final, "bath")
    rho_uT = ed.one_body_density(h_post, v_final, "impurity")
    _write_csv(
        out.path("densities.csv"),
        ["x", "rho_bath_t0", "rho_up_t0", "rho_bath_tmax", "rho_up_tmax"],
        [grid.x, rho_b0.values.real, rho_u0.values.real, rho_bT.values.real, rho_uT.values.real],
    )
    lam_final = obs.miscibility_overlap(rho_uT, rho_u0)  # rho_down(t) = rho_up(0)
    summary.update(
        {
            "energy_reference": e0,
            "entropy_mean": float(np.mean(svn)),
            "entropy_final": float(svn[-1]),
            "miscibility_final": lam_final,
            "norm_drift": traj.max_norm_drift,
            "max_krylov_dim": traj.max_krylov_dim,
            "energy_drift": float(np.max(np.abs(energies["total"] - energies["total"][0]))),
        }
    )
    out.diagnostics.update(
        {
            "norm_drift": traj.max_norm_drift,
            "energy_drift": summary["energy_drift"],
            "parity_sector": {
                "parity": ("even", "odd")[ground.sector],
                "dimension": h_post.sector_dim,
                "other_energy": ground.other_energy,
            },
        }
    )
    return summary


def _variance_file(out, x_mean, x2, p2):
    """Writes variance.csv from the <x>, <x^2> and <p^2> series; returns the
    position variance series."""
    var = obs.TimeSeries(
        x2.t0, x2.dt_sample, np.asarray(x2.values) - np.asarray(x_mean.values) ** 2
    )
    _write_csv(
        out.path("variance.csv"),
        ["t", "x_mean", "x2", "p2", "variance"],
        [x2.times, x_mean.values, x2.values, p2.values, var.values],
    )
    return var


def _breathing_meanfield(cfg, out, grid):
    from . import meanfield as mf

    state, _ = _relaxed(_mf_system(cfg, cfg.g_bi_final), grid)
    sys_post = _mf_system(cfg, cfg.g_bi_final, omega_i=cfg.omega_i_final)
    _, series = mf.propagate(
        state, sys_post, dt=cfg.dt, t_max=cfg.t_max, record_every=cfg.record_every
    )
    var = _variance_file(out, series["x_mean_up"], series["x2_up"], series["p2_up"])
    omega_br, _ = obs.dominant_frequency(var)
    return {"omega_br": float(omega_br), "fit_valid": False}


def _breathing_effpot(cfg, out, grid):
    """The m_eff fit runs on an interaction-quench companion series (bare
    impurity released into the effective potential built with the pre-quench
    trap) where the closed-form model applies; a fit failure is surfaced in
    the summary, not raised."""
    from . import effpot as ep

    source, source_tag, scale, telemetry = _density_source(cfg, grid)
    out.diagnostics.update(telemetry)

    def builder(omega):
        return ep.build_effective_potential(source, cfg.g_bi_final, omega_trap=omega)

    br = ep.breathing_run(
        builder, cfg.omega_i_initial, cfg.omega_i_final,
        t_max=min(cfg.t_max, 120.0), dt=max(cfg.dt, EFFPOT_DT_FLOOR), n_eig=cfg.n_eig,
    )
    out.diagnostics["mirror_symmetric"] = is_mirror_symmetric(
        br.initial_spectrum.potential.values
    )
    _variance_file(out, br.series["x_mean"], br.series["x2"], br.series["p2"])
    summary = {"omega_br": br.omega_br, "fit_valid": False, "source": source_tag,
               "density_scale": scale}
    om = cfg.omega_i_initial
    try:
        moments = ep.stationary_moments(
            br.initial_spectrum, bare_ground_state(grid, omega=om), t_max=80.0, dt=0.02
        )
        fit = ep.fit_effective_mass(
            moments["x2"], moments["p2"], {"x2_0": 1.0 / (2.0 * om), "p2_0": om / 2.0}
        )
        summary.update(
            fit_valid=True, m_eff=fit.m_eff, omega_eff=fit.omega_eff, fit_residual=fit.residual
        )
    except PolaronError as exc:
        summary["fit_error"] = str(exc)
    return summary


# --- the pipeline frame --------------------------------------------------------

BODIES = {
    "relax": {"meanfield": _relax_meanfield},
    "quench": {"meanfield": _quench_meanfield, "effpot": _quench_effpot, "ed": _quench_ed},
    "breathing": {"meanfield": _breathing_meanfield, "effpot": _breathing_effpot},
}


def contract_errors(cfg, pipeline):
    """Messages for a config the pipeline cannot run, each naming the key:
    the one statement of the run contract, read by every pipeline and by
    `polaron1d validate`.

    A pipeline runs only the tiers it has a body for. A breathing run needs a
    trap change. A quench changes the coupling only: every tier evolves the
    impurity in the pre-quench trap (a trap change is a breathing run). The
    ED tier evolves the spin-down branch as the pure phase exp(-i E0 t),
    exact only for a stationary initial state, and builds the bath in the
    unit-frequency oscillator basis. The effpot tier starts the impurity in
    the bare trap ground state. A quench or breathing run records at least
    once: its t_max is at least one record interval, dt * record_every, or
    for the effpot tier, which reads no record_every, max(dt, 0.02). A sweep
    needs a parameter, a non-empty list of values its key accepts
    (`sweep_value_errors`), and a config that its sweep.pipeline, quench or
    breathing, can run; that pipeline's contract reads none of the sweep
    parameters, so its refusal would fail every point alike.
    """
    if pipeline == "sweep":
        errors = []
        if not cfg.sweep_parameter:
            errors.append("sweep needs a parameter (sweep.parameter)")
        if not cfg.sweep_values:
            errors.append("sweep needs a non-empty value list (sweep.values)")
        if cfg.sweep_pipeline not in _SWEEP_COLUMNS:
            return errors + ["sweep.pipeline must be 'quench' or 'breathing'"]
        return errors + sweep_value_errors(cfg) + contract_errors(cfg, cfg.sweep_pipeline)
    tiers = BODIES[pipeline]
    errors = []
    if cfg.tier not in tiers:
        errors.append(
            f"{pipeline} run supports solver.tier {' or '.join(tiers)}, got {cfg.tier!r}"
        )
    if pipeline == "breathing" and cfg.omega_i_initial == cfg.omega_i_final:
        errors.append("breathing run needs omega_i_initial != omega_i_final")
    # the rule of `observables.record_times`, at the spacing the tier uses
    effpot = cfg.tier == "effpot"
    step, every = (max(cfg.dt, EFFPOT_DT_FLOOR), 1) if effpot else (cfg.dt, cfg.record_every)
    if pipeline != "relax" and round(cfg.t_max / step) < every:
        interval = (
            f"max(time.dt, {EFFPOT_DT_FLOOR:g}) = {step:g} with time.dt = {cfg.dt:g} "
            f"(tier effpot does not read time.record_every = {cfg.record_every})"
            if effpot else
            f"time.dt * time.record_every = {step:g} * {every} = {step * every:g}"
        )
        errors.append(
            f"time.t_max = {cfg.t_max:g} is shorter than one record interval {interval}"
        )
    if pipeline == "quench":
        required = {"g_bi_initial": 0.0} if cfg.tier in ("ed", "effpot") else {}
        required["omega_i_final"] = cfg.omega_i_initial
        if cfg.tier == "ed":
            required["omega_b"] = 1.0
        errors += [
            f"tier {cfg.tier} quench needs system.{key} = {want!r}, got {getattr(cfg, key)!r}"
            for key, want in required.items()
            if getattr(cfg, key) != want
        ]
    return errors


def _run(cfg, directory, pipeline, summary_name="summary.json", **header):
    """Runs one pipeline in its tier: refuses a config the pipeline cannot
    run, builds the grid, calls the tier's body and writes its entries, with
    the schema version, pipeline, tier and `header`, to `summary_name`."""
    with OutputSet(directory or cfg.directory, cfg) as out:
        errors = contract_errors(cfg, pipeline)
        if errors:
            raise ConfigurationError("; ".join(errors), errors=errors)
        grid = build_grid(cfg.n_points, cfg.x_max)
        summary = BODIES[pipeline][cfg.tier](cfg, out, grid)
        summary.update(
            schema_version=SUMMARY_SCHEMA_VERSION, pipeline=pipeline, tier=cfg.tier, **header
        )
        _write_json(out.path(summary_name), _json_scrub(summary))
        return summary


def run_relax(cfg, directory=None):
    """Ground-state preparation only; writes densities, energies, summary."""
    return _run(cfg, directory, "relax")


def run_quench(cfg, directory=None):
    """Relax -> quench -> propagate -> observables for the configured tier."""
    return _run(
        cfg, directory, "quench", g_bi_initial=cfg.g_bi_initial, g_bi_final=cfg.g_bi_final
    )


def run_breathing(cfg, directory=None):
    """Trap-frequency quench in the effpot or meanfield tier.

    Writes variance.csv and omega_br.json; the effpot tier adds the m_eff fit.
    """
    return _run(
        cfg, directory, "breathing", "omega_br.json", g_bi=cfg.g_bi_final,
        omega_i_initial=cfg.omega_i_initial, omega_i_final=cfg.omega_i_final,
    )


# aggregate.csv columns after the parameter and the status, per sweep pipeline
_SWEEP_COLUMNS = {
    "quench": ("min_contrast", "region_code", "peak1_omega", "peak2_omega", "peak3_omega",
               "entropy_mean"),
    "breathing": ("omega_br", "m_eff", "omega_eff"),
}
_REGION_CODES = {"R_I": 1.0, "R_II": 2.0, "R_III": 3.0, "borderline": 1.5, "not-evaluated": 0.0}


def _aggregate_entries(summary):
    """A point's summary plus its region code and the frequencies of its
    three tallest peaks in ascending order (peak1_omega..)."""
    tallest = sorted(summary.get("peaks", []), key=lambda p: -p["height"])[:3]
    omegas = sorted(p["omega"] for p in tallest)
    entries = {f"peak{k}_omega": omega for k, omega in enumerate(omegas, 1)}
    if "region" in summary:
        entries["region_code"] = _REGION_CODES.get(summary["region"]["region"], 0.0)
    return {**summary, **entries}


def _sweep_point(task):
    """One sweep point: (summary, None), or (None, message) when it fails."""
    cfg, parameter, value, pipeline, directory = task
    run = run_breathing if pipeline == "breathing" else run_quench
    try:
        setattr(cfg, parameter, type(getattr(cfg, parameter))(value))
        return run(cfg, directory=directory), None
    except Exception as exc:  # noqa: BLE001 - record and continue
        return None, str(exc)


def run_sweep(cfg, jobs=1, directory=None):
    """Independent runs of sweep.pipeline, one per value of sweep.parameter
    in sweep.values, plus a deterministic aggregate.

    A config the sweep contract refuses (`contract_errors`) fails before any
    point runs. Individual failures are recorded in the aggregate (manifest
    status "partial") and the sweep continues.
    """
    base_dir = directory or cfg.directory
    with OutputSet(base_dir, cfg) as out:
        if jobs < 1:
            raise ConfigurationError(f"sweep needs jobs >= 1, got {jobs}")
        errors = contract_errors(cfg, "sweep")
        if errors:
            raise ConfigurationError("; ".join(errors), errors=errors)
        parameter, values = cfg.sweep_parameter, list(cfg.sweep_values)
        pipeline = cfg.sweep_pipeline
        tasks = [
            (replace(cfg, sweep_values=()), parameter, value, pipeline,
             os.path.join(base_dir, f"{parameter}_{k:03d}"))
            for k, value in enumerate(values)
        ]
        if jobs > 1:
            # multiprocessing and its imports load only for a parallel sweep
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(_sweep_point, tasks))
        else:
            outcomes = [_sweep_point(task) for task in tasks]
        results = [(value, summary, err) for value, (summary, err) in zip(values, outcomes)]

        columns = _SWEEP_COLUMNS[pipeline]
        rows = [
            [value, float(summary is not None),
             *(_aggregate_entries(summary or {}).get(c, np.nan) for c in columns)]
            for value, summary, _ in results
        ]
        _write_csv(out.path("aggregate.csv"), [parameter, "status", *columns], list(zip(*rows)))
        failures = {str(v): e for v, _, e in results if e is not None}
        agg = {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "pipeline": f"sweep-{pipeline}",
            "parameter": parameter,
            "values": values,
            "failures": failures,
        }
        _write_json(out.path("sweep.json"), _json_scrub(agg))
        if failures:
            out.status = "partial"
        return agg, results


def run_analyze(contrast_csv, cfg, directory=None):
    """Re-run the observable layer on an existing contrast.csv."""
    with OutputSet(directory or cfg.directory, cfg) as out:
        header, data = read_csv(contrast_csv)
        if header[:3] != ["t", "re_s", "im_s"]:
            raise UsageError(f"{contrast_csv}: expected columns t, re_s, im_s, ...")
        t = data[:, 0]
        if t.size < 2:
            raise UsageError("contrast series too short")
        dts = np.diff(t)
        if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
            raise UsageError("contrast series is not uniformly sampled")
        s = obs.TimeSeries(float(t[0]), float(dts[0]), data[:, 1] + 1j * data[:, 2])
        summary = _contrast_files(out, s, cfg)
        summary.update(
            {
                "schema_version": SUMMARY_SCHEMA_VERSION,
                "pipeline": "analyze",
                "tier": cfg.tier,
                "input": os.path.abspath(contrast_csv),
            }
        )
        _write_json(out.path("summary.json"), _json_scrub(summary))
        return summary
