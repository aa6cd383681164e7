"""Scenario orchestration: relax / quench / breathing / sweep pipelines with
deterministic CSV/JSON outputs and a manifest of checksums and diagnostics.

CSV files carry one header row and 17-significant-digit decimals so a
read-back reproduces the in-memory values exactly. The manifest is written
atomically after all other files.
"""

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from . import effpot as ep
from . import exactdiag as ed
from . import meanfield as mf
from . import observables as obs
from .config import sweep_value_errors
from .errors import ConfigurationError, PolaronError, UsageError
from .grid import build_grid, ho_mode_basis

SUMMARY_SCHEMA_VERSION = 1


# --- deterministic writers ---------------------------------------------------


def _write_csv(path, header, columns):
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(f"{float(c[i]):.17g}" for c in columns) + "\n")


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
    `status` when the block completes, "failed" when it raises.
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
        self.write_manifest("failed" if exc_type is not None else self.status)
        return False

    def path(self, name):
        self.files.append(name)
        return os.path.join(self.directory, name)

    def write_manifest(self, status="ok"):
        manifest = {
            "code_version": __version__,
            "status": status,
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
        return manifest


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
    return mf.MeanFieldSystem(
        n_bath=cfg.n_bath,
        g_bb=cfg.g_bb,
        g_bi=g_bi,
        omega_b=cfg.omega_b,
        omega_i=cfg.omega_i_initial if omega_i is None else omega_i,
    )


def _density_source(cfg, grid):
    """Frozen bath density for the effpot tier per cfg.source."""
    if cfg.source == "tf":
        profile = mf.thomas_fermi(_mf_system(cfg, 0.0))
        return profile, "TF-analytic"
    if cfg.source == "relaxed":
        state, _ = mf.relax_ground_state(_mf_system(cfg, cfg.g_bi_initial), grid)
        return state.bath.density(cfg.n_bath), "relaxed-MF-density"
    density = ep.load_density_file(cfg.source, grid)
    total = float(np.sum(np.real(density.values)) * grid.dx)
    if total <= 0:
        raise ConfigurationError(f"density file {cfg.source} integrates to zero")
    scale = cfg.n_bath / total
    if abs(scale - 1.0) > 0.05:
        density = type(density)(grid, density.values * scale)
    return density, "externally-supplied"


def _contrast_files(out, s_series, cfg, alpha=None, beta=None):
    alpha = cfg.alpha if alpha is None else alpha
    beta = cfg.beta if beta is None else beta
    svals = np.asarray(s_series.values, dtype=np.complex128)
    t = s_series.times
    _write_csv(
        out.path("contrast.csv"),
        ["t", "re_s", "im_s", "abs_s", "phase"],
        [t, svals.real, svals.imag, np.abs(svals), np.unwrap(np.angle(svals))],
    )
    spec = obs.spectral_function(s_series, window="hann", pad_factor=8)
    _write_csv(out.path("spectrum.csv"), ["omega", "a"], [spec.omegas, spec.values])
    peaks = obs.find_peaks(spec, threshold_frac=0.05)
    weighted = obs.general_weights_contrast(s_series, alpha, beta)
    summary = {
        "peaks": peaks,
        "frequency_resolution": spec.resolution,
        "min_contrast": float(np.min(np.abs(svals))),
        "min_weighted_contrast": float(np.min(weighted.values)),
        "alpha": alpha,
        "beta": beta,
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


# --- pipelines ----------------------------------------------------------------


def run_relax(cfg, directory=None):
    """Ground-state preparation only; writes densities, energies, summary."""
    with OutputSet(directory or cfg.directory, cfg) as out:
        grid = build_grid(cfg.n_points, cfg.x_max)
        sys_pre = _mf_system(cfg, cfg.g_bi_initial)
        state, res = mf.relax_ground_state(
            sys_pre, grid, alpha=cfg.alpha, beta=cfg.beta
        )
        dens_b = state.bath.density(cfg.n_bath)
        dens_u = state.impurity.up.density()
        _write_csv(
            out.path("densities.csv"),
            ["x", "rho_bath", "rho_up", "rho_down"],
            [grid.x, np.real(dens_b.values), np.real(dens_u.values), np.real(dens_u.values)],
        )
        bd = res.breakdown
        _write_csv(
            out.path("energies.csv"),
            ["kinetic_b", "potential_b", "kinetic_i", "potential_i", "intra_bb", "inter_bi", "total"],
            [[bd.kinetic_b], [bd.potential_b], [bd.kinetic_i], [bd.potential_i],
             [bd.intra_bb], [bd.inter_bi], [bd.total]],
        )
        virial = obs.virial_check(bd)
        tf_profile = mf.thomas_fermi(sys_pre) if cfg.g_bb > 0 else None
        summary = {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "pipeline": "relax",
            "tier": "meanfield",
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
        _write_json(out.path("summary.json"), _json_scrub(summary))
        out.diagnostics.update(
            {
                "virial_relative": summary["virial_relative"],
                "stationarity_residual": max(res.residual_bath, res.residual_impurity),
            }
        )
        return summary


def _run_quench_meanfield(cfg, out, grid):
    sys_pre = _mf_system(cfg, cfg.g_bi_initial)
    sys_post = _mf_system(cfg, cfg.g_bi_final)
    state, res = mf.relax_ground_state(sys_pre, grid, alpha=cfg.alpha, beta=cfg.beta)
    traj, series = mf.propagate(
        state, sys_post, dt=cfg.dt, t_max=cfg.t_max, record_every=cfg.record_every
    )
    bundle = mf.mean_field_contrast(traj, state, sys_post)
    summary = _contrast_files(out, bundle.s, cfg)
    _write_csv(
        out.path("energies.csv"),
        ["t", "kinetic_b", "potential_b", "kinetic_i", "potential_i", "intra_bb", "inter_bi", "total"],
        [series["energy_total"].times]
        + [series[k].values for k in ("kinetic_b", "potential_b", "kinetic_i",
                                      "potential_i", "intra_bb", "inter_bi", "energy_total")],
    )
    snaps = [0, len(traj) // 2, len(traj) - 1]
    cols = [grid.x]
    names = ["x"]
    for idx in snaps:
        st = traj[idx]
        cols += [
            np.real(st.bath.density(cfg.n_bath).values),
            np.real(st.impurity.up.density().values),
            np.real(st.impurity.down.density().values),
        ]
        tag = f"t{st.time:g}"
        names += [f"rho_bath_{tag}", f"rho_up_{tag}", f"rho_down_{tag}"]
    _write_csv(out.path("densities.csv"), names, cols)
    final = traj[-1]
    lam = obs.miscibility_overlap(final.impurity.up.density(), final.impurity.down.density())
    summary.update(
        {
            "energy_reference": state.energy_reference,
            "miscibility_final": lam,
            "norm_drift": float(
                max(abs(np.asarray(series["norm_bath"].values) - 1.0).max(),
                    abs(np.asarray(series["norm_up"].values) - 1.0).max())
            ),
            "energy_drift": float(
                np.max(np.abs(np.asarray(series["energy_total"].values)
                              - series["energy_total"].values[0]))
            ),
        }
    )
    out.diagnostics.update(
        {"norm_drift": summary["norm_drift"], "energy_drift": summary["energy_drift"]}
    )
    return summary


def _run_quench_effpot(cfg, out, grid):
    source, source_tag = _density_source(cfg, grid)
    pot = ep.build_effective_potential(
        source, cfg.g_bi_final, grid=grid, omega_trap=cfg.omega_i_initial
    )
    spec = ep.eigensolve(pot, n_eig=cfg.n_eig)
    contrast = ep.effpot_contrast(
        spec,
        t_max=cfg.t_max,
        dt=max(cfg.dt, 0.02),
        e_reference=0.5 * cfg.omega_i_initial,
    )
    summary = _contrast_files(out, contrast.series, cfg)
    _write_csv(
        out.path("energies.csv"),
        ["n", "energy", "weight", "box_contaminated"],
        [np.arange(spec.n_eig), spec.energies, contrast.weights,
         spec.box_contaminated.astype(float)],
    )
    rho = (
        source.density_values(grid.x)
        if isinstance(source, mf.ThomasFermiProfile)
        else np.real(source.values)
    )
    init = ep.bare_ground_state(grid, omega=cfg.omega_i_initial)
    _write_csv(
        out.path("densities.csv"),
        ["x", "rho_bath", "v_eff", "rho_impurity_t0"],
        [grid.x, rho, pot.values, np.abs(init.values) ** 2],
    )
    summary.update(
        {
            "source": source_tag,
            "curvature_at_origin": pot.curvature_at_origin(),
            "well_minima": pot.well_minima(),
            "weights_sum": float(np.sum(contrast.weights)),
        }
    )
    return summary


def _run_quench_ed(cfg, out, grid):
    # the spin-down branch is evolved as the pure phase exp(-i E0 t), which
    # holds only when the initial state is an eigenstate of the spin-down
    # Hamiltonian: no initial bath-impurity coupling and no trap change
    if cfg.g_bi_initial != 0.0:
        raise ConfigurationError(
            f"tier ed needs system.g_bi_initial = 0, got {cfg.g_bi_initial}: the "
            "spin-down branch is evolved as the phase exp(-i E0 t)"
        )
    if cfg.omega_i_final != cfg.omega_i_initial:
        raise ConfigurationError(
            f"tier ed needs system.omega_i_final = omega_i_initial "
            f"({cfg.omega_i_initial}), got {cfg.omega_i_final}: the spin-down "
            "branch is evolved as the phase exp(-i E0 t)"
        )
    basis = ho_mode_basis(grid, cfg.n_modes)
    fock = ed.build_fock_basis(cfg.n_bath, cfg.n_modes, dim_guard=cfg.dim_guard)
    h_pre = ed.build_hamiltonian(
        fock, cfg.g_bb, cfg.g_bi_initial, omega_i=cfg.omega_i_initial, basis=basis
    )
    v0, e0 = ed.ground_state(h_pre)
    h_post = ed.build_hamiltonian(
        fock, cfg.g_bb, cfg.g_bi_final, omega_i=cfg.omega_i_final, basis=basis
    )
    traj = ed.propagate_krylov(
        h_post, v0, dt=cfg.dt, t_max=cfg.t_max, record_every=cfg.record_every
    )
    s_series = ed.ed_contrast(traj, v0, e0)
    summary = _contrast_files(out, s_series, cfg)

    n_rec = traj.times.size
    svn = np.empty(n_rec)
    lam1 = np.empty(n_rec)
    lam2 = np.empty(n_rec)
    energies = {key: np.empty(n_rec) for key in (
        "kinetic_b", "potential_b", "kinetic_i", "potential_i", "intra_bb", "inter_bi", "total")}
    for k in range(n_rec):
        vec = traj.vector(k)
        dec = ed.schmidt(vec)
        ent = ed.entropy_and_populations(dec)
        svn[k] = ent["s_vn"]
        pops = ent["natural_populations"]
        lam1[k] = pops[0]
        lam2[k] = pops[1] if pops.size > 1 else 0.0
        bd = ed.energy_breakdown(vec, h_post)
        for key in energies:
            energies[key][k] = getattr(bd, key) if key != "total" else bd.total
    _write_csv(
        out.path("entropy.csv"),
        ["t", "s_vn", "lambda_1", "lambda_2"],
        [traj.times, svn, lam1, lam2],
    )
    _write_csv(
        out.path("energies.csv"),
        ["t", "kinetic_b", "potential_b", "kinetic_i", "potential_i", "intra_bb", "inter_bi", "total"],
        [traj.times] + [energies[k] for k in (
            "kinetic_b", "potential_b", "kinetic_i", "potential_i", "intra_bb", "inter_bi", "total")],
    )
    rho_b0 = ed.one_body_density(h_post, traj.vector(0), "bath")
    rho_u0 = ed.one_body_density(h_post, traj.vector(0), "impurity")
    rho_bT = ed.one_body_density(h_post, traj.vector(n_rec - 1), "bath")
    rho_uT = ed.one_body_density(h_post, traj.vector(n_rec - 1), "impurity")
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
        {"norm_drift": traj.max_norm_drift, "energy_drift": summary["energy_drift"]}
    )
    return summary


def run_quench(cfg, directory=None):
    """Relax -> quench -> propagate -> observables for the configured tier."""
    with OutputSet(directory or cfg.directory, cfg) as out:
        grid = build_grid(cfg.n_points, cfg.x_max)
        if cfg.tier == "meanfield":
            summary = _run_quench_meanfield(cfg, out, grid)
        elif cfg.tier == "effpot":
            summary = _run_quench_effpot(cfg, out, grid)
        elif cfg.tier == "ed":
            summary = _run_quench_ed(cfg, out, grid)
        else:
            raise ConfigurationError(f"unknown tier {cfg.tier!r}")
        summary.update(
            {
                "schema_version": SUMMARY_SCHEMA_VERSION,
                "pipeline": "quench",
                "tier": cfg.tier,
                "g_bi_initial": cfg.g_bi_initial,
                "g_bi_final": cfg.g_bi_final,
            }
        )
        _write_json(out.path("summary.json"), _json_scrub(summary))
        return summary


def run_breathing(cfg, directory=None):
    """Trap-frequency quench in the effpot (default) or meanfield tier.

    Writes variance.csv and omega_br.json. The effective-mass fit runs on an
    interaction-quench companion series (bare impurity released into the
    effective potential built with the pre-quench trap) where the closed-form
    model applies; fit failures are surfaced in the output, not raised.
    """
    if cfg.omega_i_initial == cfg.omega_i_final:
        raise ConfigurationError(
            "breathing run needs omega_i_initial != omega_i_final"
        )
    with OutputSet(directory or cfg.directory, cfg) as out:
        if cfg.tier not in ("meanfield", "effpot"):
            raise ConfigurationError(
                f"breathing run supports solver.tier meanfield or effpot, got {cfg.tier!r}"
            )
        grid = build_grid(cfg.n_points, cfg.x_max)
        payload = {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "pipeline": "breathing",
            "tier": cfg.tier,
            "g_bi": cfg.g_bi_final,
            "omega_i_initial": cfg.omega_i_initial,
            "omega_i_final": cfg.omega_i_final,
        }
        if cfg.tier == "meanfield":
            sys_pre = _mf_system(cfg, cfg.g_bi_final, omega_i=cfg.omega_i_initial)
            sys_post = _mf_system(cfg, cfg.g_bi_final, omega_i=cfg.omega_i_final)
            state, _ = mf.relax_ground_state(sys_pre, grid, alpha=cfg.alpha, beta=cfg.beta)
            traj, series = mf.propagate(
                state, sys_post, dt=cfg.dt, t_max=cfg.t_max, record_every=cfg.record_every
            )
            x_mean = series["x_mean_up"]
            x2 = series["x2_up"]
            p2 = series["p2_up"]
            var = obs.TimeSeries(
                x2.t0, x2.dt_sample,
                np.asarray(x2.values) - np.asarray(x_mean.values) ** 2,
            )
            omega_br, _ = obs.dominant_frequency(var)
        else:
            source, source_tag = _density_source(cfg, grid)

            def builder(omega):
                return ep.build_effective_potential(
                    source, cfg.g_bi_final, grid=grid, omega_trap=omega
                )

            br = ep.breathing_run(
                builder,
                cfg.omega_i_initial,
                cfg.omega_i_final,
                t_max=min(cfg.t_max, 120.0),
                dt=max(cfg.dt, 0.02),
                n_eig=cfg.n_eig,
            )
            x_mean, x2, p2 = br.series["x_mean"], br.series["x2"], br.series["p2"]
            omega_br = br.omega_br
            payload["source"] = source_tag
        _write_csv(
            out.path("variance.csv"),
            ["t", "x_mean", "x2", "p2", "variance"],
            [x2.times, x_mean.values, x2.values, p2.values,
             np.asarray(x2.values) - np.asarray(x_mean.values) ** 2],
        )
        payload["omega_br"] = float(omega_br)
        payload["fit_valid"] = False
        if cfg.tier == "effpot":
            om = cfg.omega_i_initial
            try:
                moments, _ = ep.stationary_moments(
                    br.initial_spectrum, ep.bare_ground_state(grid, omega=om),
                    t_max=80.0, dt=0.02,
                )
                fit = ep.fit_effective_mass(
                    moments["x2"], moments["p2"], {"x2_0": 1.0 / (2.0 * om), "p2_0": om / 2.0}
                )
                payload.update(
                    {
                        "fit_valid": True,
                        "m_eff": fit.m_eff,
                        "omega_eff": fit.omega_eff,
                        "fit_residual": fit.residual,
                    }
                )
            except PolaronError as exc:
                payload["fit_error"] = str(exc)
        _write_json(out.path("omega_br.json"), _json_scrub(payload))
        return payload


def _sweep_point(task):
    """One sweep point: (summary, None), or (None, message) when it fails."""
    cfg, parameter, value, pipeline, directory = task
    run = run_breathing if pipeline == "breathing" else run_quench
    try:
        setattr(cfg, parameter, type(getattr(cfg, parameter))(value))
        return run(cfg, directory=directory), None
    except Exception as exc:  # noqa: BLE001 - record and continue
        return None, str(exc)


def run_sweep(cfg, parameter=None, values=None, pipeline=None, jobs=1, directory=None):
    """Independent runs over a parameter list plus a deterministic aggregate.

    Individual failures are recorded in the aggregate (manifest status
    "partial") and the sweep continues.
    """
    parameter = parameter or cfg.sweep_parameter
    values = list(values if values is not None else cfg.sweep_values)
    pipeline = pipeline or cfg.sweep_pipeline
    if not parameter:
        raise ConfigurationError("sweep needs a parameter")
    if not values:
        raise ConfigurationError("sweep needs a non-empty value list")
    problems = sweep_value_errors(parameter, values)
    if problems:
        raise ConfigurationError("; ".join(problems), errors=problems)
    base_dir = directory or cfg.directory
    with OutputSet(base_dir, cfg) as out:
        tasks = [
            (replace(cfg, sweep_values=()), parameter, value, pipeline,
             os.path.join(base_dir, f"{parameter}_{k:03d}"))
            for k, value in enumerate(values)
        ]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(_sweep_point, tasks))
        else:
            outcomes = [_sweep_point(task) for task in tasks]
        results = [(value, summary, err) for value, (summary, err) in zip(values, outcomes)]

        header = [parameter, "status"]
        if pipeline == "breathing":
            header += ["omega_br", "m_eff", "omega_eff"]
            rows = []
            for value, summary, err in results:
                if summary is None:
                    rows.append([value, 0.0, float("nan"), float("nan"), float("nan")])
                else:
                    rows.append([
                        value, 1.0, summary.get("omega_br", float("nan")),
                        summary.get("m_eff", float("nan")),
                        summary.get("omega_eff", float("nan")),
                    ])
        else:
            header += ["min_contrast", "region_code", "peak1_omega", "peak2_omega",
                       "peak3_omega", "entropy_mean"]
            region_codes = {"R_I": 1.0, "R_II": 2.0, "R_III": 3.0, "borderline": 1.5,
                            "not-evaluated": 0.0}
            rows = []
            for value, summary, err in results:
                if summary is None:
                    rows.append([value, 0.0] + [float("nan")] * 6)
                    continue
                peaks = sorted(summary.get("peaks", []), key=lambda p: -p["height"])[:3]
                peaks_om = sorted(p["omega"] for p in peaks)
                while len(peaks_om) < 3:
                    peaks_om.append(float("nan"))
                rows.append([
                    value, 1.0, summary.get("min_contrast", float("nan")),
                    region_codes.get(summary["region"]["region"], 0.0),
                    *peaks_om,
                    summary.get("entropy_mean", float("nan")),
                ])
        columns = [np.array([r[i] for r in rows]) for i in range(len(header))]
        _write_csv(out.path("aggregate.csv"), header, columns)
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
