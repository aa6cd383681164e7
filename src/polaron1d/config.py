"""Experiment configuration: a flat `key = value` text format with bracketed
section headers, validated with line-anchored messages and echoed defaults.

Sections and keys:

    [system]  n_bath, g_bb, g_bi_initial, g_bi_final, omega_b,
              omega_i_initial, omega_i_final, alpha, beta
    [grid]    n_points, x_max
    [time]    dt, t_max, record_every
    [solver]  tier (meanfield | effpot | ed)
    [solver.ed]      n_modes, dim_guard
    [solver.effpot]  source (tf | relaxed | <path>), n_eig
    [sweep]   parameter, values (comma list), pipeline (quench | breathing)
    [output]  directory
"""

import os
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigurationError

TIERS = ("meanfield", "effpot", "ed")
SWEEP_PARAMETERS = ("g_bi_final", "g_bb", "n_bath", "n_modes")
INTEGER_SWEEP_PARAMETERS = ("n_bath", "n_modes")


@dataclass
class ExperimentConfig:
    # system
    n_bath: int = 100
    g_bb: float = 0.5
    g_bi_initial: float = 0.0
    g_bi_final: float = 0.25
    omega_b: float = 1.0
    omega_i_initial: float = 1.0
    omega_i_final: float = 1.0
    alpha: float = 1.0 / np.sqrt(2.0)
    beta: float = 1.0 / np.sqrt(2.0)
    # grid
    n_points: int = 450
    x_max: float = 40.0
    # time
    dt: float = 5e-4
    t_max: float = 100.0
    record_every: int = 100
    # solver
    tier: str = "meanfield"
    n_modes: int = 10
    dim_guard: int = 5_000_000
    source: str = "relaxed"
    n_eig: int = 40
    # sweep
    sweep_parameter: str = ""
    sweep_values: tuple = ()
    sweep_pipeline: str = "quench"
    # output
    directory: str = "output"

    def echo(self):
        d = asdict(self)
        d["sweep_values"] = list(self.sweep_values)
        return d


_SCHEMA = {
    ("system", "n_bath"): ("n_bath", int),
    ("system", "g_bb"): ("g_bb", float),
    ("system", "g_bi_initial"): ("g_bi_initial", float),
    ("system", "g_bi_final"): ("g_bi_final", float),
    ("system", "omega_b"): ("omega_b", float),
    ("system", "omega_i_initial"): ("omega_i_initial", float),
    ("system", "omega_i_final"): ("omega_i_final", float),
    ("system", "alpha"): ("alpha", float),
    ("system", "beta"): ("beta", float),
    ("grid", "n_points"): ("n_points", int),
    ("grid", "x_max"): ("x_max", float),
    ("time", "dt"): ("dt", float),
    ("time", "t_max"): ("t_max", float),
    ("time", "record_every"): ("record_every", int),
    ("solver", "tier"): ("tier", str),
    ("solver.ed", "n_modes"): ("n_modes", int),
    ("solver.ed", "dim_guard"): ("dim_guard", int),
    ("solver.effpot", "source"): ("source", str),
    ("solver.effpot", "n_eig"): ("n_eig", int),
    ("sweep", "parameter"): ("sweep_parameter", str),
    ("sweep", "values"): ("sweep_values", "floats"),
    ("sweep", "pipeline"): ("sweep_pipeline", str),
    ("output", "directory"): ("directory", str),
}

_SECTIONS = sorted({sec for sec, _ in _SCHEMA})


def _finite(raw):
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _parse_value(raw, kind, where, errors):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return _finite(raw)
        if kind is str:
            return raw
        if kind == "floats":
            return tuple(_finite(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        errors.append(f"{where}: cannot parse {raw!r} as {getattr(kind, '__name__', kind)}")
    return None


def validate_config(text):
    """Parse and validate config text; returns ExperimentConfig or raises
    ConfigurationError carrying the full line-anchored error list."""
    cfg = ExperimentConfig()
    errors = []
    section = None
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any [section]")
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if (section, key) not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if (section, key) in seen:
            errors.append(f"line {lineno}: duplicate key {key!r} in section [{section}]")
            continue
        seen.add((section, key))
        attr, kind = _SCHEMA[(section, key)]
        value = _parse_value(raw, kind, f"line {lineno}", errors)
        if value is not None:
            setattr(cfg, attr, value)

    _semantic_checks(cfg, errors)
    if errors:
        raise ConfigurationError(
            "invalid configuration:\n  " + "\n  ".join(errors), errors=errors
        )
    if "OUTPUT_DIR" in os.environ:
        cfg.directory = os.environ["OUTPUT_DIR"]
    return cfg


def _semantic_checks(cfg, errors):
    if cfg.tier not in TIERS:
        errors.append(f"solver.tier must be one of {TIERS}, got {cfg.tier!r}")
    for name in ("g_bb", "g_bi_initial", "g_bi_final"):
        if getattr(cfg, name) < 0:
            errors.append(f"system.{name} must be >= 0 (repulsive model)")
    for name in ("omega_b", "omega_i_initial", "omega_i_final"):
        if getattr(cfg, name) <= 0:
            errors.append(f"system.{name} must be > 0")
    if cfg.n_bath < 1:
        errors.append("system.n_bath must be >= 1")
    if abs(cfg.alpha**2 + cfg.beta**2 - 1.0) > 1e-10:
        errors.append(
            f"system.alpha/beta must satisfy alpha^2 + beta^2 = 1 "
            f"(got {cfg.alpha**2 + cfg.beta**2:.12g})"
        )
    if cfg.n_points < 16:
        errors.append("grid.n_points must be >= 16")
    if cfg.x_max <= 0:
        errors.append("grid.x_max must be > 0")
    if cfg.dt <= 0 or cfg.t_max <= 0:
        errors.append("time.dt and time.t_max must be > 0")
    if cfg.record_every < 1:
        errors.append("time.record_every must be >= 1")
    if not 1 <= cfg.n_modes <= 40:
        errors.append("solver.ed.n_modes must be in 1..40")
    if cfg.n_eig < 1 or cfg.n_eig > 60:
        errors.append("solver.effpot.n_eig must be in 1..60")
    if cfg.source not in ("tf", "relaxed") and not os.path.isfile(cfg.source):
        errors.append(
            f"solver.effpot.source must be tf, relaxed or a density file; "
            f"no file {cfg.source!r}"
        )
    if cfg.sweep_parameter and cfg.sweep_parameter not in SWEEP_PARAMETERS:
        errors.append(f"sweep.parameter must be one of {SWEEP_PARAMETERS}")
    if cfg.sweep_pipeline not in ("quench", "breathing"):
        errors.append("sweep.pipeline must be 'quench' or 'breathing'")
    errors.extend(sweep_value_errors(cfg.sweep_parameter, cfg.sweep_values))


def sweep_value_errors(parameter, values):
    """Messages for sweep values an integer parameter cannot take exactly
    (n_bath = 2.7 must not run as 2)."""
    if parameter not in INTEGER_SWEEP_PARAMETERS:
        return []
    bad = [v for v in values if not float(v).is_integer()]
    if not bad:
        return []
    return [f"sweep.values must be whole numbers for {parameter}, got {bad}"]


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(fh.read())
