"""Experiment configuration: a flat `key = value` text format with bracketed
section headers, validated with line-anchored messages and echoed defaults.

Each key is declared once, as a field of `ExperimentConfig`: the field's
metadata holds its `section.key` and its rule, a test of (value, config)
with the message that states it; its annotation picks the parser and its
default is the value of an omitted key. The sections, the key lookup, the
parsers and the checks all read those fields. Every error starts with the
line that set the key, `line N:`, or with `default:` when the key was
omitted (a default of beta that does not pair with a configured alpha).
"""

import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigurationError

TIERS = ("meanfield", "effpot", "ed")
SWEEP_PARAMETERS = ("g_bi_final", "g_bb", "n_bath", "n_modes")


def _key(key, default, rule=None):
    """A config field: its `section.key`, its default and its rule, a pair
    (test(value, cfg), message) whose message may name {value} and {cfg}."""
    return field(default=default, metadata={"key": key, "rule": rule})


def _at_least(lo, note=""):
    return (lambda v, cfg: v >= lo), f"must be >= {lo}{note}"


def _in_range(lo, hi):
    return (lambda v, cfg: lo <= v <= hi), f"must be in {lo}..{hi}"


def _one_of(choices):
    return (lambda v, cfg: v in choices), f"must be one of {choices}, got {{value!r}}"


_POSITIVE = (lambda v, cfg: v > 0), "must be > 0"
_REPULSIVE = _at_least(0, " (repulsive model)")
_NORMALISED = (
    (lambda v, cfg: abs(cfg.alpha**2 + v**2 - 1.0) <= 1e-10),
    "must satisfy alpha^2 + beta^2 = 1 with system.alpha = {cfg.alpha:.12g}, got {value:.12g}",
)
_NON_EMPTY = (lambda v, cfg: v != ""), "must not be empty"
_SOURCE = (
    (lambda v, cfg: v in ("tf", "relaxed") or os.path.isfile(v)),
    "must be tf, relaxed or a density file; no file {value!r}",
)


@dataclass
class ExperimentConfig:
    n_bath: int = _key("system.n_bath", 100, _at_least(1))
    g_bb: float = _key("system.g_bb", 0.5, _REPULSIVE)
    g_bi_initial: float = _key("system.g_bi_initial", 0.0, _REPULSIVE)
    g_bi_final: float = _key("system.g_bi_final", 0.25, _REPULSIVE)
    omega_b: float = _key("system.omega_b", 1.0, _POSITIVE)
    omega_i_initial: float = _key("system.omega_i_initial", 1.0, _POSITIVE)
    omega_i_final: float = _key("system.omega_i_final", 1.0, _POSITIVE)
    alpha: float = _key("system.alpha", 1.0 / np.sqrt(2.0))
    beta: float = _key("system.beta", 1.0 / np.sqrt(2.0), _NORMALISED)
    n_points: int = _key("grid.n_points", 450, _at_least(16))
    x_max: float = _key("grid.x_max", 40.0, _POSITIVE)
    dt: float = _key("time.dt", 5e-4, _POSITIVE)
    t_max: float = _key("time.t_max", 100.0, _POSITIVE)
    record_every: int = _key("time.record_every", 100, _at_least(1))
    tier: str = _key("solver.tier", "meanfield", _one_of(TIERS))
    n_modes: int = _key("solver.ed.n_modes", 10, _in_range(1, 40))
    dim_guard: int = _key("solver.ed.dim_guard", 5_000_000, _at_least(1))
    source: str = _key("solver.effpot.source", "relaxed", _SOURCE)
    n_eig: int = _key("solver.effpot.n_eig", 40, _in_range(1, 60))
    # empty for no sweep; each value meets the swept key's rule (sweep_value_errors)
    sweep_parameter: str = _key("sweep.parameter", "", _one_of(("",) + SWEEP_PARAMETERS))
    sweep_values: tuple = _key("sweep.values", ())
    sweep_pipeline: str = _key("sweep.pipeline", "quench", _one_of(("quench", "breathing")))
    directory: str = _key("output.directory", "output", _NON_EMPTY)

    def echo(self):
        d = asdict(self)
        d["sweep_values"] = list(self.sweep_values)
        return d


def _finite(raw):
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


# annotation -> (parser, what the parser reads)
_PARSERS = {
    int: (int, "int"),
    float: (_finite, "float"),
    str: (str, "str"),
    tuple: (lambda raw: tuple(_finite(tok) for tok in raw.split(",") if tok.strip()), "floats"),
}
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_KEYS = {f.metadata["key"]: f for f in _FIELDS.values()}
_SECTIONS = {key.rpartition(".")[0] for key in _KEYS}


def _refusal(f, value, cfg):
    """The message of the field's rule refusing `value`, or None."""
    rule = f.metadata["rule"]
    if rule and not rule[0](value, cfg):
        return f"{f.metadata['key']} " + rule[1].format(value=value, cfg=cfg)
    return None


def validate_config(text):
    """Parse and validate config text; returns ExperimentConfig or raises
    ConfigurationError carrying the full line-anchored error list."""
    cfg = ExperimentConfig()
    errors = []
    section = None
    lines = {}  # field name -> the line that set it
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
        f = _KEYS.get(f"{section}.{key}")
        if f is None:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if f.name in lines:
            errors.append(f"line {lineno}: duplicate key {key!r} in section [{section}]")
            continue
        lines[f.name] = lineno
        parse, kind = _PARSERS[f.type]
        try:
            setattr(cfg, f.name, parse(raw))
        except ValueError:
            errors.append(f"line {lineno}: cannot parse {raw!r} as {kind}")

    def anchor(name):
        return f"line {lines[name]}" if name in lines else "default"

    for f in _FIELDS.values():
        message = _refusal(f, getattr(cfg, f.name), cfg)
        if message:
            errors.append(f"{anchor(f.name)}: {message}")
    errors += [f"{anchor('sweep_values')}: {m}" for m in sweep_value_errors(cfg)]
    if errors:
        raise ConfigurationError(
            "invalid configuration:\n  " + "\n  ".join(errors), errors=errors
        )
    if "OUTPUT_DIR" in os.environ:
        cfg.directory = os.environ["OUTPUT_DIR"]
    return cfg


def sweep_value_errors(cfg):
    """Messages for sweep values the swept key cannot take, each prefixed
    with sweep.values: a fraction for an integer key (n_bath = 2.7 must not
    run as 2), and the refusal of each value by the key's own rule."""
    parameter = cfg.sweep_parameter
    if parameter not in SWEEP_PARAMETERS:
        return []
    f = _FIELDS[parameter]
    errors = []
    if f.type is int:
        bad = [v for v in cfg.sweep_values if not float(v).is_integer()]
        if bad:
            errors.append(f"sweep.values must be whole numbers for {parameter}, got {bad}")
    refused = {}
    for value in cfg.sweep_values:
        message = _refusal(f, f.type(value), cfg)
        if message:
            refused.setdefault(message, []).append(value)
    errors += [f"sweep.values {vals} for {parameter}: {msg}" for msg, vals in refused.items()]
    return errors


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(fh.read())
