"""The README's python blocks run as printed: the effpot sketch, the
mean-field quench and the exactdiag quench; its ini block is a valid config."""

import pathlib
import re

import numpy as np

from polaron1d.config import validate_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def blocks(language="python"):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def run_snippet(marker):
    """The namespace left by the README's one python block that contains
    `marker`, run in a fresh scope."""
    (block,) = [b for b in blocks() if marker in b]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    return scope


def test_every_python_block_is_covered():
    markers = ("ep.eigensolve", "mf.propagate", "exactdiag as ed")
    assert sorted(sum(m in b for m in markers) for b in blocks()) == [1, 1, 1]


def test_effpot_snippet_runs():
    scope = run_snippet("ep.eigensolve")
    assert scope["spec"].states.shape == (450, 40)
    assert abs(scope["contrast"].series.values[0] - 1.0) <= 1e-12


def test_meanfield_snippet_runs():
    scope = run_snippet("mf.propagate")
    s_t, traj = scope["s_t"], scope["traj"]
    assert s_t.values.size == traj.times.size == 101
    assert abs(s_t.values[0] - 1.0) <= 1e-12
    assert np.all(np.abs(s_t.values) <= 1.0 + 1e-12)
    assert scope["last"].time == traj.times[-1]


def test_exactdiag_snippet_runs():
    scope = run_snippet("exactdiag as ed")
    s_t, s_vn, h1 = scope["s_t"], scope["s_vn"], scope["h1"]
    assert scope["v0"].shape == (h1.dim,) == (3575,)
    assert s_t.values.size == s_vn.size == 101
    assert abs(s_t.values[0] - 1.0) <= 1e-12
    assert np.all(np.abs(s_t.values) <= 1.0 + 1e-12)
    assert s_vn[0] <= 1e-10 < s_vn[-1]


def test_ini_block_is_a_valid_config():
    (block,) = blocks("ini")
    cfg = validate_config(block)
    assert (cfg.tier, cfg.directory) == ("effpot", "runs/example")
