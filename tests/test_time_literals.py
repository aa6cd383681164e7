"""Lint: the runner passes the config's time keys, never a fixed window. No
call in runner.py has a number literal anywhere inside a `t_max=` or `dt=`
argument, so a cap such as `min(cfg.t_max, 120.0)` or a companion series at
`t_max=80.0, dt=0.02` cannot come back unseen. A floor the runner applies is
a named constant (EFFPOT_DT_FLOOR), read through `runner._record_clock`."""

import ast
import pathlib

RUNNER = pathlib.Path(__file__).resolve().parents[1] / "src" / "polaron1d" / "runner.py"


def time_literals(source):
    """(line, keyword, literal) of every number literal inside a `t_max=` or
    `dt=` keyword argument of a call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg not in ("t_max", "dt"):
                continue
            found += [
                (sub.lineno, kw.arg, sub.value)
                for sub in ast.walk(kw.value)
                if isinstance(sub, ast.Constant) and type(sub.value) in (int, float)
            ]
    return found


def test_checker_flags_literals_inside_time_arguments():
    source = (
        "run(t_max=min(cfg.t_max, 120.0), dt=max(cfg.dt, FLOOR))\n"
        "fit(x, t_max=80.0, dt=0.02)\n"
        "ok(cfg.t_max, 0.5, t_max=cfg.t_max, dt=step, n_eig=60)\n"
    )
    assert time_literals(source) == [(1, "t_max", 120.0), (2, "t_max", 80.0), (2, "dt", 0.02)]


def test_runner_passes_no_time_literal():
    assert time_literals(RUNNER.read_text(encoding="utf-8")) == []
