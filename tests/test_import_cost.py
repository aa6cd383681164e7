"""Start-up guard: importing the CLI and the runner, a mean-field or effpot
quench, and an effpot sweep load no scipy module. grid.py runs on numpy.fft,
effpot solves with numpy.linalg.eigh, and the runner imports a tier's module
only when a run of that tier starts, so an ED quench loads neither meanfield
nor effpot, a mean-field quench does not load effpot, and an effpot quench
does not load exactdiag. exactdiag, the one module with a module-level scipy
import, imports scipy.sparse only: its ground state and its Krylov steps run
on the package's own Lanczos recurrence, so an ED quench loads neither
scipy.linalg nor scipy.sparse.linalg, and no package module imports either.
The least-squares fits, which only breathing runs and the merged-lobe
fallback reach, import scipy.optimize inside the function. The sweep's
process pool, and with it multiprocessing, loads only when a sweep runs with
more than one job."""

import os
import subprocess
import sys

import pytest
from test_fft_imports import PACKAGE, scipy_imports

SOURCES = sorted(PACKAGE.glob("*.py"))
SCIPY_OWNER = "exactdiag.py"
LINEAR_ALGEBRA = ("scipy.linalg", "scipy.sparse.linalg")
LOADED_SCIPY = (
    "print(*[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
)

QUENCH = """
[system]
n_bath = {n_bath}
g_bb = 0.5
g_bi_final = 1.0
[time]
dt = {dt}
t_max = {t_max}
record_every = {record_every}
[solver]
tier = {tier}
{extra}
[output]
directory = {outdir}
"""
TINY = {
    "meanfield": {
        "n_bath": 10,
        "dt": 5e-4,
        "t_max": 0.2,
        "record_every": 100,
        "extra": "",
    },
    "effpot": {
        "n_bath": 10,
        "dt": 0.05,
        "t_max": 2,
        "record_every": 1,
        "extra": "[solver.effpot]\nsource = tf",
    },
    "ed": {
        "n_bath": 2,
        "dt": 0.1,
        "t_max": 2,
        "record_every": 5,
        "extra": "[solver.ed]\nn_modes = 6",
    },
}


def _fresh_process(code):
    """Stdout of `code` run in a new interpreter that imports the package."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def _quench_code(tier, outdir):
    text = QUENCH.format(tier=tier, outdir=outdir, **TINY[tier])
    return (
        "from polaron1d import config, runner\n"
        f"summary = runner.run_quench(config.validate_config({text!r}))\n"
        "assert summary['tier'] == " + repr(tier) + "\n"
    )


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    assert _fresh_process("import polaron1d.cli, polaron1d.runner\n" + LOADED_SCIPY).split() == []


def test_multiprocessing_loads_only_for_a_parallel_sweep(tmp_path):
    loaded = "print('multiprocessing' in sys.modules)\n"
    code = (
        "import polaron1d.cli, polaron1d.runner\n"
        + loaded
        + _quench_code("meanfield", tmp_path / "run")
        + loaded
    )
    assert _fresh_process(code).split() == ["False", "False"]


@pytest.mark.parametrize("tier", ["meanfield", "effpot"])
def test_quench_loads_no_scipy(tier, tmp_path):
    code = _quench_code(tier, tmp_path / "run") + LOADED_SCIPY
    assert _fresh_process(code).split() == []


def test_ed_quench_loads_exactdiag_when_it_starts(tmp_path):
    code = (
        "import polaron1d.runner\n"
        "print('polaron1d.exactdiag' in sys.modules)\n"
        + _quench_code("ed", tmp_path / "run")
        + "print('polaron1d.exactdiag' in sys.modules)\n"
    )
    assert _fresh_process(code).split() == ["False", "True"]
    assert (tmp_path / "run" / "entropy.csv").exists()


@pytest.mark.parametrize(
    "tier, unloaded",
    [
        ("ed", ["polaron1d.effpot", "polaron1d.meanfield"]),
        ("meanfield", ["polaron1d.effpot"]),
        ("effpot", ["polaron1d.exactdiag"]),
    ],
)
def test_quench_loads_only_its_tier(tier, unloaded, tmp_path):
    loaded = f"print(*[m in sys.modules for m in {unloaded!r}])\n"
    code = _quench_code(tier, tmp_path / "run") + loaded
    assert _fresh_process(code).split() == ["False"] * len(unloaded)


def test_effpot_sweep_loads_no_scipy(tmp_path):
    text = QUENCH.format(tier="effpot", outdir=tmp_path / "sweep", **TINY["effpot"])
    text += "[sweep]\nparameter = g_bi_final\nvalues = 0.5, 1.0\n"
    code = (
        "from polaron1d import config, runner\n"
        f"agg, _ = runner.run_sweep(config.validate_config({text!r}))\n"
        "assert agg['failures'] == {}\n"
        + LOADED_SCIPY
    )
    assert _fresh_process(code).split() == []


def test_ed_quench_loads_scipy_sparse_only(tmp_path):
    code = _quench_code("ed", tmp_path / "run") + LOADED_SCIPY
    loaded = _fresh_process(code).split()
    assert "scipy.sparse" in loaded
    assert [m for m in loaded if m.startswith(LINEAR_ALGEBRA)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_linear_algebra(path):
    assert scipy_imports(path.read_text(encoding="utf-8"), LINEAR_ALGEBRA) == []


def test_checker_tracks_function_bodies():
    source = (
        "import scipy.signal as ss\n"
        "from scipy import optimize\n"
        "def fit():\n"
        "    from scipy.optimize import least_squares\n"
        "class Fit:\n"
        "    def run(self):\n"
        "        import scipy.optimize\n"
    )
    assert scipy_imports(source, ("scipy.signal", "scipy.optimize")) == [
        (1, "scipy.signal", False),
        (2, "scipy.optimize", False),
        (4, "scipy.optimize", True),
        (7, "scipy.optimize", True),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_signal(path):
    assert scipy_imports(path.read_text(encoding="utf-8"), ("scipy.signal",)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_optimize_only_inside_functions(path):
    found = scipy_imports(path.read_text(encoding="utf-8"), ("scipy.optimize",))
    assert [(line, module) for line, module, inside in found if not inside] == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != SCIPY_OWNER], ids=lambda p: p.name
)
def test_module_level_scipy_only_in_exactdiag(path):
    found = scipy_imports(path.read_text(encoding="utf-8"), ("scipy",))
    assert [(line, module) for line, module, inside in found if not inside] == []
