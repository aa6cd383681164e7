"""Start-up guard: importing the CLI and the runner loads neither
scipy.signal (with the scipy.stats it pulls in) nor scipy.optimize. Peaks are
found in numpy, and the least-squares fits, which only breathing runs and the
merged-lobe fallback reach, import scipy.optimize inside the function."""

import os
import subprocess
import sys

import pytest
from test_fft_imports import PACKAGE, scipy_imports

SLOW_IMPORTS = ("scipy.signal", "scipy.stats", "scipy.optimize")
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    code = (
        "import sys\n"
        "import polaron1d.cli, polaron1d.runner\n"
        f"print(*[m for m in {SLOW_IMPORTS!r} if m in sys.modules])\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []


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
