"""Lint: the sine-spectral kinetic operator has one home. Only grid.py may
import scipy.fft (or scipy.fftpack), so no second DST-I path can appear in
another module."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "polaron1d"
FFT_MODULES = ("scipy.fft", "scipy.fftpack")
OWNER = "grid.py"


def _is_fft(module):
    return any(module == m or module.startswith(m + ".") for m in FFT_MODULES)


def fft_imports(source):
    """(line, module) for every import of scipy.fft or scipy.fftpack, in any
    spelling: `import scipy.fft`, `from scipy.fft import dst`, `from scipy import fft`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if _is_fft(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if _is_fft(node.module):
                found.append((node.lineno, node.module))
                continue
            found += [
                (node.lineno, f"{node.module}.{a.name}")
                for a in node.names
                if _is_fft(f"{node.module}.{a.name}")
            ]
    return sorted(found)


def test_checker_flags_every_spelling():
    source = (
        "import numpy as np\n"
        "from scipy.fft import dst, idst\n"
        "import scipy.fftpack as fp\n"
        "from scipy import fft, linalg\n"
        "from scipy.linalg import eigh\n"
        "x = np.fft.fft([1.0])\n"
    )
    assert fft_imports(source) == [(2, "scipy.fft"), (3, "scipy.fftpack"), (4, "scipy.fft")]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != OWNER), ids=lambda p: p.name
)
def test_only_grid_imports_scipy_fft(path):
    assert fft_imports(path.read_text(encoding="utf-8")) == []
