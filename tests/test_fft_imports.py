"""Lint: the sine-spectral kinetic operator has one home, grid.py, and it runs
on numpy.fft. No package module, grid.py included, imports scipy.fft (or
scipy.fftpack), so no second DST-I path can appear and no run pays scipy's
start-up for a transform. `scipy_imports` is shared with the start-up lint in
test_import_cost.py."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "polaron1d"
FFT_MODULES = ("scipy.fft", "scipy.fftpack")
OWNER = "grid.py"


def _is_under(module, packages):
    return any(module == m or module.startswith(m + ".") for m in packages)


def scipy_imports(source, packages):
    """(line, module, inside_function) for every import of one of `packages`,
    in any spelling: `import scipy.fft`, `from scipy.fft import dst`,
    `from scipy import fft`."""
    found = []

    def visit(node, inside):
        if isinstance(node, ast.Import):
            found.extend(
                (node.lineno, a.name, inside) for a in node.names if _is_under(a.name, packages)
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if _is_under(node.module, packages):
                found.append((node.lineno, node.module, inside))
            else:
                found.extend(
                    (node.lineno, f"{node.module}.{a.name}", inside)
                    for a in node.names
                    if _is_under(f"{node.module}.{a.name}", packages)
                )
        inside = inside or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(found)


def fft_imports(source):
    """(line, module) for every import of scipy.fft or scipy.fftpack."""
    return [(line, module) for line, module, _ in scipy_imports(source, FFT_MODULES)]


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


def test_grid_imports_no_scipy_fft():
    assert fft_imports((PACKAGE / OWNER).read_text(encoding="utf-8")) == []
