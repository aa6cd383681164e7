"""Lint: no module of the package reads another package module's private
(leading-underscore) names; shared pieces are public in their home module."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "polaron1d"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_package(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "polaron1d"


def private_accesses(source):
    """(line, name) for every read of another package module's private name,
    through `from . import mod` aliases or `from .mod import _name`."""
    tree = ast.parse(source)
    aliases = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            for alias in node.names:
                if node.module in (None, "polaron1d"):
                    aliases[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _is_private(node.attr)
        ):
            found.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_checker_flags_cross_module_private_reads():
    source = (
        "from . import effpot as ep\n"
        "from .grid import _hermite_functions, inner\n"
        "from . import __version__\n"
        "x = ep._moment_matrix(spec, ep.inner)\n"
    )
    assert private_accesses(source) == [
        (2, "grid._hermite_functions"),
        (4, "effpot._moment_matrix"),
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_access_across_modules(path):
    assert private_accesses(path.read_text(encoding="utf-8")) == []
