"""Lint: no public API that nobody calls. Every public module-level function
of the package is reached from the package's own code, is named by the
benchmark's tracer (perfbench/spans.py keys per-layer metrics on it), or is
listed in ALLOWED with the reason it stays.

"Reached" is read from the syntax tree: a function is reached when its name
is read by module-level code (a class body, a table such as the runner's
pipeline bodies) or by the body of a reached function. The package's
`__init__` re-exports do not count, nor does a function's reference to
itself, and a function kept only by the tracer or by ALLOWED reaches
nothing, so a helper behind it is flagged too. Names are matched without
their module, which errs toward passing."""

import ast
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "polaron1d"
SPANS = PACKAGE.parents[1] / "perfbench" / "spans.py"

ALLOWED = {
    "meanfield.sound_horizon": "acceptance criterion 7 reads it (tests/test_acceptance.py)",
    "grid.inner": "the package's exported inner product of two Fields",
}


def unreached(sources):
    """(module, name) of every module-level function that module-level code
    does not reach; `sources` maps a module name to its source text."""
    defs, readers = [], {}
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = (module, top.name) if isinstance(top, ast.FunctionDef) else None
            if owner:
                defs.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if owner is None or owner[1] != name:
                    readers.setdefault(name, set()).add(owner)
    # drop, until none is left, every function no remaining one reads
    reached = set(defs)
    while True:
        dead = {
            d for d in reached
            if not any(r is None or r in reached for r in readers.get(d[1], ()))
        }
        if not dead:
            return sorted(set(defs) - reached)
        reached -= dead


def package_sources(package):
    """Module name -> source text of every module but `__init__`."""
    return {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted(package.glob("*.py"))
        if p.name != "__init__.py"
    }


def unjustified(sources, spans_text, allowed):
    """The "module.name" of every unreached public function that neither the
    tracer names nor `allowed` lists."""
    traced = set(re.findall(r"""["'](\w+\.\w+)["']""", spans_text))
    names = (f"{m}.{f}" for m, f in unreached(sources) if not f.startswith("_"))
    return [name for name in names if name not in traced and name not in allowed]


def test_checker_flags_a_helper_behind_a_traced_function():
    sources = {
        "grid": (
            "def build_grid(n):\n    return n\n"
            "def kinetic_apply(f):\n    return _cached(f)\n"
            "def _cached(f):\n    return full_filter(f)\n"
            "def full_filter(f):\n    return full_filter(f)\n"
            "def inner(f, g):\n    return f\n"
        ),
        "runner": "from .grid import build_grid\nTABLE = {'grid': build_grid}\n",
    }
    spans = 'n("grid.kinetic_apply")\n'
    assert unreached(sources) == [
        ("grid", "_cached"), ("grid", "full_filter"), ("grid", "inner"),
        ("grid", "kinetic_apply"),
    ]
    assert unjustified(sources, spans, {"grid.inner": "exported"}) == ["grid.full_filter"]


def test_every_public_function_is_called_traced_or_allowed():
    sources = package_sources(PACKAGE)
    assert unjustified(sources, SPANS.read_text(encoding="utf-8"), ALLOWED) == []


def test_allowed_functions_are_still_unreached():
    # an entry the package has started to call is no longer needed
    sources = package_sources(PACKAGE)
    found = {f"{m}.{f}" for m, f in unreached(sources)}
    assert sorted(set(ALLOWED) - found) == []
