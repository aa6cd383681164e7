"""Guard: every span name the benchmark's tracer keys a metric on still names
a public function of the package.

perfbench/spans.py wraps the public module-level functions of the package
and derives each per-layer metric from the spans of one function, named by a
quoted "layer.function" string. A function that is renamed or deleted leaves
its metric silently at zero, so each such string must resolve: to a public
module-level function of polaron1d.<layer>, or, for "layer.Class.method", to
a function on that class. Strings that are themselves declared per-layer
metric names (BENCHMARK.json) are not span names and are skipped.
"""

import importlib
import inspect
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polaron1d"


def span_names(text, metric_names):
    """Quoted "module.name" strings of `text` naming a package module, less
    the declared metric names."""
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
    pattern = r"""["']((?:%s)(?:\.[A-Za-z_]\w*)+)["']""" % "|".join(modules)
    return sorted(set(re.findall(pattern, text)) - set(metric_names))


def unresolved(names):
    """The names that do not resolve to a public function of the package."""
    missing = []
    for name in names:
        layer, *path = name.split(".")
        module = importlib.import_module(f"polaron1d.{layer}")
        obj = module
        for part in path:
            obj = getattr(obj, part, None)
        defined_here = getattr(obj, "__module__", None) == module.__name__
        public = not any(part.startswith("_") for part in path)
        if not (inspect.isfunction(obj) and defined_here and public):
            missing.append(name)
    return missing


def test_checker_flags_missing_and_private_names():
    text = (
        'x = t("exactdiag.schmidt") + t("exactdiag.no_such_function")\n'
        "y = n('grid.build_grid'), n('grid._kinetic_filter'), 'grid.build_grid_s'\n"
        'MATVEC = "exactdiag.EDHamiltonian.matvec"\n'
        'z = "runner."\n'
    )
    names = span_names(text, ["grid.build_grid_s"])
    assert names == [
        "exactdiag.EDHamiltonian.matvec",
        "exactdiag.no_such_function",
        "exactdiag.schmidt",
        "grid._kinetic_filter",
        "grid.build_grid",
    ]
    assert unresolved(names) == ["exactdiag.no_such_function", "grid._kinetic_filter"]


def test_perfbench_span_names_resolve():
    text = (ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = span_names(text, [m["name"] for m in benchmark["per_layer"]])
    assert "exactdiag.schmidt" in names  # the scan itself finds the span names
    assert unresolved(names) == []
