"""Guard: every span name the benchmark's tracer keys a metric on still names
a public function of the package.

perfbench/spans.py wraps the public module-level functions of the package
and derives each per-layer metric from the spans of one function, named by a
quoted "layer.function" string. A function that is renamed or deleted leaves
its metric silently at zero, so each such string must resolve: to a public
module-level function of polaron1d.<layer>, or, for "layer.Class.method", to
a function on that class. Strings that are themselves declared per-layer
metric names (BENCHMARK.json) are not span names and are skipped.

Each ANNOTATE entry of spans.py reads the bound arguments of the function it
wraps by parameter name, directly (a["dt"]) or through a helper it hands them
to (_steps(a)); a parameter that is renamed would make that read fail in a
traced run, so every key read must name a parameter of the wrapped function.
"""

import ast
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


def annotate_reads(text):
    """{span name: argument keys its ANNOTATE entry reads} from the source
    `text` of spans.py: subscripts a["key"] and calls a.get("key") on the
    entry's first parameter, followed into the module-level helpers that the
    parameter is passed to."""
    tree = ast.parse(text)
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(body, param):
        keys = set()
        for node in ast.walk(body):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
                if node.value.id == param and isinstance(node.slice, ast.Constant):
                    keys.add(node.slice.value)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == param
                and func.attr == "get"
            ):
                keys.add(node.args[0].value)
            if isinstance(func, ast.Name) and func.id in helpers:
                helper = helpers[func.id]
                for arg, name in zip(node.args, helper.args.args):
                    if isinstance(arg, ast.Name) and arg.id == param:
                        keys |= reads(helper, name.arg)
        return keys

    annotate = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "ANNOTATE" for t in node.targets)
    )
    return {
        key.value: reads(value.body, value.args.args[0].arg)
        for key, value in zip(annotate.keys, annotate.values)
    }


def unknown_parameters(reads):
    """(span name, key) for every key read that is not a parameter of the
    function the span name resolves to."""
    unknown = []
    for name, keys in sorted(reads.items()):
        layer, *path = name.split(".")
        obj = importlib.import_module(f"polaron1d.{layer}")
        for part in path:
            obj = getattr(obj, part)
        params = inspect.signature(obj).parameters
        unknown.extend((name, key) for key in sorted(keys) if key not in params)
    return unknown


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


def test_annotation_scan_follows_helpers_and_flags_unknown_keys():
    text = (
        "def _count(b):\n"
        "    return b['t_max'] / b.get('dt')\n"
        "ANNOTATE = {\n"
        "    'meanfield.propagate': lambda a, r: {'n': _count(a), 'k': a['n_steps']},\n"
        "    'exactdiag.schmidt': lambda a, r: {'size': len(r)},\n"
        "}\n"
    )
    reads = annotate_reads(text)
    assert reads == {
        "meanfield.propagate": {"t_max", "dt", "n_steps"},
        "exactdiag.schmidt": set(),
    }
    assert unknown_parameters(reads) == [("meanfield.propagate", "n_steps")]


def test_perfbench_annotations_read_parameters_of_the_wrapped_functions():
    reads = annotate_reads((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    # the scan itself finds the keys that _steps reads
    assert reads["exactdiag.propagate_krylov"] == {"t_max", "dt", "record_every"}
    assert unknown_parameters(reads) == []
