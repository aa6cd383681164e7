"""In-memory span tracing of polaron1d from outside the package.

`install` wraps every public module-level function of the traced modules,
plus `EDHamiltonian.matvec`, and rebinds each wrapper wherever the package
holds a reference to the original (modules import functions from each other
by name, so patching one module attribute alone would miss calls). Nothing
under src/ is edited. A span is [name, start, end, parent, attrs]; spans are
kept in a list and written out once, when the traced process ends.

`layer_metrics` turns one process's spans into the per-layer metrics. It uses
the standard library only, so run.py can import it cheaply.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("config", "grid", "meanfield", "effpot", "exactdiag", "observables", "runner")
MATVEC = "exactdiag.EDHamiltonian.matvec"


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, annotate=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(_bind(fn, args, kwargs), result)
            return result

        return traced


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _steps(a):
    # the propagators trim t_max to a whole number of record intervals
    n_steps = int(round(a["t_max"] / a["dt"]))
    every = max(int(a["record_every"]), 1)
    return max(n_steps // every, 1) * every


def _input_key(value):
    if hasattr(value, "n_points") and hasattr(value, "x_max"):
        return ("grid", value.n_points, value.x_max)
    return repr(value)


def _sparse_nnz(h):
    # every stored sparse block, duplicates included: this is what occupies memory
    from scipy.sparse import issparse

    return sum(v.nnz for v in vars(h).values() if issparse(v))


ANNOTATE = {
    "meanfield.relax_ground_state": lambda a, r: {
        "iterations": int(getattr(r[1], "iterations", 0)),
        "key": repr([(k, _input_key(v)) for k, v in a.items()]),
    },
    "meanfield.propagate": lambda a, r: {"steps": _steps(a)},
    "exactdiag.propagate_krylov": lambda a, r: {
        "steps": _steps(a),
        "max_krylov_dim": int(getattr(r, "max_krylov_dim", 0)),
    },
    "exactdiag.build_hamiltonian": lambda a, r: {"nnz": _sparse_nnz(r)},
}


def install(tracer):
    """Wrap the public functions of every traced polaron1d module."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"polaron1d.{layer}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                span_name = f"{layer}.{name}"
                wrapped[id(obj)] = tracer.wrap(span_name, obj, ANNOTATE.get(span_name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "polaron1d" or mod_name.startswith("polaron1d."):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])
    ham = importlib.import_module("polaron1d.exactdiag").EDHamiltonian
    ham.matvec = tracer.wrap(MATVEC, ham.matvec)


# --- metrics from spans ---------------------------------------------------------

PER_LAYER = (
    ("config.load_config_s", "s"),
    ("grid.build_grid_s", "s"),
    ("grid.ho_mode_basis_s", "s"),
    ("grid.kinetic_apply_calls", "count"),
    ("grid.kinetic_apply_us", "us"),
    ("meanfield.propagate_s", "s"),
    ("meanfield.step_us", "us"),
    ("meanfield.relax_ground_state_s", "s"),
    ("meanfield.relax_ground_state_calls", "count"),
    ("meanfield.relax_iterations", "count"),
    ("meanfield.relax_distinct_ratio", "ratio"),
    ("meanfield.energy_breakdown_calls", "count"),
    ("meanfield.mean_field_contrast_s", "s"),
    ("effpot.eigensolve_s", "s"),
    ("effpot.eigensolve_calls", "count"),
    ("effpot.effpot_contrast_s", "s"),
    ("exactdiag.propagate_krylov_s", "s"),
    ("exactdiag.krylov_steps", "count"),
    ("exactdiag.matvecs", "count"),
    ("exactdiag.matvecs_per_step", "count"),
    ("exactdiag.matvec_us", "us"),
    ("exactdiag.max_krylov_dim", "count"),
    ("exactdiag.build_hamiltonian_s", "s"),
    ("exactdiag.hamiltonian_nnz", "count"),
    ("exactdiag.ground_state_s", "s"),
    ("exactdiag.ground_state_matvecs", "count"),
    ("exactdiag.energy_breakdown_s", "s"),
    ("exactdiag.schmidt_s", "s"),
    ("exactdiag.one_body_density_s", "s"),
    ("observables.spectral_function_s", "s"),
    ("observables.find_peaks_s", "s"),
    ("observables.classify_region_s", "s"),
    ("observables.miscibility_overlap_s", "s"),
    ("runner.pipeline_s", "s"),
    ("runner.self_s", "s"),
    ("runner.files_written", "count"),
    ("runner.bytes_written", "bytes"),
    ("runner.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)

# per-layer metrics that run.py measures itself; layer_metrics derives the rest
FROM_OUTSIDE = ("runner.files_written", "runner.bytes_written", "runner.cpu_s", "trace.overhead_s")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced process, from its span list."""
    total, calls, self_time = {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]

    def attrs(name):
        return [s[4] for s in spans if s[0] == name and s[4]]

    def under(i, name):
        while i >= 0:
            if spans[i][0] == name:
                return True
            i = spans[i][3]
        return False

    matvecs = [i for i, s in enumerate(spans) if s[0] == MATVEC]
    mf_steps = sum(a["steps"] for a in attrs("meanfield.propagate"))
    ed_steps = sum(a["steps"] for a in attrs("exactdiag.propagate_krylov"))
    relax = attrs("meanfield.relax_ground_state")
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    n = lambda name: calls.get(name, 0)  # noqa: E731
    return {
        "config.load_config_s": t("config.load_config"),
        "grid.build_grid_s": t("grid.build_grid"),
        "grid.ho_mode_basis_s": t("grid.ho_mode_basis"),
        "grid.kinetic_apply_calls": n("grid.kinetic_apply"),
        "grid.kinetic_apply_us": 1e6 * _ratio(t("grid.kinetic_apply"), n("grid.kinetic_apply")),
        "meanfield.propagate_s": t("meanfield.propagate"),
        "meanfield.step_us": 1e6 * _ratio(t("meanfield.propagate"), mf_steps),
        "meanfield.relax_ground_state_s": t("meanfield.relax_ground_state"),
        "meanfield.relax_ground_state_calls": n("meanfield.relax_ground_state"),
        "meanfield.relax_iterations": sum(a["iterations"] for a in relax),
        "meanfield.relax_distinct_ratio": _ratio(len({a["key"] for a in relax}), len(relax)),
        "meanfield.energy_breakdown_calls": n("meanfield.energy_breakdown"),
        "meanfield.mean_field_contrast_s": t("meanfield.mean_field_contrast"),
        "effpot.eigensolve_s": t("effpot.eigensolve"),
        "effpot.eigensolve_calls": n("effpot.eigensolve"),
        "effpot.effpot_contrast_s": t("effpot.effpot_contrast"),
        "exactdiag.propagate_krylov_s": t("exactdiag.propagate_krylov"),
        "exactdiag.krylov_steps": ed_steps,
        "exactdiag.matvecs": len(matvecs),
        "exactdiag.matvecs_per_step": _ratio(
            sum(1 for i in matvecs if under(i, "exactdiag.propagate_krylov")), ed_steps
        ),
        "exactdiag.matvec_us": 1e6 * _ratio(t(MATVEC), len(matvecs)),
        "exactdiag.max_krylov_dim": max(
            (a["max_krylov_dim"] for a in attrs("exactdiag.propagate_krylov")), default=0
        ),
        "exactdiag.build_hamiltonian_s": t("exactdiag.build_hamiltonian"),
        "exactdiag.hamiltonian_nnz": max(
            (a["nnz"] for a in attrs("exactdiag.build_hamiltonian")), default=0
        ),
        "exactdiag.ground_state_s": t("exactdiag.ground_state"),
        "exactdiag.ground_state_matvecs": sum(
            1 for i in matvecs if under(i, "exactdiag.ground_state")
        ),
        "exactdiag.energy_breakdown_s": t("exactdiag.energy_breakdown"),
        "exactdiag.schmidt_s": t("exactdiag.schmidt"),
        "exactdiag.one_body_density_s": t("exactdiag.one_body_density"),
        "observables.spectral_function_s": t("observables.spectral_function"),
        "observables.find_peaks_s": t("observables.find_peaks"),
        "observables.classify_region_s": t("observables.classify_region"),
        "observables.miscibility_overlap_s": t("observables.miscibility_overlap"),
        "runner.pipeline_s": sum(
            end - start for name, start, end, parent, _ in spans
            if parent < 0 and name.startswith("runner.")
        ),
        "runner.self_s": sum(v for k, v in self_time.items() if k.startswith("runner.")),
    }
