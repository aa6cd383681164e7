"""One benchmark operation in a fresh process: the work a `polaron1d quench`
or `polaron1d sweep --jobs 1` call does, on a generated config.

    python3 perfbench/child.py <quench|sweep> <config> <info.json> <trace 0|1>

Set-up ends after package import, config validation and grid build; the
process then stamps time.monotonic() (one system-wide clock, so run.py
can subtract its own launch time) and calls the runner pipeline. info.json
receives the stamp, the error if the pipeline raised, the versions of the
numerical stack and, when traced, the spans.
"""

import json
import os
import sys
import time


def _environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(pipeline, config_path, info_path, trace):
    from polaron1d import config, grid, runner

    tracer = None
    if trace:
        import spans

        # spans of one process share its run id: the process's work directory
        tracer = spans.Tracer(run_id=os.path.basename(os.path.dirname(info_path)))
        spans.install(tracer)
    cfg = config.load_config(config_path)
    g = grid.build_grid(cfg.n_points, cfg.x_max)
    if cfg.tier == "ed":
        grid.ho_mode_basis(g, cfg.n_modes)
    info = {"setup_done": time.monotonic(), "error": None}
    code = 0
    try:
        if pipeline == "sweep":
            runner.run_sweep(cfg, jobs=1)
        else:
            runner.run_quench(cfg)
    except Exception as exc:  # noqa: BLE001 - a raised pipeline is a failed operation
        info["error"] = f"{type(exc).__name__}: {exc}"
        code = 1
    info["environment"] = _environment()
    if tracer is not None:
        info["run_id"] = tracer.run_id
        info["spans"] = tracer.spans
    with open(info_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"))
