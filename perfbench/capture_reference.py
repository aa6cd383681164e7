"""Regenerate reference.json: the summary values of every input the
benchmark can generate, as the package computes them now.

    python3 perfbench/capture_reference.py [workload ...]

A coupling whose run raised is stored as null; the benchmark then counts it
as a failed operation and skips the reference comparison if it succeeds.
Only re-capture when a change is meant to alter the numbers, and say so.
"""

import json
import os
import shutil
import subprocess
import sys

import check
from run import CHILD, ROOT, WORK_DIR, child_env
from workloads import WORKLOADS, coupling_key


def _run(workload, couplings, env):
    cdir = os.path.join(WORK_DIR, "reference", workload.name)
    shutil.rmtree(cdir, ignore_errors=True)
    os.makedirs(cdir)
    out_dir = os.path.join(cdir, "out")
    cfg_path = os.path.join(cdir, "config.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(couplings, out_dir))
    info_path = os.path.join(cdir, "info.json")
    subprocess.run(
        [sys.executable, CHILD, workload.pipeline, cfg_path, info_path, "0"],
        cwd=ROOT, env=env, check=False,
    )
    with open(info_path, encoding="utf-8") as fh:
        error = json.load(fh)["error"]
    if workload.pipeline == "quench":
        dirs = [out_dir]
    else:
        dirs = [os.path.join(out_dir, f"g_bi_final_{k:03d}") for k in range(len(couplings))]
    values = {}
    for g, directory in zip(couplings, dirs):
        summary_path = os.path.join(directory, "summary.json")
        if error is None and os.path.exists(summary_path):
            with open(summary_path, encoding="utf-8") as fh:
                values[coupling_key(g)] = check.summary_values(json.load(fh))
        else:
            values[coupling_key(g)] = None
        print(f"{workload.name} g={g}: {values[coupling_key(g)]}", flush=True)
    shutil.rmtree(cdir, ignore_errors=True)
    return values


def main(names):
    reference = {}
    if os.path.exists(check.REFERENCE_PATH):
        reference = check.load_reference()
    env = child_env()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        if workload.pipeline == "quench":
            entries = {}
            for g in workload.couplings:
                entries.update(_run(workload, [g], env))
        else:
            # sweep points are independent runs, so one sweep covers every value
            entries = _run(workload, list(workload.couplings), env)
        reference[name] = entries
        with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
