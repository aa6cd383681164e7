"""polaron1d benchmark: one run of one workload.

    python3 perfbench/run.py --workload mf-quench --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. One run is a closed loop: it launches one
fresh process (perfbench/child.py) at a time, each calling the public runner
pipeline on a config generated from the seed, until --seconds have passed.
Every process's outputs are checked (check.py). Before each process a probe
process (calibrate.py) times a fixed kernel, which gives the run's machine
speed. With --trace 0 the last line reports the end-to-end metrics, the times
divided by that speed; with --trace 1 the run alternates untraced
and traced processes and reports the per-layer metrics derived from the
traced processes' spans (spans.py). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import check
import spans
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "child.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")

BLAS_THREADS = "1"
MIN_PROCESSES = 2
# a hung process is killed early enough for the run to end within 180 s
CHILD_TIMEOUT_S = 120.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# wall_s and setup_s are reported in seconds of a machine on which
# calibrate.probe() takes this long (its median on the machine named in the
# README): the run's medians are divided by the run's median probe time over
# this value. The shared machine's speed drifted by more than a quarter over
# tens of minutes, and the probe, timed just before every benchmark process, moves
# with it. The probe runs in a process of its own: run.py stays small, so the
# peak RSS wait4 reports for a child is the child's own.
CALIBRATION_REF_S = 0.31
SCALED = ("wall_s", "setup_s")


def child_env():
    env = {
        k: v for k, v in os.environ.items()
        # OUTPUT_DIR would override the generated config's output directory
        if k not in ("OUTPUT_DIR", "PYTHONPATH", "PYTHONSTARTUP")
    }
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        PYTHONHASHSEED="0",
    )
    return env


def run_probes(env):
    """Probe times (s) from one calibrate.py process."""
    done = subprocess.run([sys.executable, CALIBRATE], cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout)


def run_child(workload, seed, k, draw, traced, env, reference):
    """Launch, time and check process k on the seed's draw-th config."""
    cdir = os.path.join(WORK_DIR, workload.name, f"p{k:03d}")
    shutil.rmtree(cdir, ignore_errors=True)
    os.makedirs(cdir)
    couplings = workload.draw(seed, draw)
    out_dir = os.path.join(cdir, "out")
    cfg_path = os.path.join(cdir, "config.cfg")
    info_path = os.path.join(cdir, "info.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(couplings, out_dir))
    argv = [sys.executable, CHILD, workload.pipeline, cfg_path, info_path, "1" if traced else "0"]
    with open(os.path.join(cdir, "stderr.txt"), "w", encoding="utf-8") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    info = None
    if os.path.exists(info_path):
        with open(info_path, encoding="utf-8") as fh:
            info = json.load(fh)
    if info is None or proc.returncode not in (0, 1):
        with open(os.path.join(cdir, "stderr.txt"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        print(f"process {k} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
        error = f"exit code {proc.returncode}"
    else:
        error = info["error"]
    ops = check.check_operations(workload, couplings, out_dir, error, reference)
    record = {
        "traced": traced,
        "couplings": couplings,
        "wall_s": t1 - t0,
        "setup_s": info["setup_done"] - t0 if info else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "error": error,
        "operations": ops,
        "environment": info.get("environment") if info else None,
    }
    if traced and info and "spans" in info:
        layers = spans.layer_metrics(info["spans"])
        files = [os.path.join(d, f) for d, _, names in os.walk(out_dir) for f in names]
        layers["runner.files_written"] = len(files)
        # manifest.json carries timestamps whose printed length varies
        layers["runner.bytes_written"] = sum(
            os.path.getsize(f) for f in files if os.path.basename(f) != "manifest.json"
        )
        layers["runner.cpu_s"] = record["cpu_s"]
        record["layers"] = layers
    shutil.rmtree(cdir, ignore_errors=True)
    return record


def count_operations(ops):
    """(attempted, failed, correct) over check.check_operations entries.

    A raise or a failed manifest fails the operation but leaves `correct`
    alone: `correct` is false only when outputs the program did produce fail
    their checks.
    """
    failed = sum(1 for _, error, problems in ops if error or problems)
    return len(ops), failed, not any(problems for _, _, problems in ops)


def _largest_prime_factor(n):
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n) if n > 1 else largest


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def input_properties(workload, seed, records):
    text = workload.config_text(workload.draw(seed, 0), "out")
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key.strip()] = value.strip()
    n_points = int(values["n_points"])
    props = {
        "tier": workload.tier,
        "pipeline": workload.pipeline,
        "operations_per_process": workload.points,
        "n_points": n_points,
        "largest_prime_factor_n_points_minus_1": _largest_prime_factor(n_points - 1),
        "couplings": [r["couplings"] for r in records],
    }
    if workload.tier == "ed":
        n_bath, n_modes = int(values["n_bath"]), int(values["n_modes"])
        props["ed_total_dim"] = math.comb(n_bath + n_modes - 1, n_bath) * n_modes
        nnz = [r["layers"]["exactdiag.hamiltonian_nnz"] for r in records if "layers" in r]
        props["hamiltonian_nnz"] = nnz[0] if nnz else "reported by traced runs"
    return props


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so the running child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "polaron1d", "__init__.py")):
        print(f"no polaron1d sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = check.load_reference()
    env = child_env()
    shutil.rmtree(os.path.join(WORK_DIR, workload.name), ignore_errors=True)

    # closed loop: launch the next process only when the last one has exited,
    # and none that would be expected to end more than half a process late
    records = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(records) >= MIN_PROCESSES:
            typical = statistics.median(r["wall_s"] + r["probe_wall_s"] for r in records)
            if elapsed + typical / 2 > args.seconds:
                break
        k = len(records)
        # a traced run repeats the seed's first config, alternating untraced and
        # traced processes: counts then repeat in every traced process, and the
        # wall-time difference of each pair is the tracing overhead
        draw, traced = (0, k % 2 == 1) if args.trace else (k, False)
        t0 = time.monotonic()
        probe_s = run_probes(env)
        probe_wall_s = time.monotonic() - t0
        records.append(run_child(workload, args.seed, k, draw, traced, env, reference))
        records[-1].update(probe_s=probe_s, probe_wall_s=probe_wall_s)
    shutil.rmtree(os.path.join(WORK_DIR, workload.name), ignore_errors=True)

    ops = [op for r in records for op in r["operations"]]
    attempted, failed, correct = count_operations(ops)
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"] and "layers" in r]
    if any(r["setup_s"] is None for r in untraced) or (args.trace and not traced):
        print("a benchmark process crashed before reporting; no result", file=sys.stderr)
        return 1

    speed = statistics.median(p for r in records for p in r["probe_s"]) / CALIBRATION_REF_S
    if args.trace:
        names = list(spans.PER_LAYER)
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name, _ in names if name != "trace.overhead_s"
        }
        pairs = [(u, t) for u, t in zip(records[0::2], records[1::2]) if "layers" in t]
        values["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    else:
        names = list(END_TO_END)
        values = {name: statistics.median(r[name] for r in untraced) for name, _ in names}
        for name in SCALED:
            values[name] /= speed
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"processes {len(records)} ({len(traced)} traced)  "
          f"operations {attempted}  failed {failed}  correct {correct}")
    print(f"  machine speed {speed:.4f}: median probe time over {CALIBRATION_REF_S} s"
          + ("" if args.trace else f"; {', '.join(SCALED)} are divided by it"))
    for name, unit in names:
        print(f"  {name:38s} {values[name]:14.6g} {unit}")
    print(f"  {'fail_frac':38s} {failed / attempted:14.6g} ratio  ({failed} of {attempted})")
    for g, error, problems in ops:
        if error or problems:
            print(f"  failed: g_bi_final={g} ({'; '.join(problems) or error})")
    details = {
        "environment": {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            **(records[0]["environment"] or {}),
            "blas_threads": int(BLAS_THREADS),
        },
        "inputs": input_properties(workload, args.seed, records),
        "fail_frac": failed / attempted,
        "machine_speed": speed,
        "samples": {
            key: [r[key] for r in untraced]
            for key in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s", "probe_s")
        },
        "traced_wall_s": [r["wall_s"] for r in traced],
    }
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
