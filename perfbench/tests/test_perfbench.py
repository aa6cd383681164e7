"""Self-tests of the benchmark. None of them runs a full workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY_MF = """\
[system]
n_bath = 10
g_bb = 0.5
g_bi_final = 1.0
[grid]
n_points = 128
x_max = 20
[time]
dt = 1e-3
t_max = 0.2
record_every = 50
[solver]
tier = meanfield
[output]
directory = {directory}
"""

TINY_ED = """\
[system]
n_bath = 2
g_bb = 0.5
g_bi_final = 1.0
[time]
dt = 0.05
t_max = 0.5
record_every = 2
[solver]
tier = ed
[solver.ed]
n_modes = 4
[output]
directory = {directory}
"""

TINY_SWEEP = """\
[system]
n_bath = 10
g_bb = 0.5
[grid]
n_points = 128
x_max = 20
[time]
dt = 0.02
t_max = 20
[solver]
tier = effpot
[solver.effpot]
source = {source}
[sweep]
parameter = g_bi_final
values = {values}
[output]
directory = {directory}
"""


def _run_child(tmp_path, pipeline, text, trace):
    out = tmp_path / "out"
    cfg = tmp_path / "config.cfg"
    cfg.write_text(text.format(directory=out))
    info = tmp_path / "info.json"
    subprocess.run(
        [sys.executable, run.CHILD, pipeline, str(cfg), str(info), "1" if trace else "0"],
        cwd=run.ROOT, env=run.child_env(), check=False, timeout=120,
    )
    return json.loads(info.read_text()), str(out)


def test_same_seed_same_configs():
    for w in WORKLOADS.values():
        for k in range(3):
            first = w.config_text(w.draw(7, k), "out")
            assert first == w.config_text(w.draw(7, k), "out")
        assert any(w.draw(7, k) != w.draw(8, k) for k in range(3))


def test_draws_stay_in_the_reference():
    reference = check.load_reference()
    for name, w in WORKLOADS.items():
        for seed in range(20):
            for g in w.draw(seed, 0):
                assert f"{g:.1f}" in reference[name]


def test_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"] for m in bench["end_to_end"]}
    assert declared == {name for name, _ in run.END_TO_END}
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _ in spans.PER_LAYER]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    for name in declared | {m["name"] for m in bench["per_layer"]}:
        assert NAME.fullmatch(name), name
    derived = set(spans.layer_metrics([])) | set(spans.FROM_OUTSIDE)
    assert derived == {name for name, _ in spans.PER_LAYER}


def test_fail_frac_counts_a_failing_point(tmp_path):
    # with N_B = 100 at g_bi = 3.0 the 40-state expansion of the bare Gaussian
    # is incomplete and the runner raises; the sweep records the point and goes on
    text = (
        TINY_SWEEP.replace("n_bath = 10", "n_bath = 100")
        .replace("{source}", "tf")
        .replace("{values}", "0.5, 3.0")
    )
    info, out = _run_child(tmp_path, "sweep", text, trace=False)
    assert info["error"] is None
    w = Workload("tiny", "sweep", "effpot", (0.5, 3.0), text, 2)
    reference = {"tiny": {"0.5": None, "3.0": None}}
    ops = check.check_operations(w, [0.5, 3.0], out, None, reference)
    attempted, failed, correct = run.count_operations(ops)
    assert (attempted, failed, correct) == (2, 1, True)
    assert ops[0][1] is None and ops[1][1] is not None


def test_check_catches_a_corrupted_output(tmp_path):
    info, out = _run_child(tmp_path, "quench", TINY_ED, trace=False)
    assert info["error"] is None
    assert check.quench_problems(out, None) == []
    with open(os.path.join(out, "contrast.csv"), "a", encoding="utf-8") as fh:
        fh.write("0,0,0,0,0\n")
    assert any("checksum" in p for p in check.quench_problems(out, None))


COUNTS = (
    "exactdiag.matvecs",
    "exactdiag.krylov_steps",
    "meanfield.relax_iterations",
    "effpot.eigensolve_calls",
    "grid.kinetic_apply_calls",
    "meanfield.relax_ground_state_calls",
)


@pytest.mark.parametrize(
    "pipeline,text",
    [
        ("quench", TINY_ED),
        ("quench", TINY_MF),
        ("sweep", TINY_SWEEP.replace("{source}", "relaxed").replace("{values}", "0.5, 1.0")),
    ],
    ids=["ed", "meanfield", "effpot-sweep"],
)
def test_traced_counts_repeat(tmp_path, pipeline, text):
    counts = []
    for attempt in range(2):
        sub = tmp_path / str(attempt)
        sub.mkdir()
        info, _ = _run_child(sub, pipeline, text, trace=True)
        assert info["error"] is None
        metrics = spans.layer_metrics(info["spans"])
        counts.append({name: metrics[name] for name in COUNTS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
