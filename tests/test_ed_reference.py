"""ED quenches of the benchmark's ed-quench workload (N_B = 4, M = 10,
t_max = 3) against the values perfbench/reference.json records for them,
at the tolerance perfbench/check.py matches that file with. Both files are
only read."""

import json
import math
import pathlib
import sys

import pytest

from polaron1d import runner
from polaron1d.config import validate_config

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import check  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("g", [0.2, 1.8, 3.0])
def test_ed_quench_matches_the_benchmark_reference(tmp_path, g):
    workload = workloads.WORKLOADS["ed-quench"]
    cfg = validate_config(workload.config_text([g], str(tmp_path)))
    runner.run_quench(cfg)
    expected = check.load_reference()["ed-quench"][workloads.coupling_key(g)]
    with open(tmp_path / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    for key in ("min_contrast", "entropy_mean", "energy_reference"):
        assert math.isclose(
            summary[key], expected[key], rel_tol=check.REF_RTOL, abs_tol=check.REF_ATOL
        ), (key, summary[key], expected[key])
    assert check.quench_problems(str(tmp_path), expected) == []
