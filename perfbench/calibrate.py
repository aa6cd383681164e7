"""Machine-speed probe: a fixed amount of work that does not touch polaron1d.

run.py runs it just before each benchmark process. It prints the time of each
of PROBES repetitions of the work, leaving out interpreter start, imports and
building the inputs. The work is what a polaron1d process spends most of its
time on, with inputs that never change: split steps on a pair of 450-point
fields, each a DST-I pair of length 448 with a few small array operations
(the mean-field relaxation and propagation loops, dominated by per-call
overhead), and sparse matrix-vector products on a matrix of the ED size. A
change to polaron1d cannot move its time; a busier or slower machine moves it
the way it moves the benchmark processes.

    python3 perfbench/calibrate.py
"""

import json
import time

import numpy as np
import scipy.fft
import scipy.sparse

N_POINTS = 450
SPLIT_STEPS = 700
ED_DIM = 7150
ED_NNZ_PER_ROW = 400
MATVECS = 40
PROBES = 3


def _build_inputs():
    rng = np.random.default_rng(12345)
    cols = np.abs(rng.standard_normal((N_POINTS, 2)))
    kin = np.exp(-1e-3 * np.arange(1, N_POINTS - 1) ** 2)[:, None]
    rows = np.repeat(np.arange(ED_DIM), ED_NNZ_PER_ROW)
    h = scipy.sparse.csr_matrix(
        (rng.standard_normal(rows.size), (rows, rng.integers(0, ED_DIM, size=rows.size))),
        shape=(ED_DIM, ED_DIM),
    )
    return cols, kin, h, rng.standard_normal(ED_DIM)


def probe(cols, kin, h, v):
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    for _ in range(SPLIT_STEPS):
        interior = scipy.fft.dst(cols[1:-1], type=1, norm="ortho", axis=0)
        interior *= kin
        cols[1:-1] = scipy.fft.idst(interior, type=1, norm="ortho", axis=0)
        cols *= np.exp(-1e-2 * np.abs(cols) ** 2)
        cols /= np.sqrt(np.sum(np.abs(cols) ** 2, axis=0))
    for _ in range(MATVECS):
        v = h @ v
        v /= np.linalg.norm(v)
    return time.perf_counter() - t0


if __name__ == "__main__":
    inputs = _build_inputs()
    print(json.dumps([probe(*inputs) for _ in range(PROBES)]))
