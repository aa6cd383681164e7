"""Output checks for one benchmark operation (one quench, or one sweep point).

An operation fails when the pipeline raised, its manifest is not `ok`, or a
check below fails. The checks:

* the manifest's SHA-256 checksums match the files it lists;
* |S(t)| <= 1 and S(0) = 1 in contrast.csv;
* norm and relative energy drift stay under the solvers' 1e-6 gates;
* the key summary values match reference.json for the same coupling.
"""

import csv
import hashlib
import json
import math
import os

from workloads import coupling_key

DRIFT_GATE = 1e-6
# S(0) = 1 to the tolerance observables.spectral_function demands
S0_TOL = 1e-6
ABS_S_TOL = 1e-9
# reference values are matched to this tolerance, not bit for bit, so a change
# that only reorders floating-point arithmetic still passes
REF_RTOL = 1e-6
REF_ATOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(header)}


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_problems(directory, allowed=("ok",)):
    path = os.path.join(directory, "manifest.json")
    if not os.path.exists(path):
        return ["no manifest.json"]
    manifest = _read_json(path)
    problems = []
    if manifest.get("status") not in allowed:
        problems.append(f"manifest status {manifest.get('status')!r}")
    if not manifest.get("outputs"):
        problems.append("manifest lists no outputs")
    for name, digest in manifest.get("outputs", {}).items():
        file_path = os.path.join(directory, name)
        if not os.path.exists(file_path) or _sha256(file_path) != digest:
            problems.append(f"checksum mismatch for {name}")
    return problems


def summary_values(summary):
    """The summary values compared against the reference."""
    peaks = sorted(summary.get("peaks", []), key=lambda p: -p["height"])[:3]
    values = {
        "min_contrast": summary["min_contrast"],
        "peak_omegas": sorted(p["omega"] for p in peaks),
    }
    for key in ("entropy_mean", "energy_reference"):
        if summary.get(key) is not None:
            values[key] = summary[key]
    return values


def _close(a, b):
    return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=REF_ATOL)


def _reference_problems(values, expected):
    problems = []
    for key, want in expected.items():
        got = values.get(key)
        if isinstance(want, list):
            if got is None or len(got) != len(want) or not all(map(_close, got, want)):
                problems.append(f"{key} {got} != reference {want}")
        elif got is None or not _close(got, want):
            problems.append(f"{key} {got} != reference {want}")
    return problems


def quench_problems(directory, expected):
    """Problems with one completed quench's outputs; [] when they pass.

    `expected` is the reference entry for the coupling, or None when the
    reference recorded this input as failing.
    """
    problems = manifest_problems(directory)
    if problems:
        return problems
    contrast = _read_csv(os.path.join(directory, "contrast.csv"))
    if max(contrast["abs_s"]) > 1.0 + ABS_S_TOL:
        problems.append(f"max |S| = {max(contrast['abs_s']):.17g} > 1")
    s0 = complex(contrast["re_s"][0], contrast["im_s"][0])
    if contrast["t"][0] != 0.0 or abs(s0 - 1.0) > S0_TOL:
        problems.append(f"S(0) = {s0} at t = {contrast['t'][0]}, expected 1 at 0")
    summary = _read_json(os.path.join(directory, "summary.json"))
    if summary.get("norm_drift") is not None and summary["norm_drift"] > DRIFT_GATE:
        problems.append(f"norm drift {summary['norm_drift']:.3g} > {DRIFT_GATE}")
    if summary.get("energy_drift") is not None:
        e0 = _read_csv(os.path.join(directory, "energies.csv"))["total"][0]
        rel = summary["energy_drift"] / max(abs(e0), 1e-12)
        if rel > DRIFT_GATE:
            problems.append(f"relative energy drift {rel:.3g} > {DRIFT_GATE}")
    if expected is not None:
        problems += _reference_problems(summary_values(summary), expected)
    return problems


def _problems(directory, expected):
    try:
        return quench_problems(directory, expected)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_operations(workload, couplings, out_dir, error, reference):
    """Check every operation of one process.

    Returns one (coupling, error, problems) per operation. `error` says why
    the pipeline did not complete the operation (a raise or a `failed`
    manifest), else None; `problems` lists failed checks of outputs the
    program did produce. The operation failed if either is set.
    """
    ref = reference[workload.name]
    if workload.pipeline == "quench":
        (g,) = couplings
        if error is not None:
            return [(g, error, [])]
        return [(g, None, _problems(out_dir, ref[coupling_key(g)]))]

    if error is not None:
        return [(g, error, []) for g in couplings]
    try:
        sweep_problems = manifest_problems(out_dir, allowed=("ok", "partial"))
        failures = {} if sweep_problems else _read_json(
            os.path.join(out_dir, "sweep.json"))["failures"]
    except (OSError, ValueError, KeyError) as exc:
        sweep_problems = [f"unreadable sweep output: {type(exc).__name__}: {exc}"]
    if sweep_problems:
        return [(g, None, sweep_problems) for g in couplings]
    results = []
    for k, g in enumerate(couplings):
        point_dir = os.path.join(out_dir, f"g_bi_final_{k:03d}")
        if str(float(g)) in failures:
            results.append((g, failures[str(float(g))], []))
        else:
            results.append((g, None, _problems(point_dir, ref[coupling_key(g)])))
    return results
