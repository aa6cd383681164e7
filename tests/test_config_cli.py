import contextlib
import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron1d import cli, runner
from polaron1d import effpot as ep
from polaron1d import meanfield as mf
from polaron1d.config import SWEEP_PARAMETERS, TIERS, ExperimentConfig, validate_config
from polaron1d.errors import ConfigurationError, UsageError
from polaron1d.grid import bare_ground_state, build_grid

MINIMAL = """
[system]
n_bath = 100
"""

EFFPOT_FAST = """
[system]
n_bath = 100
g_bb = 0.5
g_bi_final = 0.25
[time]
dt = 0.05
t_max = 60
record_every = 1
[solver]
tier = effpot
[solver.effpot]
source = tf
n_eig = 40
[output]
directory = {outdir}
"""


BREATHING_TF = """
[system]
n_bath = 100
g_bb = 0.5
g_bi_final = {g_bi}
omega_i_initial = 0.95
omega_i_final = 1.0
[time]
dt = 0.02
t_max = 60
[solver]
tier = effpot
[solver.effpot]
source = tf
[output]
directory = {outdir}
"""


RELAXED_SWEEP = """
[system]
n_bath = 20
g_bb = 0.5
g_bi_final = 0.25
[grid]
n_points = 225
x_max = 20
[time]
dt = 0.05
t_max = 40
record_every = 1
[solver]
tier = effpot
[solver.effpot]
source = relaxed
n_eig = 40
[output]
directory = {outdir}
[sweep]
parameter = g_bi_final
values = 0.2, 0.6, 1.0
"""


# effpot tf breathing sweep: the fit is valid at 0.2 and invalid at 0.5
BREATHING_SWEEP = """
[system]
n_bath = 20
g_bb = 0.5
omega_i_initial = 0.95
omega_i_final = 1.0
[grid]
n_points = 225
x_max = 20
[time]
dt = 0.02
t_max = 60
[solver]
tier = effpot
[solver.effpot]
source = tf
[sweep]
parameter = g_bi_final
values = 0.2, 0.5
pipeline = breathing
[output]
directory = {outdir}
"""


MF_SWEEP = """
[system]
n_bath = 20
g_bb = 0.5
[grid]
n_points = 225
x_max = 20
[time]
dt = 1e-3
t_max = 2
record_every = 50
[solver]
tier = meanfield
[sweep]
parameter = g_bi_final
values = 0.2, 0.6
[output]
directory = {outdir}
"""


# small enough for every tier; a breathing run sets omega_i_final = 1.2
TIER_MATRIX = """
[system]
n_bath = 2
g_bb = 0.5
g_bi_final = 0.2
omega_i_final = {omega_i_final}
[grid]
n_points = 64
x_max = 8
[time]
dt = 1e-3
t_max = 0.2
record_every = 50
[solver.ed]
n_modes = 4
[solver.effpot]
source = tf
n_eig = 20
[output]
directory = {outdir}
"""


ED_SMALL = """
[system]
n_bath = 2
g_bb = 0.5
g_bi_final = 1.0
{extra}
[time]
dt = 0.1
t_max = 2
[solver]
tier = ed
[solver.ed]
n_modes = 6
[output]
directory = {outdir}
"""


# one refused value for each key that has a rule
REFUSED = [
    ("system.n_bath", "0"),
    ("system.g_bb", "-0.5"),
    ("system.g_bi_initial", "-1"),
    ("system.g_bi_final", "-1"),
    ("system.omega_b", "0"),
    ("system.omega_i_initial", "0"),
    ("system.omega_i_final", "-1"),
    ("system.beta", "0.8"),
    ("grid.n_points", "15"),
    ("grid.x_max", "0"),
    ("time.dt", "0"),
    ("time.t_max", "-1"),
    ("time.record_every", "0"),
    ("solver.tier", "gp"),
    ("solver.ed.n_modes", "41"),
    ("solver.ed.dim_guard", "0"),
    ("solver.effpot.source", "no-such-density.txt"),
    ("solver.effpot.n_eig", "61"),
    ("sweep.parameter", "omega_b"),
    ("sweep.pipeline", "relax"),
    ("output.directory", ""),
]

# values each key accepts; alpha, beta and sweep.values are drawn together
_POSITIVE = st.floats(0.0, 1e6, exclude_min=True)
_COUPLING = st.floats(0.0, 1e6)
VALID = {
    "n_bath": st.integers(1, 10**6),
    "g_bb": _COUPLING,
    "g_bi_initial": _COUPLING,
    "g_bi_final": _COUPLING,
    "omega_b": _POSITIVE,
    "omega_i_initial": _POSITIVE,
    "omega_i_final": _POSITIVE,
    "n_points": st.integers(16, 10**6),
    "x_max": _POSITIVE,
    "dt": _POSITIVE,
    "t_max": _POSITIVE,
    "record_every": st.integers(1, 10**6),
    "tier": st.sampled_from(TIERS),
    "n_modes": st.integers(1, 40),
    "dim_guard": st.integers(1, 10**9),
    "source": st.sampled_from(("tf", "relaxed")),
    "n_eig": st.integers(1, 60),
    "sweep_parameter": st.sampled_from(("",) + SWEEP_PARAMETERS),
    "sweep_pipeline": st.sampled_from(("quench", "breathing")),
    "directory": st.text(
        st.characters(blacklist_characters="#", blacklist_categories=("Cs",)), min_size=1
    ).filter(lambda s: s == s.strip() and s.splitlines() == [s]),
}
SWEEP_VALUES = {
    "g_bi_final": _COUPLING,
    "g_bb": _COUPLING,
    "n_bath": st.integers(1, 10**6).map(float),
    "n_modes": st.integers(1, 40).map(float),
}


class TestValidateConfig:
    def test_minimal_defaults(self):
        cfg = validate_config(MINIMAL)
        assert cfg.n_points == 450
        assert cfg.x_max == 40.0
        assert cfg.dt == 5e-4
        assert cfg.t_max == 100.0
        assert cfg.tier == "meanfield"
        assert cfg.alpha == pytest.approx(1 / np.sqrt(2))

    def test_unnormalized_weights_rejected(self):
        text = MINIMAL + "alpha = 0.8\nbeta = 0.8\n"
        with pytest.raises(ConfigurationError, match="alpha"):
            validate_config(text)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ConfigurationError, match="g_bb"):
            validate_config("[system]\ng_bb = -0.5\n")

    def test_errors_are_collected_with_lines(self):
        text = "\n".join(
            [
                "[system]",
                "g_bb = -1",
                "bogus = 3",
                "[grid]",
                "n_points = banana",
            ]
        )
        with pytest.raises(ConfigurationError) as err:
            validate_config(text)
        messages = err.value.errors
        assert any("line 3" in m for m in messages)
        assert any("line 5" in m for m in messages)
        assert any("g_bb" in m for m in messages)
        assert len(messages) >= 3

    def test_unknown_section(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            validate_config("[nope]\nx = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            validate_config("[system]\ng_bb = 0.5\ng_bb = 0.6\n")

    def test_integer_sweep_values_rejected(self):
        text = MINIMAL + "[sweep]\nparameter = n_bath\nvalues = 2, 2.7\n"
        with pytest.raises(ConfigurationError, match="sweep.values"):
            validate_config(text)

    @pytest.mark.parametrize(
        "parameter, values, error",
        [
            ("g_bi_final", "-1.0, 0.5",
             "[-1.0] for g_bi_final: system.g_bi_final must be >= 0 (repulsive model)"),
            ("n_modes", "4, 50", "[50.0] for n_modes: solver.ed.n_modes must be in 1..40"),
        ],
        ids=["g_bi_final", "n_modes"],
    )
    def test_sweep_values_meet_their_keys_checks(self, parameter, values, error):
        text = MINIMAL + f"[sweep]\nparameter = {parameter}\nvalues = {values}\n"
        with pytest.raises(ConfigurationError) as raised:
            validate_config(text)
        # only the value the key refuses is named, under sweep.values, on its line
        assert raised.value.errors == [f"line 6: sweep.values {error}"]

    def test_every_rule_is_covered(self):
        fields = dataclasses.fields(ExperimentConfig)
        ruled = {f.metadata["key"] for f in fields if f.metadata["rule"]}
        assert ruled == {key for key, _ in REFUSED}

    @pytest.mark.parametrize("key, value", REFUSED, ids=[key for key, _ in REFUSED])
    def test_refusal_is_anchored_to_its_line(self, key, value):
        section, _, name = key.rpartition(".")
        text = f"# refused values\n\n[{section}]\n{name} = {value}\n"
        with pytest.raises(ConfigurationError) as raised:
            validate_config(text)
        (error,) = raised.value.errors
        assert error.startswith(f"line 4: {key} ")

    def test_omitted_key_is_anchored_to_its_default(self):
        with pytest.raises(ConfigurationError) as raised:
            validate_config("[system]\nalpha = 0.8\n")
        (error,) = raised.value.errors
        assert error.startswith("default: system.beta must satisfy alpha^2 + beta^2 = 1")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_round_trip(self, data):
        drawn = {name: data.draw(strategy, label=name) for name, strategy in VALID.items()}
        angle = data.draw(st.floats(-math.pi, math.pi), label="angle")
        drawn["alpha"], drawn["beta"] = math.cos(angle), math.sin(angle)
        parameter = drawn["sweep_parameter"]
        values = SWEEP_VALUES.get(parameter, st.floats(-1e6, 1e6))
        drawn["sweep_values"] = tuple(data.draw(st.lists(values, max_size=4), label="values"))
        sections = {}
        for f in dataclasses.fields(ExperimentConfig):
            section, _, key = f.metadata["key"].rpartition(".")
            value = drawn[f.name]
            raw = ", ".join(map(repr, value)) if f.type is tuple else value
            sections.setdefault(section, []).append(f"{key} = {raw}")
        text = "".join(f"[{sec}]\n" + "\n".join(lines) + "\n" for sec, lines in sections.items())
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("OUTPUT_DIR", raising=False)
            assert validate_config(text).echo() == ExperimentConfig(**drawn).echo()

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[system]\ng_bb = nan\n", 2),
            ("[grid]\nx_max = inf\n", 2),
            ("[time]\ndt = nan\n", 2),
            ("[system]\nalpha = nan\nbeta = nan\n", 3),
            ("[sweep]\nparameter = g_bi_final\nvalues = 0.5, nan\n", 3),
        ],
        ids=["g_bb", "x_max", "dt", "alpha-beta", "sweep-values"],
    )
    def test_non_finite_values_rejected(self, text, line):
        with pytest.raises(ConfigurationError, match=f"line {line}: cannot parse"):
            validate_config(text)

    def test_missing_density_file_rejected(self, tmp_path):
        missing = str(tmp_path / "missing.txt")
        text = MINIMAL + f"[solver.effpot]\nsource = {missing}\n"
        with pytest.raises(ConfigurationError) as err:
            validate_config(text)
        assert any("solver.effpot.source" in m and missing in m for m in err.value.errors)
        (tmp_path / "missing.txt").write_text("0 1\n1 1\n")
        assert validate_config(text).source == missing

    def test_formats_key_rejected(self):
        with pytest.raises(ConfigurationError, match="line 2: unknown key 'formats'"):
            validate_config("[output]\nformats = csv\n")

    def test_output_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("OUTPUT_DIR", "/tmp/envdir")
        cfg = validate_config(MINIMAL)
        assert cfg.directory == "/tmp/envdir"

    def test_comments_and_blank_lines(self):
        cfg = validate_config("# comment\n\n[system]\nn_bath = 7  # inline\n")
        assert cfg.n_bath == 7


class TestCsvRoundTrip:
    def test_full_precision(self, tmp_path):
        path = str(tmp_path / "series.csv")
        values = np.array([1.0 / 3.0, np.pi, 1e-17, 123456.789012345678])
        runner._write_csv(path, ["a"], [values])
        _, data = runner.read_csv(path)
        assert np.array_equal(data[:, 0], values)

    @staticmethod
    def _per_element_csv(path, header, columns):
        # the row-by-row formatter the writer replaced: the byte-level oracle
        columns = [np.asarray(c) for c in columns]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(len(columns[0])):
                fh.write(",".join(f"{float(c[i]):.17g}" for c in columns) + "\n")

    @pytest.mark.parametrize(
        "columns",
        [
            [
                np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 1.0 / 3.0]),
                np.array([0, -1, 7, 2**53 + 1, -(2**40), 3, 12]),
                np.array([True, False, True, True, False, False, True]),
                [0.1, 2, -2.5e-300, 1e22, 4.0, -np.inf, 9007199254740993.0],
            ],
            [[1.0 / 3.0], np.array([2]), np.array([True])],
            [np.array([]), np.array([], dtype=int)],
        ],
        ids=["special-values", "single-row", "zero-rows"],
    )
    def test_writer_bytes_match_per_element_formatter(self, tmp_path, columns):
        header = [f"c{k}" for k in range(len(columns))]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        runner._write_csv(str(got), header, columns)
        self._per_element_csv(str(want), header, columns)
        assert got.read_bytes() == want.read_bytes()

    def test_writer_bytes_match_across_blocks(self, tmp_path, rng):
        # more rows than one formatting block, ending in a partial block
        n_rows = 2 * runner.CSV_BLOCK_ROWS + 7
        columns = [np.arange(n_rows) * 0.1, rng.standard_normal(n_rows), -np.arange(n_rows)]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        runner._write_csv(str(got), ["a", "b", "c"], columns)
        self._per_element_csv(str(want), ["a", "b", "c"], columns)
        assert got.read_bytes() == want.read_bytes()

    # float64 values the %.17g formatter treats specially; 2**53 + 1 reads as 2**53
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 7,
               2**53 + 1, -(2.0**53), 1.0 / 3.0, 1e308]

    @staticmethod
    def _columns(n_rows, n_columns):
        value = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(
            TestCsvRoundTrip.SPECIAL))
        column = st.lists(value, min_size=n_rows, max_size=n_rows)
        return st.lists(column, min_size=n_columns, max_size=n_columns)

    @staticmethod
    @contextlib.contextmanager
    def _small_blocks():
        # blocks of 3 rows put block edges inside a few-row column; the memo
        # is emptied on both sides so that no entry of another block size is read
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "CSV_BLOCK_ROWS", 3)
            runner._axis_text.cache_clear()
            try:
                yield
            finally:
                runner._axis_text.cache_clear()

    def _assert_oracle_bytes(self, tables):
        """Writes each (axis, other columns) table in turn, in one process,
        and compares every file with the per-element formatter."""
        with tempfile.TemporaryDirectory() as tmp, self._small_blocks():
            got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
            for axis, rest in tables:
                header = [f"c{k}" for k in range(1 + len(rest))]
                runner._write_csv(got, header, [axis, *rest])
                self._per_element_csv(want, header, [axis, *rest])
                with open(got, "rb") as g, open(want, "rb") as w:
                    assert g.read() == w.read()
            return runner._axis_text.cache_info()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n_rows=st.integers(0, 10))
    def test_axis_memo_hit_bytes_match_per_element_formatter(self, data, n_rows):
        axis = data.draw(self._columns(n_rows, 1))[0]
        tables = [(axis, data.draw(self._columns(n_rows, k))) for k in (1, 3, 0, 1)]
        info = self._assert_oracle_bytes(tables)
        assert info.misses == 1 and info.hits == 3

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n_rows=st.integers(1, 10))
    def test_alternating_axes_bytes_match_per_element_formatter(self, data, n_rows):
        first, second = data.draw(self._columns(n_rows, 2))
        rest = data.draw(self._columns(n_rows, 2))
        self._assert_oracle_bytes([(first, rest), (second, rest)] * 3)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data(), n_rows=st.integers(1, 7))
    def test_axes_beyond_the_memo_bound_bytes_match_per_element_formatter(self, data, n_rows):
        axes = data.draw(self._columns(n_rows, runner.CSV_AXIS_MEMO + 2))
        rest = data.draw(self._columns(n_rows, 1))
        info = self._assert_oracle_bytes([(axis, rest) for axis in axes * 2])
        assert info.maxsize == runner.CSV_AXIS_MEMO

    def test_unequal_column_lengths_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(UsageError, match="differ in length"):
            runner._write_csv(str(path), ["a", "b"], [np.arange(3.0), np.arange(2.0)])


class TestRunnerPipelines:
    def test_effpot_quench_outputs(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = validate_config(EFFPOT_FAST.format(outdir=outdir))
        summary = runner.run_quench(cfg)
        for name in ("contrast.csv", "spectrum.csv", "densities.csv",
                     "energies.csv", "summary.json", "manifest.json"):
            assert os.path.exists(os.path.join(outdir, name)), name
        tallest = max(summary["peaks"], key=lambda p: p["height"])
        assert tallest["omega"] == pytest.approx(4.435, rel=0.05)
        assert summary["density_scale"] == 1.0
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
        assert manifest["status"] == "ok"
        assert set(manifest["outputs"]) == {
            "contrast.csv", "spectrum.csv", "densities.csv", "energies.csv",
            "summary.json",
        }

    def test_manifest_records_peak_rss(self, tmp_path):
        ok_dir, failed_dir = str(tmp_path / "ok"), str(tmp_path / "failed")
        runner.run_quench(validate_config(EFFPOT_FAST.format(outdir=ok_dir)))
        cfg = validate_config(EFFPOT_FAST.format(outdir=failed_dir))
        cfg.tier = "meanfield"  # the tier relax runs, so the grid check is reached
        cfg.n_points = 8  # below the grid minimum
        with pytest.raises(ConfigurationError):
            runner.run_relax(cfg)
        for outdir, status in ((ok_dir, "ok"), (failed_dir, "failed")):
            manifest = json.load(open(os.path.join(outdir, "manifest.json")))
            assert manifest["status"] == status
            assert manifest["diagnostics"]["peak_rss_mb"] > 0

    def test_determinism_across_reruns(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        cfg1 = validate_config(EFFPOT_FAST.format(outdir=out1))
        cfg2 = validate_config(EFFPOT_FAST.format(outdir=out2))
        runner.run_quench(cfg1)
        runner.run_quench(cfg2)
        m1 = json.load(open(os.path.join(out1, "manifest.json")))["outputs"]
        m2 = json.load(open(os.path.join(out2, "manifest.json")))["outputs"]
        assert m1 == m2

    def test_ed_quench_small(self, tmp_path):
        outdir = str(tmp_path / "ed")
        cfg = validate_config(
            "\n".join(
                [
                    "[system]",
                    "n_bath = 2",
                    "g_bb = 0.5",
                    "g_bi_final = 1.0",
                    "[time]",
                    "dt = 0.1",
                    "t_max = 10",
                    "record_every = 5",
                    "[solver]",
                    "tier = ed",
                    "[solver.ed]",
                    "n_modes = 6",
                    f"[output]",
                    f"directory = {outdir}",
                ]
            )
        )
        summary = runner.run_quench(cfg)
        assert summary["min_contrast"] <= 1.0 + 1e-12
        assert os.path.exists(os.path.join(outdir, "entropy.csv"))
        assert summary["norm_drift"] < 1e-9

    def test_ed_quench_records_its_parity_sector(self, tmp_path):
        outdir = str(tmp_path / "ed")
        cfg = validate_config(
            "[system]\nn_bath = 2\ng_bb = 0.5\ng_bi_final = 1.0\n"
            "[time]\ndt = 0.1\nt_max = 1\nrecord_every = 5\n"
            f"[solver]\ntier = ed\n[solver.ed]\nn_modes = 6\n[output]\ndirectory = {outdir}\n"
        )
        summary = runner.run_quench(cfg)
        with open(os.path.join(outdir, "manifest.json")) as fh:
            sector = json.load(fh)["diagnostics"]["parity_sector"]
        # 21 bath states of 2 bosons in 6 modes, 3 impurity modes of each parity
        assert sector["parity"] == "even" and sector["dimension"] == 63
        assert sector["other_energy"] > summary["energy_reference"] + 0.5

    def test_meanfield_quench_unquenched_contrast(self, tmp_path):
        outdir = str(tmp_path / "mf")
        cfg = validate_config(
            "\n".join(
                [
                    "[system]",
                    "n_bath = 100",
                    "g_bb = 0.5",
                    "g_bi_final = 0.0",
                    "[time]",
                    "dt = 5e-4",
                    "t_max = 2",
                    "record_every = 400",
                    "[solver]",
                    "tier = meanfield",
                    "[output]",
                    f"directory = {outdir}",
                ]
            )
        )
        summary = runner.run_quench(cfg)
        header, data = runner.read_csv(os.path.join(outdir, "contrast.csv"))
        abs_col = data[:, header.index("abs_s")]
        assert np.max(np.abs(abs_col - 1.0)) < 1e-8
        assert summary["norm_drift"] < 1e-10
        assert os.path.exists(os.path.join(outdir, "energies.csv"))

    def test_meanfield_quench_one_record_interval(self, tmp_path):
        # one interval has two records, 0 and 1: the middle state is the last,
        # and each state gets its density columns once
        outdir = str(tmp_path / "mf1")
        cfg = validate_config(
            "\n".join(
                [
                    "[system]",
                    "n_bath = 10",
                    "[time]",
                    "dt = 1e-3",
                    "t_max = 0.1",
                    "record_every = 100",
                    "[solver]",
                    "tier = meanfield",
                    "[output]",
                    f"directory = {outdir}",
                ]
            )
        )
        runner.run_quench(cfg)
        header, data = runner.read_csv(os.path.join(outdir, "densities.csv"))
        assert len(header) == len(set(header))
        assert header == [
            "x", "rho_bath_t0", "rho_up_t0", "rho_down_t0",
            "rho_bath_t0.1", "rho_up_t0.1", "rho_down_t0.1",
        ]
        assert data.shape[1] == 7

    def test_ed_quench_default_scale(self, tmp_path):
        outdir = str(tmp_path / "ed4")
        cfg = validate_config(
            "\n".join(
                [
                    "[system]",
                    "n_bath = 4",
                    "g_bb = 0.5",
                    "g_bi_final = 1.0",
                    "[time]",
                    "dt = 0.1",
                    "t_max = 10",
                    "record_every = 2",
                    "[solver]",
                    "tier = ed",
                    "[solver.ed]",
                    "n_modes = 10",
                    "[output]",
                    f"directory = {outdir}",
                ]
            )
        )
        summary = runner.run_quench(cfg)
        header, data = runner.read_csv(os.path.join(outdir, "contrast.csv"))
        assert np.max(data[:, header.index("abs_s")]) <= 1.0 + 1e-10
        assert summary["energy_drift"] < 1e-8

    def test_breathing_effpot(self, tmp_path):
        outdir = str(tmp_path / "br")
        cfg = validate_config(BREATHING_TF.format(g_bi=0.0, outdir=outdir))
        payload = runner.run_breathing(cfg)
        assert payload["omega_br"] == pytest.approx(2.0, rel=0.01)
        assert payload["density_scale"] == 1.0
        assert os.path.exists(os.path.join(outdir, "variance.csv"))
        assert os.path.exists(os.path.join(outdir, "omega_br.json"))

    def test_breathing_effpot_solves_each_trap_once(self, tmp_path, monkeypatch):
        solve = ep.eigensolve
        traps = []

        def counting(pot, n_eig=40):
            traps.append(pot.omega_trap)
            return solve(pot, n_eig=n_eig)

        monkeypatch.setattr(ep, "eigensolve", counting)
        outdir = str(tmp_path / "br")
        cfg = validate_config(BREATHING_TF.format(g_bi=0.25, outdir=outdir))
        runner.run_breathing(cfg)
        assert traps == [0.95, 1.0]
        # the effective-mass fit reuses the initial spectrum: same numbers as
        # a fit on a fresh eigensolve of the initial trap
        grid = build_grid(cfg.n_points, cfg.x_max)
        tf = mf.thomas_fermi(mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.0))
        pot = ep.build_effective_potential(tf.density(grid), 0.25, omega_trap=0.95)
        moments = ep.stationary_moments(
            solve(pot, n_eig=cfg.n_eig), bare_ground_state(grid, omega=0.95),
            t_max=80.0, dt=0.02,
        )
        fit = ep.fit_effective_mass(
            moments["x2"], moments["p2"], {"x2_0": 1.0 / 1.9, "p2_0": 0.475}
        )
        with open(os.path.join(outdir, "omega_br.json"), encoding="utf-8") as fh:
            saved = json.load(fh)
        assert saved["fit_valid"]
        assert (saved["m_eff"], saved["omega_eff"]) == (fit.m_eff, fit.omega_eff)

    def test_relax_pipeline(self, tmp_path):
        outdir = str(tmp_path / "rx")
        cfg = validate_config(
            "[system]\nn_bath = 100\ng_bb = 0.5\n"
            f"[output]\ndirectory = {outdir}\n"
        )
        summary = runner.run_relax(cfg)
        assert summary["virial_relative"] < 1e-5
        assert summary["mu_bath"] == pytest.approx(summary["tf_mu"], rel=0.02)
        for name in ("densities.csv", "energies.csv", "summary.json", "manifest.json"):
            assert os.path.exists(os.path.join(outdir, name)), name

    def test_relax_rho_down_is_bare_trap_state(self, tmp_path):
        outdir = str(tmp_path / "rx")
        cfg = validate_config(
            "[system]\nn_bath = 100\ng_bb = 0.5\ng_bi_initial = 0.4\nomega_i_initial = 0.9\n"
            f"[output]\ndirectory = {outdir}\n"
        )
        runner.run_relax(cfg)
        header, data = runner.read_csv(os.path.join(outdir, "densities.csv"))
        cols = dict(zip(header, data.T))
        grid = build_grid(cfg.n_points, cfg.x_max)
        bare = np.exp(-0.9 * grid.x**2)
        bare /= np.sum(bare) * grid.dx
        assert np.max(np.abs(cols["rho_down"] - bare)) < 1e-12
        # the dressed spin-up orbital is pushed out of the bath's centre
        assert np.max(np.abs(cols["rho_up"] - cols["rho_down"])) > 1e-2

    def test_breathing_meanfield_tier(self, tmp_path):
        outdir = str(tmp_path / "brmf")
        cfg = validate_config(
            "\n".join(
                [
                    "[system]",
                    "n_bath = 100",
                    "g_bb = 0.5",
                    "g_bi_final = 0.0",
                    "omega_i_initial = 0.95",
                    "omega_i_final = 1.0",
                    "[time]",
                    "dt = 5e-4",
                    "t_max = 16",
                    "record_every = 40",
                    "[solver]",
                    "tier = meanfield",
                    "[output]",
                    f"directory = {outdir}",
                ]
            )
        )
        payload = runner.run_breathing(cfg)
        assert payload["omega_br"] == pytest.approx(2.0, rel=0.02)

    def test_breathing_ed_tier_rejected(self, tmp_path):
        outdir = str(tmp_path / "bred")
        cfg = validate_config(
            BREATHING_TF.format(g_bi=0.5, outdir=outdir).replace("tier = effpot", "tier = ed")
        )
        with pytest.raises(ConfigurationError, match="tier"):
            runner.run_breathing(cfg)
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == {}

    @pytest.mark.parametrize(
        "key, line, tier",
        [
            ("g_bi_initial", "g_bi_initial = 0.3", "ed"),
            ("omega_i_final", "omega_i_final = 1.2", "ed"),
            ("omega_b", "omega_b = 1.1", "ed"),
            ("g_bi_initial", "g_bi_initial = 0.3", "effpot"),
            ("omega_i_final", "omega_i_final = 1.2", "effpot"),
            ("omega_i_final", "omega_i_final = 1.2", "meanfield"),
        ],
    )
    def test_ed_quench_needs_stationary_spin_down_branch(self, tmp_path, key, line, tier):
        outdir = str(tmp_path / "edq")
        cfg = validate_config(ED_SMALL.format(extra=line, outdir=outdir))
        cfg.tier = tier
        with pytest.raises(ConfigurationError, match=f"tier {tier} quench needs system.{key}"):
            runner.run_quench(cfg)
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
        assert manifest["status"] == "failed"

    def test_breathing_requires_frequency_change(self, tmp_path):
        outdir = str(tmp_path / "x")
        cfg = validate_config(MINIMAL + f"[output]\ndirectory = {outdir}\n")
        with pytest.raises(ConfigurationError, match="omega_i_initial != omega_i_final"):
            runner.run_breathing(cfg)
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
        assert manifest["status"] == "failed"

    def test_sweep_requires_values(self, tmp_path):
        outdir = str(tmp_path / "s")
        cfg = validate_config(MINIMAL + f"[output]\ndirectory = {outdir}\n")
        cfg.sweep_parameter = "g_bi_final"
        with pytest.raises(ConfigurationError, match="value"):
            runner.run_sweep(cfg)
        assert json.load(open(os.path.join(outdir, "manifest.json")))["status"] == "failed"

    def test_sweep_rejects_non_integral_values(self, tmp_path):
        outdir = str(tmp_path / "swi")
        cfg = validate_config(EFFPOT_FAST.format(outdir=outdir))
        cfg.sweep_parameter, cfg.sweep_values = "n_bath", (2.0, 2.7)
        with pytest.raises(ConfigurationError, match="sweep.values"):
            runner.run_sweep(cfg)
        assert not os.path.exists(os.path.join(outdir, "n_bath_000"))
        assert json.load(open(os.path.join(outdir, "manifest.json")))["status"] == "failed"

    def test_sweep_parallel_jobs(self, tmp_path):
        outdir = str(tmp_path / "swp")
        cfg = validate_config(
            EFFPOT_FAST.format(outdir=outdir)
            + "[sweep]\nparameter = g_bi_final\nvalues = 0.2, 0.3\n"
        )
        agg, results = runner.run_sweep(cfg, jobs=2)
        assert not agg["failures"]
        _, data = runner.read_csv(os.path.join(outdir, "aggregate.csv"))
        assert data.shape[0] == 2
        assert np.all(data[:, 1] == 1.0)

    def test_sweep_identical_values_identical_checksums(self, tmp_path):
        outdir = str(tmp_path / "sw")
        cfg = validate_config(
            EFFPOT_FAST.format(outdir=outdir)
            + "[sweep]\nparameter = g_bi_final\nvalues = 0.25, 0.25\n"
        )
        agg, results = runner.run_sweep(cfg)
        assert not agg["failures"]
        m0 = json.load(open(os.path.join(outdir, "g_bi_final_000", "manifest.json")))
        m1 = json.load(open(os.path.join(outdir, "g_bi_final_001", "manifest.json")))
        assert m0["outputs"] == m1["outputs"]

    def test_effpot_file_density_source(self, tmp_path):
        from polaron1d import meanfield as mf

        profile = mf.thomas_fermi(mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.0))
        xs = np.linspace(-8.0, 8.0, 600)
        sample = tmp_path / "bath_density.txt"
        np.savetxt(sample, np.column_stack([xs, profile.density_values(xs)]))
        outdir = str(tmp_path / "filerun")
        cfg = validate_config(EFFPOT_FAST.format(outdir=outdir))
        cfg.source = str(sample)
        summary = runner.run_quench(cfg)
        assert summary["source"] == "externally-supplied"
        tallest = max(summary["peaks"], key=lambda p: p["height"])
        assert tallest["omega"] == pytest.approx(4.435, rel=0.05)

    def test_effpot_file_density_rejects_non_finite(self, tmp_path):
        sample = tmp_path / "bath_density.txt"
        sample.write_text("-1 0\n0 nan\n1 0\n")
        cfg = validate_config(EFFPOT_FAST.format(outdir=str(tmp_path / "filerun")))
        cfg.source = str(sample)
        with pytest.raises(ConfigurationError, match="bath_density.txt: non-finite"):
            runner.run_quench(cfg)

    @pytest.mark.parametrize("off", [1.02, 1.10])
    def test_effpot_file_density_always_rescaled(self, tmp_path, off):
        grid = build_grid(450, 40.0)
        profile = mf.thomas_fermi(mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.0))
        rho = profile.density_values(grid.x)
        rho *= off * 100 / (np.sum(rho) * grid.dx)
        sample = tmp_path / "bath_density.txt"
        np.savetxt(sample, np.column_stack([grid.x, rho]))
        outdir = str(tmp_path / "filerun")
        cfg = validate_config(EFFPOT_FAST.format(outdir=outdir))
        cfg.source = str(sample)
        summary = runner.run_quench(cfg)
        assert summary["density_scale"] == pytest.approx(1.0 / off, rel=1e-12)
        header, data = runner.read_csv(os.path.join(outdir, "densities.csv"))
        rho_bath = data[:, header.index("rho_bath")]
        assert np.sum(rho_bath) * grid.dx == pytest.approx(100.0, rel=1e-12)
        saved = json.load(open(os.path.join(outdir, "summary.json")))
        assert saved["density_scale"] == summary["density_scale"]

    def test_effpot_reports_mirror_symmetry(self, tmp_path):
        grid = build_grid(450, 40.0)
        profile = mf.thomas_fermi(mf.MeanFieldSystem(n_bath=100, g_bb=0.5, g_bi=0.0))
        sample = tmp_path / "shifted_density.txt"
        np.savetxt(sample, np.column_stack([grid.x, profile.density_values(grid.x - 0.3)]))
        for source, symmetric in (("tf", True), (str(sample), False)):
            outdir = str(tmp_path / f"run_{symmetric}")
            cfg = validate_config(EFFPOT_FAST.format(outdir=outdir))
            cfg.source = source
            runner.run_quench(cfg)
            manifest = json.load(open(os.path.join(outdir, "manifest.json")))
            assert manifest["diagnostics"]["mirror_symmetric"] is symmetric
        outdir = str(tmp_path / "breathing")
        runner.run_breathing(validate_config(BREATHING_TF.format(g_bi=0.25, outdir=outdir)))
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
        assert manifest["diagnostics"]["mirror_symmetric"] is True

    def test_relaxed_source_reports_relaxation(self, tmp_path):
        cfg = validate_config(RELAXED_SWEEP.format(outdir=str(tmp_path / "sw")))
        runner.run_sweep(cfg)
        system = mf.MeanFieldSystem(n_bath=20, g_bb=0.5, g_bi=0.0)
        _, res = mf.relax_ground_state(system, build_grid(225, 20.0))
        for k in range(3):
            path = os.path.join(cfg.directory, f"g_bi_final_{k:03d}", "manifest.json")
            diagnostics = json.load(open(path))["diagnostics"]
            assert diagnostics["relax_iterations"] == res.iterations
            assert diagnostics["relax_residual"] == max(
                res.residual_bath, res.residual_impurity
            )
            summary = json.load(open(path.replace("manifest.json", "summary.json")))
            assert summary["density_scale"] == 1.0

    def test_relaxed_sweep_relaxes_once(self, tmp_path, monkeypatch):
        relax = mf.relax_ground_state
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return relax(*args, **kwargs)

        monkeypatch.setattr(mf, "relax_ground_state", counting)
        serial = str(tmp_path / "serial")
        cfg = validate_config(RELAXED_SWEEP.format(outdir=serial))
        agg, _ = runner.run_sweep(cfg)
        assert not agg["failures"]
        assert len(calls) == 1

        def outputs(directory):
            with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
                return json.load(fh)["outputs"]

        points = [f"g_bi_final_{k:03d}" for k in range(3)]
        for point, value in zip(points, cfg.sweep_values):
            runner._relaxed.cache_clear()
            alone = validate_config(RELAXED_SWEEP.format(outdir=str(tmp_path / point)))
            alone.g_bi_final = value
            runner.run_quench(alone)
            assert outputs(os.path.join(serial, point)) == outputs(alone.directory)

        system = mf.MeanFieldSystem(n_bath=20, g_bb=0.5, g_bi=0.0)
        state, _ = runner._relaxed(system, build_grid(225, 20.0))
        for orbital in (state.bath, state.up, state.down):
            assert not orbital.values.flags.writeable
            with pytest.raises(ValueError):
                orbital.values[1] = 0.0

        runner._relaxed.cache_clear()
        parallel = str(tmp_path / "parallel")
        cfg = validate_config(RELAXED_SWEEP.format(outdir=parallel))
        agg, _ = runner.run_sweep(cfg, jobs=2)
        assert not agg["failures"]
        assert outputs(parallel)["aggregate.csv"] == outputs(serial)["aggregate.csv"]
        for point in points:
            assert outputs(os.path.join(parallel, point)) == outputs(os.path.join(serial, point))

    def test_meanfield_quench_sweep_relaxes_once(self, tmp_path, monkeypatch):
        relax = mf.relax_ground_state
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return relax(*args, **kwargs)

        monkeypatch.setattr(mf, "relax_ground_state", counting)
        cfg = validate_config(MF_SWEEP.format(outdir=str(tmp_path / "sw")))
        agg, _ = runner.run_sweep(cfg)
        assert not agg["failures"]
        assert len(calls) == 1
        # the cached ground state gives the same outputs as a fresh relaxation
        runner._relaxed.cache_clear()
        alone = validate_config(MF_SWEEP.format(outdir=str(tmp_path / "alone")))
        alone.g_bi_final = 0.6
        runner.run_quench(alone)
        assert len(calls) == 2

        def outputs(directory):
            with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
                return json.load(fh)["outputs"]

        assert outputs(alone.directory) == outputs(os.path.join(cfg.directory, "g_bi_final_001"))

    def test_breathing_sweep_aggregate(self, tmp_path):
        cfg = validate_config(BREATHING_SWEEP.format(outdir=str(tmp_path / "sw")))
        agg, _ = runner.run_sweep(cfg)
        assert agg["pipeline"] == "sweep-breathing" and not agg["failures"]
        header, data = runner.read_csv(os.path.join(cfg.directory, "aggregate.csv"))
        assert header == ["g_bi_final", "status", "omega_br", "m_eff", "omega_eff"]
        for k, row in enumerate(data):
            path = os.path.join(cfg.directory, f"g_bi_final_{k:03d}", "omega_br.json")
            with open(path, encoding="utf-8") as fh:
                point = json.load(fh)
            assert row[1] == 1.0 and row[2] == point["omega_br"]
            if k == 0:
                assert point["fit_valid"]
                assert (row[3], row[4]) == (point["m_eff"], point["omega_eff"])
            else:  # g_bi = 0.5: the harmonic model does not fit
                assert not point["fit_valid"] and "fit invalid" in point["fit_error"]
                assert np.isnan(row[3]) and np.isnan(row[4])

    def test_quench_sweep_records_a_failed_point(self, tmp_path):
        outdir = str(tmp_path / "sw")
        cfg = validate_config(
            EFFPOT_FAST.format(outdir=outdir).replace("n_eig = 40", "n_eig = 10")
            + "[sweep]\nparameter = g_bi_final\nvalues = 0.2, 3.0\n"
        )
        agg, results = runner.run_sweep(cfg)
        # ten stationary states do not hold the bare impurity at g_bi = 3.0
        assert list(agg["failures"]) == ["3.0"]
        assert "increase n_eig" in agg["failures"]["3.0"]
        assert results[1][1] is None
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            assert json.load(fh)["status"] == "partial"
        _, data = runner.read_csv(os.path.join(outdir, "aggregate.csv"))
        assert data[0, 1] == 1.0 and data[0, 2] == results[0][1]["min_contrast"]
        assert data[1, 0] == 3.0 and data[1, 1] == 0.0
        assert np.all(np.isnan(data[1, 2:]))

    def test_analyze_round_trip(self, tmp_path):
        outdir = str(tmp_path / "run")
        cfg = validate_config(EFFPOT_FAST.format(outdir=outdir))
        summary = runner.run_quench(cfg)
        outdir2 = str(tmp_path / "re")
        cfg2 = validate_config(EFFPOT_FAST.format(outdir=outdir2))
        re_summary = runner.run_analyze(os.path.join(outdir, "contrast.csv"), cfg2)
        a = max(summary["peaks"], key=lambda p: p["height"])["omega"]
        b = max(re_summary["peaks"], key=lambda p: p["height"])["omega"]
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize(
        "pipeline, error, code",
        [
            ("relax", "ConfigurationError", 2),
            ("quench", "FileNotFoundError", 2),
            ("breathing", "FileNotFoundError", 2),
            ("analyze", "UsageError", 3),
        ],
        ids=["relax", "quench", "breathing", "analyze"],
    )
    def test_failed_run_writes_failed_manifest(self, tmp_path, pipeline, error, code):
        outdir = str(tmp_path / "fail")
        cfg = validate_config(EFFPOT_FAST.format(outdir=outdir))
        cfg.source = str(tmp_path / "missing.txt")  # quench, breathing: no density file
        if pipeline == "breathing":
            cfg.omega_i_final = 1.2  # a breathing run needs a trap change to start
        if pipeline == "relax":
            cfg.tier = "meanfield"  # the tier relax runs, so the grid check is reached
            cfg.n_points = 8  # below the grid minimum
        bad_csv = tmp_path / "contrast.csv"
        bad_csv.write_text("t,abs_s\n0,1\n1,1\n")
        args = (str(bad_csv), cfg) if pipeline == "analyze" else (cfg,)
        with pytest.raises(Exception) as raised:
            getattr(runner, f"run_{pipeline}")(*args)
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
        assert manifest["status"] == "failed"
        # the error that ended the run, with the exit code the CLI gives it
        assert manifest["diagnostics"]["error"] == {
            "type": error, "message": str(raised.value), "exit_code": code
        }


class TestCli:
    def _write_cfg(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_validate_command(self, tmp_path, capsys):
        path = self._write_cfg(tmp_path, MINIMAL)
        code = cli.main(["validate", "--config", path])
        assert code == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["n_points"] == 450

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = self._write_cfg(tmp_path, "[system]\ng_bb = -2\n")
        assert cli.main(["validate", "--config", path]) == 2
        assert "g_bb" in capsys.readouterr().err

    def test_validate_refuses_missing_density_file(self, tmp_path, capsys):
        missing = str(tmp_path / "rho.txt")
        path = self._write_cfg(tmp_path, MINIMAL + f"[solver.effpot]\nsource = {missing}\n")
        assert cli.main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "solver.effpot.source" in err and missing in err

    def test_missing_file_exit_code(self, capsys):
        assert cli.main(["validate", "--config", "/nonexistent.cfg"]) == 2

    def test_quench_and_analyze_commands(self, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        path = self._write_cfg(tmp_path, EFFPOT_FAST.format(outdir=outdir))
        assert cli.main(["quench", "--config", path]) == 0
        contrast = os.path.join(outdir, "contrast.csv")
        outdir2 = str(tmp_path / "re")
        assert cli.main(["analyze", "--config", path, "--output", outdir2, contrast]) == 0
        assert os.path.exists(os.path.join(outdir2, "summary.json"))

    def test_tier_override_to_ed_checks_initial_coupling(self, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        text = ED_SMALL.format(extra="g_bi_initial = 0.3", outdir=outdir)
        path = self._write_cfg(tmp_path, text.replace("tier = ed", "tier = meanfield"))
        assert cli.main(["quench", "--config", path, "--tier", "ed"]) == 2
        assert "g_bi_initial" in capsys.readouterr().err

    @pytest.mark.parametrize("tier", ["ed", "meanfield"])
    def test_t_max_below_one_record_interval_exits_2(self, tmp_path, capsys, tier):
        # 20 steps of dt = 0.1 are short of one 30-step record interval
        outdir = str(tmp_path / "out")
        text = ED_SMALL.format(extra="", outdir=outdir).replace("t_max = 2", "t_max = 2\nrecord_every = 30")
        path = self._write_cfg(tmp_path, text)
        assert cli.main(["quench", "--config", path, "--tier", tier]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in ("time.t_max", "time.dt", "time.record_every"))
        assert json.load(open(os.path.join(outdir, "manifest.json")))["status"] == "failed"

    def test_validate_refuses_a_t_max_the_effpot_run_refuses(self, tmp_path, capsys):
        # the effpot tier floors dt = 5e-4 at 0.02, so t_max = 0.005 records nothing
        outdir = str(tmp_path / "out")
        text = EFFPOT_FAST.format(outdir=outdir).replace(
            "dt = 0.05\nt_max = 60", "dt = 5e-4\nt_max = 0.005"
        )
        path = self._write_cfg(tmp_path, text)
        assert cli.main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        for key in ("time.t_max = 0.005", "time.dt = 0.0005", "time.record_every = 1", "0.02"):
            assert key in err
        assert cli.main(["quench", "--config", path]) == 2
        assert "time.dt = 0.0005" in capsys.readouterr().err
        assert json.load(open(os.path.join(outdir, "manifest.json")))["status"] == "failed"

    def test_validate_refuses_a_t_max_the_meanfield_sweep_refuses(self, tmp_path, capsys):
        # a sweep validates against its quench points: t_max = 0.01 is short
        # of one record interval 5e-4 * 100; a lone mean-field config stays
        # valid, because relax reads no time key
        outdir = str(tmp_path / "out")
        text = (
            "[system]\nn_bath = 10\n[time]\ndt = 5e-4\nt_max = 0.01\nrecord_every = 100\n"
            f"[output]\ndirectory = {outdir}\n"
        )
        assert cli.main(["validate", "--config", self._write_cfg(tmp_path, text)]) == 0
        path = self._write_cfg(
            tmp_path, text + "[sweep]\nparameter = g_bi_final\nvalues = 0.5, 1.0\n"
        )
        assert cli.main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "time.dt * time.record_every = 0.0005 * 100 = 0.05" in err
        assert cli.main(["sweep", "--config", path]) == 2
        assert "time.t_max = 0.01" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(outdir, "g_bi_final_000"))

    def test_ed_quench_files_share_one_record_clock(self, tmp_path):
        # 4285 records of 7 steps of dt = 1e-3: a running sum of dt drifts
        # off 0.007 k by round-off, so every file must read the one clock
        outdir = str(tmp_path / "out")
        text = ED_SMALL.format(extra="", outdir=outdir).replace(
            "dt = 0.1\nt_max = 2", "dt = 1e-3\nt_max = 30\nrecord_every = 7"
        )
        path = self._write_cfg(tmp_path, text.replace("n_modes = 6", "n_modes = 4"))
        assert cli.main(["quench", "--config", path]) == 0
        clock = 0.0 + (1e-3 * 7) * np.arange(4286)
        for name in ("contrast.csv", "entropy.csv", "energies.csv"):
            header, data = runner.read_csv(os.path.join(outdir, name))
            assert np.array_equal(data[:, header.index("t")], clock), name

    def test_jobs_is_a_sweep_option_only(self, tmp_path, capsys):
        path = self._write_cfg(tmp_path, MINIMAL)
        with pytest.raises(SystemExit) as exc:
            cli.main(["quench", "--config", path, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_with_no_jobs_exits_2(self, tmp_path, capsys):
        outdir = str(tmp_path / "swj")
        path = self._write_cfg(
            tmp_path,
            EFFPOT_FAST.format(outdir=outdir)
            + "[sweep]\nparameter = g_bi_final\nvalues = 0.2, 0.3\n",
        )
        assert cli.main(["sweep", "--config", path, "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(outdir, "g_bi_final_000"))
        assert json.load(open(os.path.join(outdir, "manifest.json")))["status"] == "failed"

    @pytest.mark.parametrize("tier", ["meanfield", "effpot", "ed"])
    @pytest.mark.parametrize("pipeline", ["relax", "quench", "breathing"])
    def test_tier_matrix(self, tmp_path, capsys, pipeline, tier):
        supported = {
            "relax": ("meanfield",),
            "quench": ("meanfield", "effpot", "ed"),
            "breathing": ("meanfield", "effpot"),
        }
        outdir = str(tmp_path / "out")
        omega_i_final = 1.2 if pipeline == "breathing" else 1.0
        path = self._write_cfg(
            tmp_path, TIER_MATRIX.format(omega_i_final=omega_i_final, outdir=outdir)
        )
        code = cli.main([pipeline, "--config", path, "--tier", tier])
        if tier in supported[pipeline]:
            assert code == 0
            name = "omega_br.json" if pipeline == "breathing" else "summary.json"
            with open(os.path.join(outdir, name), encoding="utf-8") as fh:
                assert json.load(fh)["tier"] == tier
        else:
            assert code == 2
            assert "solver.tier" in capsys.readouterr().err

    def test_validate_refuses_what_no_pipeline_can_run(self, tmp_path, capsys):
        # the ED tier runs quench only, and its quench starts from g_bi = 0
        path = self._write_cfg(
            tmp_path, ED_SMALL.format(extra="g_bi_initial = 0.3", outdir=tmp_path / "v")
        )
        assert cli.main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "quench: tier ed quench needs system.g_bi_initial = 0.0, got 0.3" in err
        assert cli.main(["quench", "--config", path]) == 2
        # an effpot config that quench refuses and breathing runs stays valid
        path = self._write_cfg(
            tmp_path, BREATHING_TF.format(g_bi=0.25, outdir=tmp_path / "b")
            .replace("[time]", "g_bi_initial = 0.3\n[time]")
        )
        assert cli.main(["validate", "--config", path]) == 0
        assert cli.main(["quench", "--config", path]) == 2

    def test_sweep_refused_when_its_pipeline_contract_fails(self, tmp_path, capsys):
        outdir = str(tmp_path / "sw")
        text = ED_SMALL.format(extra="g_bi_initial = 0.3", outdir=outdir)
        path = self._write_cfg(
            tmp_path, text + "[sweep]\nparameter = g_bi_final\nvalues = 0.5, 1.0\n"
        )
        assert cli.main(["validate", "--config", path]) == 2
        assert "system.g_bi_initial" in capsys.readouterr().err
        assert cli.main(["sweep", "--config", path]) == 2
        assert "tier ed quench needs system.g_bi_initial" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(outdir, "g_bi_final_000"))
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            assert json.load(fh)["status"] == "failed"

    def test_step_size_error_exits_3(self, tmp_path, capsys):
        # N_B = 10 quenched from g_bi = 0 to 5 at dt = 0.05: the energy gate trips
        outdir = str(tmp_path / "out")
        text = (
            "[system]\nn_bath = 10\ng_bb = 0.5\ng_bi_final = 5\n"
            "[grid]\nn_points = 128\nx_max = 20\n"
            "[time]\ndt = 0.05\nt_max = 1\nrecord_every = 1\n"
            f"[output]\ndirectory = {outdir}\n"
        )
        assert cli.main(["quench", "--config", self._write_cfg(tmp_path, text)]) == 3
        assert "StepSizeError: energy drift" in capsys.readouterr().err
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["status"] == "failed"
        assert manifest["diagnostics"]["error"]["type"] == "StepSizeError"

    def test_tier_override(self, tmp_path):
        outdir = str(tmp_path / "out")
        path = self._write_cfg(
            tmp_path,
            EFFPOT_FAST.format(outdir=outdir).replace("tier = effpot", "tier = meanfield"),
        )
        cfg_text = open(path).read()
        assert "meanfield" in cfg_text
        code = cli.main(["validate", "--config", path, "--tier", "effpot"])
        assert code == 0
