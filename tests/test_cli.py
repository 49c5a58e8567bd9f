"""Command-line interface: records, artifacts, exit codes, reproducibility."""

import argparse
import csv
import errno
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from qccsim import cli, montecarlo, neutron, qcc
from qccsim.cli import MC_MODES, SCENARIO_TABLE, build_parser, main, parse_range
from qccsim.errors import CapacityError, ValidationError
from qccsim.montecarlo import estimate_weak_value, sample_trials
from qccsim.neutron import AbsorberConfig, MagneticConfig
from qccsim.pointer import check_width, make_gaussian
from qccsim.qcc import OBSERVABLE_TAGS
from qccsim.weakmeas import Spectrum

from oracles import fit_exponent

DATA = Path(__file__).parent / "data"

OVERFLOW_1E300 = "OverflowError: Gaussian pointer overflows: 8*pointer_width**2 at pointer_width=1e+300"
OVERFLOW_1E_160 = (
    "OverflowError: validity second order overflows: sqrt(3)/(4*pointer_width**2) at pointer_width=1e-160"
)
# Pointer widths beyond float range: each run exits 5, naming the width, before any sampling.
EXTREME_WIDTHS = [
    (("weak-value", "--pointer-width", "1e300"), OVERFLOW_1E300),
    (("qcc", "--pointer-width", "1e300"), OVERFLOW_1E300),
    (("montecarlo", "--n", "2000", "--pointer-width", "1e300"), OVERFLOW_1E300),
    (("weak-value", "--pointer-width", "1e-160", "--g", "1"), OVERFLOW_1E_160),
    (
        ("weak-value", "--pointer-width", "1e-300"),
        "ZeroDivisionError: Gaussian pointer underflows to 0: 8*pointer_width**2 at pointer_width=1e-300",
    ),
]

MANDATED_WEAK_VALUE_FIELDS = (
    "weak_value_re",
    "weak_value_im",
    "transition_re",
    "transition_im",
    "postselect_prob",
    "exact_shift",
    "predicted_shift",
    "validity_margin",
)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_without_timestamp(text: str) -> dict:
    record = json.loads(text)
    record.pop("timestamp")
    return record


class TestRunRecord:
    def test_qcc_record_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "qcc", "--g", "0.02")
        assert code == 0
        golden = record_without_timestamp((DATA / "qcc_run.json").read_text())
        assert record_without_timestamp(out) == golden

    def test_record_envelope(self, capsys):
        _, out, _ = run_cli(capsys, "neutron-absorber", "--arm", "II", "--M", "0.3")
        record = json.loads(out)
        assert record["artifact"] == "qccsim"
        assert record["scenario"] == "neutron-absorber"
        assert record["config"] == {"arm": "II", "M": 0.3}
        assert record["results"]["ratio"] == pytest.approx(1.0, abs=1e-15)

    def test_weak_value_mandated_fields(self, capsys):
        code, out, _ = run_cli(capsys, "weak-value", "--context", "qcc-pi-I", "--g", "0.01")
        assert code == 0
        results = json.loads(out)["results"]
        for field in MANDATED_WEAK_VALUE_FIELDS:
            assert field in results
        assert results["weak_value_re"] == pytest.approx(1.0, abs=1e-12)
        assert results["exact_shift"] == pytest.approx(0.01, abs=1e-12)

    def test_json_file_equals_stdout(self, capsys, tmp_path):
        target = tmp_path / "record.json"
        _, out, _ = run_cli(capsys, "qcc", "--g", "0.02", "--json", str(target))
        assert target.read_text() == out

    def test_reruns_are_identical_up_to_timestamp(self, capsys):
        _, first, _ = run_cli(capsys, "qcc-joint", "--g", "0.03")
        _, second, _ = run_cli(capsys, "qcc-joint", "--g", "0.03")
        assert record_without_timestamp(first) == record_without_timestamp(second)

    def test_pointer_montecarlo_reports_the_exact_weak_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--mode", "pointer", "--context", "qcc-pi-I",
            "--g", "0.1", "--n", "200", "--seed", "3",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["exact_weak_value_re"] == pytest.approx(1.0, abs=1e-12)

    def test_a_magnetic_run_builds_one_report_and_infers_once(self, capsys, monkeypatch):
        # The systematic term reads its two ratios from exact intensities, not from reports of its own.
        calls = dict.fromkeys(("intensity_magnetic", "infer_spin_weak_value_modulus", "require"), 0)
        for name in calls:
            original = getattr(neutron, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in [m for key, m in sys.modules.items() if key.startswith("qccsim")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        run_cli(capsys, "neutron-magnetic")  # the first run builds the cached arm tables
        calls.update(dict.fromkeys(calls, 0))
        code, _, _ = run_cli(capsys, "neutron-magnetic")
        assert code == 0
        assert calls == {"intensity_magnetic": 1, "infer_spin_weak_value_modulus": 1, "require": 9}


class TestCsvArtifacts:
    def test_sweep_csv_matches_golden(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "qcc", "--g", "0.0:0.04:3", "--csv", str(target)
        )
        assert code == 0
        assert target.read_text() == (DATA / "qcc_sweep.csv").read_text()

    def test_grid_csv_matches_golden(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "weak-value", "--context", "anomalous", "--g", "0.1",
            "--grid-xmin", "-10", "--grid-xmax", "10", "--grid-points", "64",
            "--csv", str(target),
        )
        assert code == 0
        assert target.read_text() == (DATA / "anomalous_grid.csv").read_text()

    def test_trials_csv_matches_golden(self, capsys, tmp_path):
        target = tmp_path / "trials.csv"
        code, _, _ = run_cli(
            capsys, "montecarlo", "--mode", "pointer", "--context", "qcc-pi-I",
            "--g", "0.1", "--n", "50", "--seed", "7", "--csv", str(target),
        )
        assert code == 0
        assert target.read_text() == (DATA / "trials_n50.csv").read_text()

    def test_grid_density_is_normalized(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        run_cli(
            capsys, "weak-value", "--context", "qcc-pi-I", "--g", "0.01",
            "--csv", str(target),
        )
        with open(target) as fh:
            rows = list(csv.DictReader(fh))
        xs = np.array([float(r["x"]) for r in rows])
        dens = np.array([float(r["prob_density"]) for r in rows])
        total = np.trapezoid(dens, xs)
        # The postselected pointer is unnormalized: density integrates
        # to the coupled postselection probability.
        assert total == pytest.approx(0.25, abs=1e-6)

    def test_csv_rejected_for_scalar_scenarios(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "neutron-absorber", "--arm", "I", "--M", "0.1",
            "--csv", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "csv" in json.loads(err)["error"]["message"]

    def test_outdir_env_var_anchors_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QCCSIM_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "neutron-absorber", "--arm", "I",
            "--M", "0.0:0.2:3", "--csv", "ratios.csv",
        )
        assert code == 0
        assert (tmp_path / "ratios.csv").exists()

    def test_out_flag_overrides_cwd(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--scenario", "qcc", "--g", "0.0:0.02:2",
            "--csv", "table.csv", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("mode", MC_MODES[1:])
    def test_csv_rejected_for_intensity_montecarlo(self, capsys, tmp_path, mode):
        argv = ("montecarlo", "--mode", mode, "--n", "100", "--csv", "t.csv", "--out", str(tmp_path))
        message = f"csv: no CSV artifact defined for montecarlo mode {mode}"
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["message"] == message
        code, out, _ = run_cli(capsys, *argv, "--validate-only")
        assert code == 3
        assert json.loads(out)["violations"] == [message]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--scenario", "qcc", "--g", "0:1:3", "--csv", "s.csv"),
            ("weak-value", "--csv", "g.csv"),
            ("montecarlo", "--n", "100", "--csv", "t.csv"),
        ],
        ids=["sweep", "grid", "trials"],
    )
    def test_failed_json_write_leaves_no_csv(self, capsys, tmp_path, argv):
        (tmp_path / "d").mkdir()
        code, out, err = run_cli(capsys, *argv, "--json", "d", "--out", str(tmp_path))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["type"] == "IsADirectoryError"
        assert [f.name for f in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_csv_onto_the_output_directory_leaves_no_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--scenario", "qcc", "--g", "0:1:3", "--csv", ".",
                                 "--out", str(tmp_path))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["type"] == "IsADirectoryError"
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_removes_only_the_directories_it_created(self, capsys, tmp_path):
        (tmp_path / "old").mkdir()
        code, out, err = run_cli(capsys, "weak-value", "--context", "orthogonal", "--csv", "new/sub/g.csv",
                                 "--json", "old/new/r.json", "--out", str(tmp_path))
        assert (code, out) == (5, "")
        assert json.loads(err)["error"]["type"] == "OrthogonalPostselection"
        assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] == ["old"]

    @pytest.mark.parametrize("json_path", ["x", "./x"])
    def test_csv_and_json_naming_one_file_is_a_violation(self, capsys, tmp_path, json_path):
        argv = ("weak-value", "--csv", "x", "--json", json_path, "--out", str(tmp_path))
        message = f"json: --json and --csv name the same file {str(tmp_path / 'x')!r}"
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["message"] == message
        code, out, _ = run_cli(capsys, *argv, "--validate-only")
        assert code == 3
        assert json.loads(out)["violations"] == [message]
        assert list(tmp_path.iterdir()) == []

    def test_artifacts_land_under_their_final_names(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "montecarlo", "--n", "100", "--csv", "t.csv", "--json", "r.json",
                               "--out", str(tmp_path))
        assert code == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == ["r.json", "t.csv"]
        assert json.loads(out)["results"]["trials_csv"] == str(tmp_path / "t.csv")
        assert (tmp_path / "r.json").read_text() == out

    # A 245-character name is a valid file name; it is staged under a short one.
    @pytest.mark.parametrize("argv, name", [
        (("qcc", "--json"), "a" * 240 + ".json"),
        (("sweep", "--scenario", "qcc", "--g", "0:1:3", "--csv"), "a" * 241 + ".csv"),
    ], ids=["json", "csv"])
    def test_a_long_file_name_is_written(self, capsys, tmp_path, argv, name):
        code, out, err = run_cli(capsys, *argv, name, "--out", str(tmp_path))
        assert (code, err, len(name)) == (0, "", 245)
        assert [f.name for f in tmp_path.iterdir()] == [name]
        if name.endswith(".json"):
            assert (tmp_path / name).read_text() == out

    def test_a_write_error_names_the_path_the_user_gave(self, capsys, tmp_path, monkeypatch):
        def disk_full(path, table):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        monkeypatch.setattr(cli, "write_sweep_csv", disk_full)
        code, out, err = run_cli(capsys, "sweep", "--scenario", "qcc", "--g", "0:1:3", "--csv", "s.csv",
                                 "--out", str(tmp_path))
        assert (code, out) == (3, "")
        message = json.loads(err)["error"]["message"]
        assert message == f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {str(tmp_path / 's.csv')!r}"
        assert ".tmp" not in message
        assert list(tmp_path.iterdir()) == []

    QCC_SWEEP = ("sweep", "--scenario", "qcc", "--g")

    def test_a_failed_run_keeps_an_earlier_artifact(self, capsys, tmp_path):
        assert run_cli(capsys, *self.QCC_SWEEP, "0:1:3", "--csv", "s.csv", "--out", str(tmp_path))[0] == 0
        before = (tmp_path / "s.csv").read_bytes()
        (tmp_path / "d").mkdir()
        code, out, err = run_cli(capsys, *self.QCC_SWEEP, "0:2:5", "--csv", "s.csv", "--json", "d",
                                 "--out", str(tmp_path))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["type"] == "IsADirectoryError"
        assert (tmp_path / "s.csv").read_bytes() == before
        assert list(tmp_path.rglob(".qccsim-*")) == []

    def test_a_rerun_replaces_the_artifact(self, capsys, tmp_path):
        assert run_cli(capsys, *self.QCC_SWEEP, "0:1:3", "--csv", "s.csv", "--out", str(tmp_path))[0] == 0
        code, _, err = run_cli(capsys, *self.QCC_SWEEP, "0:2:5", "--csv", "s.csv", "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 6
        assert [f.name for f in tmp_path.iterdir()] == ["s.csv"]

    def test_new_directories_under_an_existing_one_are_all_created(self, capsys, tmp_path):
        (tmp_path / "old").mkdir()
        code, _, err = run_cli(capsys, *self.QCC_SWEEP, "0:1:3", "--csv", "old/a/b/c/s.csv",
                               "--json", "old/a/r.json", "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "old", "old/a", "old/a/b", "old/a/b/c", "old/a/b/c/s.csv", "old/a/r.json",
        ]


class TestSweeps:
    def test_qcc_sweep_header_and_signature(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--scenario", "qcc", "--g", "0.005:0.02:4",
                "--csv", str(target))
        with open(target) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == [
            "g", "wv_pi_I_re", "wv_sigma_I_re", "wv_pi_II_re", "wv_sigma_II_re",
            "shift_I", "shift_II", "postselect_prob",
        ]
        assert len(rows) == 4
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-12)
            assert float(row[5]) == pytest.approx(float(row[0]), abs=1e-12)

    def test_neutron_sweep_header(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--scenario", "neutron-absorber", "--arm", "I",
                "--M", "0.05:0.2:3", "--csv", str(target))
        with open(target) as fh:
            header = next(csv.reader(fh))
        assert header == ["param", "ratio_exact", "ratio_predicted", "inferred_wv", "expansion_error"]

    def test_magnetic_sweep_expansion_error_is_quartic(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--scenario", "neutron-magnetic", "--arm", "II",
                "--alpha", "0.05:0.4:6", "--csv", str(target))
        with open(target) as fh:
            rows = list(csv.DictReader(fh))
        alphas = np.array([float(r["param"]) for r in rows])
        errors = np.array([float(r["expansion_error"]) for r in rows])
        assert fit_exponent(alphas, errors) == pytest.approx(4.0, abs=0.3)

    def test_absorber_sweep_prediction_column(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--scenario", "neutron-absorber", "--arm", "I",
                "--M", "0.0:0.2:3", "--csv", str(target))
        with open(target) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["ratio_predicted"]) == pytest.approx(
                1.0 - 2.0 * float(row["param"]), abs=1e-14
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ("--scenario", "neutron-magnetic", "--alpha", "-3:3:11"),
            ("--scenario", "qcc", "--g", "-0.1:0.1:3"),
        ],
    )
    def test_negative_range_without_equals_sign(self, capsys, argv):
        *head, flag, value = argv
        code, spaced, _ = run_cli(capsys, "sweep", *head, flag, value)
        assert code == 0
        code, joined, _ = run_cli(capsys, "sweep", *head, f"{flag}={value}")
        assert code == 0
        assert json.loads(spaced)["results"]["rows"] == json.loads(joined)["results"]["rows"]

    @pytest.mark.parametrize("observable_I", OBSERVABLE_TAGS)
    @pytest.mark.parametrize("observable_II", OBSERVABLE_TAGS)
    def test_qcc_rows_equal_single_runs(self, capsys, observable_I, observable_II):
        tags = ("--observable-I", observable_I, "--observable-II", observable_II, "--pointer-width", "0.7")
        _, out, _ = run_cli(capsys, "sweep", "--scenario", "qcc", "--g", "-1.5:2.5:9", *tags)
        rows = json.loads(out)["results"]["rows"]
        assert [row["g"] for row in rows] == [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        for row in rows:
            _, single, _ = run_cli(capsys, "qcc", "--g", repr(row["g"]), *tags)
            results = json.loads(single)["results"]
            assert row == {"g": row["g"], **{c: results[c] for c in cli.QCC_SWEEP_HEADER[1:]}}

    @pytest.mark.parametrize("arm", ["I", "II"])
    @pytest.mark.parametrize(
        "scenario, flag, spec",
        [("neutron-absorber", "--M", "0:1.2:5"), ("neutron-magnetic", "--alpha", f"{-math.pi!r}:{math.pi!r}:5")],
    )
    def test_neutron_rows_equal_single_runs(self, capsys, arm, scenario, flag, spec):
        _, out, _ = run_cli(capsys, "sweep", "--scenario", scenario, flag, spec, "--arm", arm)
        rows = json.loads(out)["results"]["rows"]
        params = [row["param"] for row in rows]
        assert 0.0 in params and (scenario == "neutron-absorber" or params[::4] == [-math.pi, math.pi])
        for row in rows:
            _, single, _ = run_cli(capsys, scenario, flag, repr(row["param"]), "--arm", arm)
            results = json.loads(single)["results"]
            rep = results["intensity"] if scenario == "neutron-magnetic" else results
            predicted = rep["second_order_prediction" if scenario == "neutron-magnetic" else "first_order_prediction"]
            assert row == {
                "param": row["param"],
                "ratio_exact": rep["ratio"],
                "ratio_predicted": predicted,
                "inferred_wv": rep["inferred_weak_value"],
                "expansion_error": rep["expansion_error"],
            }

    @pytest.mark.parametrize(
        "scenario, flag", [("qcc", "--g"), ("neutron-absorber", "--M"), ("neutron-magnetic", "--alpha")]
    )
    def test_state_algebra_does_not_grow_with_the_point_count(self, capsys, monkeypatch, scenario, flag):
        def counted_calls(points: int) -> tuple[int, int]:
            for cached in (qcc._prepost, qcc.arm_observable, qcc._arm_table):
                cached.cache_clear()
            calls = {"tables": 0, "spectra": 0}

            def counting_branch_table(*args):
                calls["tables"] += 1
                return branch_table(*args)

            def counting_post_init(spectrum):
                calls["spectra"] += 1
                post_init(spectrum)

            with monkeypatch.context() as patch:
                patch.setattr(qcc, "branch_table", counting_branch_table)
                patch.setattr(Spectrum, "__post_init__", counting_post_init)
                code, _, _ = run_cli(capsys, "sweep", "--scenario", scenario, flag, f"0:1:{points}")
            assert code == 0
            return calls["tables"], calls["spectra"]

        branch_table, post_init = qcc.branch_table, Spectrum.__post_init__
        assert counted_calls(3) == counted_calls(300)

    @pytest.mark.parametrize(
        "scenario, flag", [("qcc", "--g"), ("neutron-absorber", "--M"), ("neutron-magnetic", "--alpha")]
    )
    def test_a_sweep_parses_its_range_once(self, capsys, monkeypatch, tmp_path, scenario, flag):
        calls = {"parse_range": 0, "linspace": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "parse_range", counted("parse_range", cli.parse_range))
        monkeypatch.setattr(np, "linspace", counted("linspace", np.linspace))
        code, _, err = run_cli(capsys, "sweep", "--scenario", scenario, flag, "0:1:5", "--csv", "s.csv",
                               "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert calls == {"parse_range": 1, "linspace": 1}

    # Each range violation --validate-only reports, and the run's exit-3 message.
    RANGE_VIOLATIONS = [
        (("--scenario", "qcc"), "g: sweep over qcc needs --g start:stop:count"),
        (("--scenario", "qcc", "--g", "0:1"), "g: range must be start:stop:count, got '0:1'"),
        (("--scenario", "qcc", "--g", "0:1:0"), "g: range count must be >= 1, got 0"),
        (("--scenario", "qcc", "--g", "a:b:3"), "g: bad range 'a:b:3': could not convert string to float: 'a'"),
        (("--scenario", "qcc", "--g", "0:inf:3"), "g: range endpoints must be finite, got '0:inf:3'"),
        (("--scenario", "qcc", "--g=-1e308:1e308:3"), "g: range '-1e308:1e308:3' has no finite width"),
        (("--scenario", "neutron-absorber", "--M", "0:nan:3"), "M: range endpoints must be finite, got '0:nan:3'"),
        (("--scenario", "neutron-absorber", "--M=-1:1:5"), "M: absorption coefficient must be >= 0, got -1.0"),
        (("--scenario", "neutron-magnetic", "--alpha", "0:1:2.5"),
         "alpha: bad range '0:1:2.5': invalid literal for int() with base 10: '2.5'"),
        (("--scenario", "neutron-magnetic", "--alpha=-4:4:3"),
         "alpha: precession angle must satisfy |alpha| <= pi, got -4.0"),
    ]

    @pytest.mark.parametrize("argv, message", RANGE_VIOLATIONS, ids=[m for _, m in RANGE_VIOLATIONS])
    def test_each_range_violation_is_reported(self, capsys, argv, message):
        code, out, _ = run_cli(capsys, "sweep", *argv, "--validate-only")
        assert (code, json.loads(out)["violations"]) == (3, [message])
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert (code, out, json.loads(err)["error"]["message"]) == (3, "", message)

    def test_range_violations_beside_other_violations_are_all_reported(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"sweep_scenario": "neutron-absorber", "M": 5, "pointer_width": 0}))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config), "--validate-only")
        assert code == 3
        assert json.loads(out)["violations"] == [
            "M: range must be start:stop:count, got 5",
            "pointer_width: Gaussian width must be positive and finite, got 0.0",
        ]

    def test_range_parsing(self):
        assert parse_range("0:1:5").tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_range("0.3:0.3:1").tolist() == [0.3]
        with pytest.raises(ValidationError):
            parse_range("0:1")
        with pytest.raises(ValidationError):
            parse_range("0:1:0")
        with pytest.raises(ValidationError):
            parse_range("a:b:3")
        with pytest.raises(CapacityError):
            parse_range(f"0:1:{2**20 + 1}")


class TestConfigFile:
    def test_config_values_are_applied(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"g": 0.05, "observable_I": "sigma_x"}))
        _, out, _ = run_cli(capsys, "qcc", "--config", str(cfg))
        record = json.loads(out)
        assert record["config"]["g"] == 0.05
        assert record["config"]["observable_I"] == "sigma_x"

    def test_string_is_not_a_number(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"g": "0.5"}))
        code, out, err = run_cli(capsys, "weak-value", "--config", str(cfg))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["message"] == "g: must be a number, got '0.5'"

    @pytest.mark.parametrize("scenario, key", [("qcc", "g"), ("weak-value", "tan_theta")])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_beyond_the_float_range_is_not_finite(self, capsys, tmp_path, scenario, key, sign):
        cfg = tmp_path / "big.json"
        cfg.write_text(f'{{"{key}": {sign * 10**400}}}')
        message = f"{key}: must be finite, got {sign * math.inf!r}"
        code, out, err = run_cli(capsys, scenario, "--config", str(cfg))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["message"] == message
        code, out, _ = run_cli(capsys, scenario, "--config", str(cfg), "--validate-only")
        assert code == 3
        assert json.loads(out)["violations"] == [message]

    def test_an_integer_for_a_float_is_stored_as_a_float(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"g": 100000000000000000000}')
        code, out, _ = run_cli(capsys, "qcc", "--config", str(cfg))
        assert code == 0
        assert '"g": 1e+20' in out
        assert type(json.loads(out)["config"]["g"]) is float

    def test_an_integral_float_for_an_integer_is_stored_as_an_integer(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n": 2000.0}')
        code, out, _ = run_cli(capsys, "montecarlo", "--config", str(cfg))
        n = json.loads(out)["config"]["n"]
        assert code == 0
        assert type(n) is int and n == 2000

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"g": 0.05}))
        _, out, _ = run_cli(capsys, "qcc", "--config", str(cfg), "--g", "0.01")
        assert json.loads(out)["config"]["g"] == 0.01

    def test_unknown_config_key_is_a_violation(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"coupling": 0.05}))
        code, _, err = run_cli(capsys, "qcc", "--config", str(cfg))
        assert code == 3
        assert "coupling" in json.loads(err)["error"]["message"]

    def test_malformed_config_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "qcc", "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ConfigParseError"

    def test_non_object_config_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run_cli(capsys, "qcc", "--config", str(cfg))
        assert code == 2

    def test_missing_config_exits_two(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "qcc", "--config", str(tmp_path / "absent.json"))
        assert code == 2


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, _, _ = run_cli(capsys, "neutron-magnetic", "--arm", "II", "--alpha", "0.1")
        assert code == 0

    def test_montecarlo_at_a_wide_pointer_reports_a_finite_spread(self, capsys):
        code, out, _ = run_cli(capsys, "montecarlo", "--n", "2000", "--pointer-width", "1e153", "--g", "1")
        assert code == 0
        estimator = json.loads(out)["results"]["estimator"]
        # The readout density of the qcc-pi-I pointer has standard deviation sigma = 1e153.
        assert estimator["std_error"] == pytest.approx(1e153 / math.sqrt(estimator["n_postselected"]), rel=0.1)

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["qcc", "--coupling", "0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["qcc", "--g", "abc"], "qccsim qcc: argument --g: invalid float value: 'abc'"),
            (["qcc", "--bogus", "1"], "qccsim: unrecognized arguments: --bogus 1"),
        ],
    )
    def test_flag_error_is_one_json_object(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"type": "ConfigParseError", "message": message}}

    def test_validation_failure_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "neutron-absorber", "--arm", "I", "--M", "-1")
        assert code == 3
        assert "M" in json.loads(err)["error"]["message"]

    def test_capacity_failure_exits_four(self, capsys, tmp_path):
        for extra in ((), ("--validate-only",)):
            code, _, err = run_cli(
                capsys, "weak-value", "--context", "qcc-pi-I", "--g", "0.01",
                "--grid-points", str(2**21), "--csv", str(tmp_path / "grid.csv"), *extra,
            )
            assert code == 4
            assert json.loads(err)["error"]["type"] == "CapacityError"

    def test_grid_points_not_a_power_of_two_exits_three(self, capsys, tmp_path):
        argv = ("weak-value", "--grid-points", "3", "--csv", str(tmp_path / "grid.csv"))
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "grid_points: point count must be a power of two" in json.loads(err)["error"]["message"]
        code, out, _ = run_cli(capsys, *argv, "--validate-only")
        assert code == 3
        assert [v.split(":")[0] for v in json.loads(out)["violations"]] == ["grid_points"]
        assert not (tmp_path / "grid.csv").exists()

    # {F} is a regular file and {D} a directory; no run may write through either.
    @pytest.mark.parametrize(
        "argv, error",
        [
            (("qcc", "--json", "{F}/x.json"), "FileExistsError"),
            (("weak-value", "--csv", "{F}/g.csv"), "FileExistsError"),
            (("qcc", "--out", "{F}", "--json", "r.json"), "FileExistsError"),
            (("sweep", "--scenario", "qcc", "--g", "0:1:3", "--csv", "{D}"), "IsADirectoryError"),
            (("montecarlo", "--n", "100", "--csv", "{D}"), "IsADirectoryError"),
            (("neutron-absorber", "--json", "{D}"), "IsADirectoryError"),
        ],
    )
    def test_unwritable_output_path_exits_three_without_a_record(self, capsys, tmp_path, argv, error):
        (tmp_path / "F").write_text("")
        argv = [arg.format(F=tmp_path / "F", D=tmp_path) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert list(json.loads(err)) == ["error"]
        assert json.loads(err)["error"]["type"] == error

    def test_oversized_sweep_range_exits_four(self, capsys):
        # --validate-only parses the range without sweeping it.
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "qcc", "--g", f"0:1:{2**20 + 1}", "--validate-only"
        )
        assert code == 4
        assert json.loads(err)["error"]["type"] == "CapacityError"

    @pytest.mark.parametrize("mode", MC_MODES)
    def test_oversized_trial_count_exits_four(self, capsys, mode):
        for extra in ((), ("--validate-only",)):
            code, _, err = run_cli(capsys, "montecarlo", "--mode", mode, "--n", str(10**12), *extra)
            assert code == 4
            assert json.loads(err)["error"]["type"] == "CapacityError"

    def test_numerical_failure_exits_five(self, capsys):
        code, _, err = run_cli(capsys, "weak-value", "--context", "orthogonal", "--g", "0.01")
        assert code == 5
        assert json.loads(err)["error"]["type"] == "OrthogonalPostselection"

    def test_grid_too_coarse_for_the_pointer_exits_three(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "weak-value", "--grid-points", "4", "--csv", str(tmp_path / "g.csv"))
        assert (code, out) == (3, "")
        message = json.loads(err)["error"]["message"]
        assert message.startswith("grid norm ") and " deviates from closed form " in message
        assert not (tmp_path / "g.csv").exists()

    def test_coupling_beyond_float_resolution_exits_five(self, capsys, tmp_path):
        # At g = 1e150 the pointer's support collapses in floating point: a limit, not a bad input.
        code, _, err = run_cli(capsys, "weak-value", "--g", "1e150", "--csv", str(tmp_path / "g.csv"))
        assert code == 5
        assert json.loads(err)["error"]["type"] == "NumericalError"
        assert not (tmp_path / "g.csv").exists()

    def test_grid_domain_without_finite_width_exits_three_with_one_error_object(self, tmp_path):
        argv = ["weak-value", "--grid-xmin", "-1e308", "--grid-xmax", "1e308", "--csv", str(tmp_path / "g.csv")]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qccsim.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == {
            "type": "ValidationError",
            "message": "grid domain [-1e+308, 1e+308] has no finite width",
        }

    def test_seed_beyond_philox_key_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "montecarlo", "--seed", str(2**128), "--n", "10")
        assert code == 3
        assert json.loads(err)["error"]["message"] == f"seed: Philox key must be >= 0 and < 2**128, got {2**128}"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("weak-value", "--g", "1e300"), "OverflowError"),
            (("qcc-joint", "--pointer-width", "1e300"), "OverflowError"),
            *((argv, message.split(":")[0]) for argv, message in EXTREME_WIDTHS),
        ],
    )
    def test_float_overflow_exits_five(self, capsys, argv, error):
        code, _, err = run_cli(capsys, *argv)
        assert code == 5
        assert json.loads(err)["error"]["type"] == error

    @pytest.mark.parametrize("argv, error", EXTREME_WIDTHS)
    def test_extreme_width_message_names_quantity_and_width(self, capsys, monkeypatch, argv, error):
        monkeypatch.setattr(montecarlo, "_trial_tables", None)  # a run that samples fails here
        code, _, err = run_cli(capsys, *argv)
        assert code == 5
        kind, message = error.split(": ", 1)
        assert json.loads(err)["error"] == {"type": kind, "message": message}

    @pytest.mark.parametrize("width", [1e-100, 1e100])
    @pytest.mark.parametrize("g", [0.0, 1.0])
    def test_validity_reads_sqrt3_over_4_width_squared_at_any_representable_width(self, capsys, width, g):
        # 16*width**4 leaves the float range at these widths; sqrt(3)/(4*width**2) does not.
        code, out, _ = run_cli(capsys, "weak-value", "--pointer-width", repr(width), "--g", repr(g))
        assert code == 0
        # qcc-pi-I is a projector, so (A^2)^w = A^w = 1.
        second_order = json.loads(out)["results"]["validity_second_order"]
        assert second_order == pytest.approx(g * g / 2.0 * math.sqrt(3.0) / 4.0 / width / width, rel=1e-15)

    def test_a_subnormal_monte_carlo_coupling_overflows_the_estimate(self, capsys):
        code, out, err = run_cli(capsys, "montecarlo", "--g", "5e-324", "--n", "2000")
        assert (code, out) == (5, "")
        assert json.loads(err)["error"] == {
            "type": "OverflowError",
            "message": "weak-value estimate overflows: estimated_wv_re at g=5e-324",
        }
        code, out, _ = run_cli(capsys, "montecarlo", "--g", "1e-300", "--n", "2000")
        estimator = json.loads(out)["results"]["estimator"]
        assert code == 0
        assert math.isfinite(estimator["estimated_wv_re"]) and math.isfinite(estimator["std_error"])

    def test_a_subnormal_absorption_overflows_the_inference_from_counts(self, capsys):
        # The exact ratio is 1 at M = 5e-324, so the exact inference is 0; a sampled ratio is not.
        code, out, err = run_cli(capsys, "montecarlo", "--mode", "intensity-absorber", "--M", "5e-324", "--n", "1000")
        assert (code, out) == (5, "")
        assert json.loads(err)["error"] == {
            "type": "OverflowError",
            "message": "inferred weak value overflows: (1 - ratio) / (2 M) at M=5e-324",
        }

    # alpha**2 is subnormal, so 4 / alpha**2 is inf: the exact spin inference overflows, before any
    # sampling and before neutron-magnetic's systematic term underflows at -3e-162.
    @pytest.mark.parametrize(
        "argv, alpha",
        [
            (("montecarlo", "--mode", "intensity-magnetic", "--alpha=1e-160", "--n", "1000"), "1e-160"),
            (("montecarlo", "--mode", "intensity-magnetic", "--alpha=-1e-160", "--n", "1000"), "-1e-160"),
            (("neutron-magnetic", "--alpha=-3e-162"), "-3e-162"),
        ],
    )
    def test_a_tiny_rotation_overflows_the_spin_inference(self, capsys, argv, alpha):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (5, "")
        assert json.loads(err)["error"] == {
            "type": "OverflowError",
            "message": f"spin inference overflows: 4 / alpha**2 at alpha={alpha}",
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("weak-value", "--g", "5e199"), "validity second order overflows: |g|**2 at |g|=5e+199"),
            (("weak-value", "--g", "1e308"), "validity second order overflows: |g|**2 at |g|=1e+308"),
        ],
    )
    def test_overflow_message_names_quantity_and_coupling(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 5
        assert json.loads(err)["error"] == {"type": "OverflowError", "message": message}

    # Branch centers at the float limit: x_p + x_q overflows, so the readout halves each
    # center first. Arm I's projector has one branch, amplitude 1/2 at g. Arm II's sigma_x
    # branches at -g and g have amplitudes -1/4 and 1/4, and its branch at 0 cancels the
    # joint state's -<chi|psi> phi0 (x) phi0 term, so the x_I marginal weighs 1/4 at g
    # against 1/8 at 0.
    @pytest.mark.parametrize(
        "argv, field, shift",
        [
            (("qcc", "--g", "1e308"), "shift_I", 1e308),
            (("qcc-joint", "--g", "0", "--g-II", "-1e308"), "shift_II", 0.0),
            (("qcc-joint", "--g", "1e308"), "shift_I", pytest.approx(1e308 / 3.0 * 2.0, rel=1e-15)),
        ],
    )
    def test_shift_at_the_float_limit_is_exact(self, capsys, argv, field, shift):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["results"][field] == shift

    def test_sweep_to_the_float_limit_runs(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "qcc", "--g", "0:1e308:3")
        assert code == 0
        assert [row["shift_I"] for row in json.loads(out)["results"]["rows"]] == [0.0, 5e307, 1e308]

    def test_sampling_at_the_float_limit_is_a_numerical_error(self, capsys):
        code, _, err = run_cli(capsys, "montecarlo", "--g", "1e308", "--n", "100")
        assert code == 5
        assert json.loads(err)["error"] == {
            "type": "NumericalError",
            "message": "pointer support [1e+308, 1e+308] does not resolve the pointer width 1.0 in floating point",
        }

    # A rotation angle whose square underflows to 0 leaves the second-order inversion undefined.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("neutron-magnetic", "--alpha", "1e-170"), "spin inference underflows to 0: alpha**2 at alpha=1e-170"),
            (
                ("sweep", "--scenario", "neutron-magnetic", "--alpha", "0:1e-320:3"),
                "spin inference underflows to 0: alpha**2 at alpha=5e-321",
            ),
            (
                ("montecarlo", "--mode", "intensity-magnetic", "--alpha", "1e-320", "--n", "100"),
                "spin inference underflows to 0: alpha**2 at alpha=1e-320",
            ),
        ],
    )
    def test_underflow_message_names_quantity_and_angle(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 5
        assert json.loads(err)["error"] == {"type": "ZeroDivisionError", "message": message}

    # A qcc record prints the weak-regime margin, never the second-order term,
    # so a width or coupling at which only that term leaves the float range runs.
    @pytest.mark.parametrize(
        "argv, warning",
        [
            (("qcc", "--pointer-width", "1e-100"), True),  # margin g/(2 sigma) = 1e98
            (("qcc-joint", "--pointer-width", "1e-100"), True),
            (("qcc", "--pointer-width", "1e-100", "--g", "0"), False),
            (("qcc-joint", "--pointer-width", "1e153"), False),  # second-order term 16 sigma^4 overflows
            (("qcc-joint", "--g", "1e200"), True),
            (("sweep", "--scenario", "qcc", "--g", "0:1e200:3"), None),
            (("sweep", "--scenario", "qcc", "--g", "0:0.1:3", "--pointer-width", "1e-100"), None),
        ],
    )
    def test_qcc_runs_need_only_the_margin(self, capsys, argv, warning):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        results = json.loads(out)["results"]
        assert results.get("margin_warning") is warning


class TestValidateOnly:
    def test_violations_are_listed_without_running(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--mode", "pointer", "--g", "0", "--validate-only"
        )
        assert code == 3
        report = json.loads(out)
        assert report["scenario"] == "montecarlo"
        assert any(v.startswith("g:") for v in report["violations"])

    def test_valid_parameters_pass(self, capsys):
        code, out, _ = run_cli(capsys, "qcc", "--g", "0.02", "--validate-only")
        assert code == 0
        assert json.loads(out)["violations"] == []


PI_UP = math.nextafter(math.pi, 4)
PHI0 = make_gaussian(0.0, 1.0)
TWO_TRIALS = (np.zeros(2), np.ones(2, dtype=bool))
EXACT_RUN = qcc.arm_table("I", "projector").couple(PHI0, 0.05)
# Each value rule at its boundaries: (argv, parameter, the library call that applies the rule,
# the rule's message where the value is rejected or None where it is accepted). --validate-only
# reports "<parameter>: <message>", and the library raises "<message>", from the one definition.
RULE_CASES = [
    (("neutron-absorber", "--M", "-0.0"), "M", lambda: AbsorberConfig("I", -0.0), None),
    (("neutron-absorber", "--M", "-5e-324"), "M", lambda: AbsorberConfig("I", -5e-324),
     "absorption coefficient must be >= 0, got -5e-324"),
    (("sweep", "--scenario", "neutron-absorber", "--M=-1:1:5"), "M",
     lambda: AbsorberConfig("I", np.linspace(-1, 1, 5)), "absorption coefficient must be >= 0, got -1.0"),
    (("neutron-magnetic", "--alpha", repr(math.pi)), "alpha", lambda: MagneticConfig("I", math.pi), None),
    (("neutron-magnetic", "--alpha", repr(-math.pi)), "alpha", lambda: MagneticConfig("I", -math.pi), None),
    (("neutron-magnetic", "--alpha", repr(PI_UP)), "alpha", lambda: MagneticConfig("I", PI_UP),
     f"precession angle must satisfy |alpha| <= pi, got {PI_UP!r}"),
    (("sweep", "--scenario", "neutron-magnetic", "--alpha=-4:4:3000"), "alpha",
     lambda: MagneticConfig("I", np.linspace(-4, 4, 3000)), "precession angle must satisfy |alpha| <= pi, got -4.0"),
    (("qcc", "--pointer-width", "5e-324"), "pointer_width", lambda: check_width(5e-324), None),
    (("qcc", "--pointer-width", "0.0"), "pointer_width", lambda: check_width(0.0),
     "Gaussian width must be positive and finite, got 0.0"),
    (("weak-value", "--pointer-width", "-0.0"), "pointer_width", lambda: make_gaussian(0.0, -0.0),
     "Gaussian width must be positive and finite, got -0.0"),
    (("montecarlo", "--g", "5e-324"), "g", lambda: estimate_weak_value(TWO_TRIALS, PHI0, 5e-324), None),
    (("montecarlo", "--g", "-0.0"), "g", lambda: estimate_weak_value(TWO_TRIALS, PHI0, -0.0),
     "weak-value estimation needs a nonzero coupling, got -0.0"),
    (("montecarlo", "--workers", "1"), "workers", lambda: sample_trials(EXACT_RUN, 10, 1, workers=1), None),
    (("montecarlo", "--workers", "0"), "workers", lambda: sample_trials(EXACT_RUN, 10, 1, workers=0),
     "worker count must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, name, library, rule", RULE_CASES, ids=[" ".join(c[0]) for c in RULE_CASES])
def test_each_value_rule_is_the_librarys(capsys, argv, name, library, rule):
    code, out, _ = run_cli(capsys, *argv, "--validate-only")
    assert json.loads(out)["violations"] == ([] if rule is None else [f"{name}: {rule}"])
    assert code == (0 if rule is None else 3)
    if rule is None:
        library()
    else:
        with pytest.raises(ValidationError) as info:
            library()
        assert str(info.value) == rule


class TestMonteCarloCli:
    def test_worker_count_does_not_change_results(self, capsys):
        args = ("montecarlo", "--mode", "pointer", "--context", "anomalous",
                "--g", "0.05", "--n", "20000", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args, "--workers", "1")
        _, out4, _ = run_cli(capsys, *args, "--workers", "4")
        assert json.loads(out1)["results"] == json.loads(out4)["results"]

    def test_intensity_mode_reports_counts_and_inference(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--mode", "intensity-magnetic", "--arm", "II",
            "--alpha", "0.5", "--n", "200000", "--seed", "2",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["counts"]["n_trials"] == 200000
        assert results["exact"]["ratio"] == pytest.approx(
            1.0 + math.sin(0.25) ** 2, abs=1e-12
        )
        assert results["inferred_from_counts"] == pytest.approx(1.0, abs=0.2)

    @pytest.mark.parametrize("mode, flag", [("intensity-absorber", "--M"), ("intensity-magnetic", "--alpha")])
    def test_zero_perturbation_infers_null(self, capsys, mode, flag):
        code, out, _ = run_cli(capsys, "montecarlo", "--mode", mode, flag, "0", "--n", "1000")
        assert code == 0
        assert json.loads(out)["results"]["inferred_from_counts"] is None

    @pytest.mark.parametrize(
        "context", [("--context", "orthogonal"), ("--context", "anomalous", "--tan-theta", "1e200")]
    )
    def test_orthogonal_postselection_exits_five_before_sampling(self, capsys, monkeypatch, context):
        sampled = []
        monkeypatch.setattr(cli, "sample_trials", lambda *args, **kwargs: sampled.append(args))
        for argv in (("montecarlo", *context, "--n", "1000"), ("weak-value", *context)):
            code, _, err = run_cli(capsys, *argv)
            assert code == 5
            assert json.loads(err)["error"]["type"] == "OrthogonalPostselection"
        assert sampled == []

    def test_count_ratio_below_the_reachable_band_infers_null(self, capsys):
        code, out, _ = run_cli(capsys, "montecarlo", "--mode", "intensity-magnetic", "--arm", "I",
                               "--alpha", "0.05", "--n", "50", "--seed", "2")
        assert code == 0
        assert json.loads(out)["results"]["inferred_from_counts"] is None

    def test_no_reference_detections_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "montecarlo", "--mode", "intensity-absorber", "--n", "1", "--seed", "1")
        assert code == 3
        assert json.loads(err)["error"] == {"type": "ValidationError", "message": "no reference detections; increase n"}

    def test_intensity_absorber_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--mode", "intensity-absorber", "--arm", "I",
            "--M", "0.2", "--n", "100000", "--seed", "9",
        )
        assert code == 0
        results = json.loads(out)["results"]
        se = results["counts"]["ratio_std_error"]
        assert abs(results["counts"]["ratio"] - math.exp(-0.4)) <= 4.0 * se


TABLE_ENTRIES = [(name, param) for name, spec in SCENARIO_TABLE.items() for param in spec.params]
# Cheap valid runs whose records echo every parameter of the scenario.
RECORD_ARGS = {"montecarlo": ("--n", "10"), "sweep": ("--scenario", "neutron-absorber", "--M", "0:0.1:2")}
WRONG_TYPED = {"float": ("abc", True, "0.5"), "int": ("abc",), "choice": ([0],), "switch": ("yes",), "range": (5,)}


def scenario_parser(scenario: str) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[scenario]


@lru_cache(maxsize=None)
def record_config(scenario: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([scenario, *RECORD_ARGS.get(scenario, ())]) == 0
    return json.loads(out.getvalue())["config"]


@pytest.mark.parametrize(
    "scenario, param", TABLE_ENTRIES, ids=[f"{name}:{param.name}" for name, param in TABLE_ENTRIES]
)
def test_table_entry_drives_flag_config_record_and_check(capsys, tmp_path, scenario, param):
    flags = [a.option_strings for a in scenario_parser(scenario)._actions if a.dest == param.name]
    assert flags == [[param.option]]

    assert list(record_config(scenario)).index(param.name) == SCENARIO_TABLE[scenario].params.index(param)

    for wrong in WRONG_TYPED[param.kind]:
        config = {param.name: wrong}
        if param.when is not None:
            config[param.when[0]] = param.when[1][0]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, scenario, "--config", str(path), "--validate-only")
        assert code == 3
        violations = json.loads(out)["violations"]
        assert not any("unknown parameter" in v for v in violations)
        assert len([v for v in violations if v.startswith(f"{param.name}:")]) == 1


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qccsim.cli", "qcc", "--g", "0.02"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["shift_I"] == 0.02


def fuzzed_value(rng: random.Random, param):
    """A config value for ``param``: well-typed, at a float or int extreme, or of another JSON type."""
    if rng.random() < 0.2:
        return rng.choice([None, True, False, "abc", "0.5", "", [], [0.1, 2], {"g": 1}])
    if param.kind == "float":
        return rng.choice([
            math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0,
            rng.uniform(-5.0, 5.0), math.copysign(10.0 ** rng.uniform(-320.0, 308.0), rng.random() - 0.5),
            rng.randrange(-(2**70), 2**70 + 1), 10**400, -(10**400),
        ])
    if param.kind == "int":
        return rng.choice([
            rng.randrange(-(2**70), 2**70 + 1), 2**70, -(2**70), rng.randrange(-3, 40),
            float(rng.randrange(1, 40)), 2**20 + 1, 2**24 + 1, 2**128, 0.5, math.nan,
        ])
    if param.kind == "choice":
        return rng.choice([*param.choices, "nope"])
    if param.kind == "switch":
        return rng.choice([True, False])
    count = rng.choice([-1, 0, 1, 2, 17, 2**20 + 1, 2**70])
    return rng.choice([
        f"{rng.uniform(-4.0, 4.0)!r}:{rng.uniform(-4.0, 4.0)!r}:{count}", f"0:1e308:{count}",
        f"-1e308:1e308:{count}", "nan:1:3", "0:inf:3", "0:1", "a:b:3", f"0:1:{2**70}",
    ])


def fuzzed_configs(seed: int = 20240501, per_param: int = 12):
    """Seeded configs, ``per_param`` for every parameter of every scenario: that
    parameter fuzzed, each other one fuzzed with probability 0.3."""
    rng = random.Random(seed)
    for scenario, spec in SCENARIO_TABLE.items():
        for param in spec.params:
            for _ in range(per_param):
                config = {p.name: fuzzed_value(rng, p) for p in spec.params if p is param or rng.random() < 0.3}
                if param.when is not None and rng.random() < 0.7:
                    config[param.when[0]] = rng.choice(param.when[1])
                yield scenario, config


def test_fuzzed_configs_end_in_a_documented_exit(capsys, tmp_path):
    """Every fuzzed config exits 0, 2, 3, 4 or 5, and a failure prints exactly
    one JSON error object to stderr and nothing to stdout, warnings as errors."""
    path = tmp_path / "run.json"
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scenario, config in fuzzed_configs():
            path.write_text(json.dumps(config))
            code, out, err = run_cli(capsys, scenario, "--config", str(path))
            where = f"{scenario} {json.dumps(config)}"
            assert code in (0, 2, 3, 4, 5), where
            if code:
                assert out == "", where
                assert list(json.loads(err)) == ["error"], where
            else:
                assert err == "" and json.loads(out)["scenario"] == scenario, where
            seen.add((scenario, code))
    assert {code for _, code in seen} >= {0, 3, 4, 5}
