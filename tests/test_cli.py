import gzip
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dca_ids
from dca_ids.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_PARSE, main
from dca_ids.evaluation import (ConfusionRates, RunResult,
                                 mann_whitney_two_sided)
from dca_ids.experiments import ExperimentConfig, SweepPoint, emit_report

from conftest import anomalous_line, make_line, normal_line


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


class TestE1Commands:
    def test_e1_1_reports(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        code = main(["e1.1", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1,2"])
        assert code == EXIT_OK
        rows = read_rows(out / "results.tsv")
        assert len(rows) == 1
        assert rows[0]["category"] == "E1.1"
        per_seed = read_rows(out / "per_seed.tsv")
        assert {r["seed"] for r in per_seed} == {"1", "2"}
        assert (out / "roc_points.tsv").exists()
        assert (out / "provenance.txt").exists()
        assert list((out / "mcav").glob("*.tsv"))

    def test_e1_1_detects_synthetic_attacks(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        main(["e1.1", str(synthetic_dataset), "--out", str(out),
              "--seeds", "1,2,3"])
        row = read_rows(out / "results.tsv")[0]
        # the synthetic attack type carries saturated anomaly signals
        assert float(row["tp_rate"]) > 0.9
        assert float(row["fp_rate"]) < 0.1

    def test_e1_2_sweep_rows(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        code = main(["e1.2", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1,2", "--multipliers", "5,10"])
        assert code == EXIT_OK
        rows = read_rows(out / "results.tsv")
        assert [r["category"] for r in rows] == ["E1.1", "E1.2", "E1.2"]
        assert [r["parameter"] for r in rows[1:]] == ["5", "10"]
        mw = read_rows(out / "mannwhitney.tsv")
        assert len(mw) == 2
        assert all(r["reject"] in ("true", "false") for r in mw)

    def test_e1_3_default_sweep_is_seven_rows(self, synthetic_dataset,
                                              tmp_path):
        out = tmp_path / "out"
        code = main(["e1.3", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1", "--no-mcav-tables"])
        assert code == EXIT_OK
        rows = read_rows(out / "results.tsv")
        assert [r["parameter"] for r in rows if r["category"] == "E1.3"] == [
            "2", "3", "5", "7", "10", "100", "1000"
        ]

    def test_custom_run(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        code = main(["custom", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1", "--multiplier", "3", "--window", "2"])
        assert code == EXIT_OK
        rows = read_rows(out / "results.tsv")
        assert rows[1]["category"] == "custom"
        assert rows[1]["parameter"] == "k=3,w=2"

    def test_deterministic_reports(self, synthetic_dataset, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            main(["e1.1", str(synthetic_dataset), "--out", str(out),
                  "--seeds", "1,2"])
        for name in ("results.tsv", "per_seed.tsv", "roc_points.tsv"):
            assert (out_a / name).read_text() == (out_b / name).read_text()


class TestE2Command:
    def test_e2_sweep(self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        code = main(["e2", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1", "--dimensions", "2,3", "--folds", "4",
                     "--detectors", "100"])
        assert code == EXIT_OK
        rows = read_rows(out / "results.tsv")
        assert [r["parameter"] for r in rows] == ["2", "3"]
        assert all(r["category"] == "E2" for r in rows)

    def test_dimension_exceeding_attributes(self, synthetic_dataset, tmp_path):
        code = main(["e2", str(synthetic_dataset),
                     "--out", str(tmp_path / "out"),
                     "--seeds", "1", "--dimensions", "11"])
        assert code == EXIT_CONFIG

    def test_all_anomalous_file(self, tmp_path, capsys):
        path = tmp_path / "attacks.kdd"
        path.write_text("\n".join([anomalous_line()] * 20) + "\n")
        code = main(["e2", str(path), "--out", str(tmp_path / "out"),
                     "--seeds", "1,2", "--dimensions", "2", "--folds", "4"])
        assert code == EXIT_CONFIG
        assert "every fold was skipped" in capsys.readouterr().err


class TestInfogain:
    def test_report(self, synthetic_dataset, tmp_path):
        out = tmp_path / "gains.tsv"
        code = main(["infogain", str(synthetic_dataset), "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 41
        gains = [float(r["gain"]) for r in rows]
        assert gains == sorted(gains, reverse=True)
        flagged = {r["attribute"] for r in rows
                   if r["default_signal_attribute"] == "yes"}
        assert "serror_rate" in flagged and len(flagged) == 10

    def test_constant_attribute_zero_gain(self, synthetic_dataset, tmp_path):
        out = tmp_path / "gains.tsv"
        main(["infogain", str(synthetic_dataset), "--out", str(out)])
        by_name = {r["attribute"]: float(r["gain"]) for r in read_rows(out)}
        assert by_name["num_outbound_cmds"] == 0.0


class TestErrorPaths:
    def test_missing_data_file(self, tmp_path):
        code = main(["e1.1", str(tmp_path / "absent.kdd"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_IO

    def test_malformed_data_file(self, tmp_path):
        path = tmp_path / "bad.kdd"
        path.write_text("1,2,3\n")
        code = main(["e1.1", str(path), "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("command", ["e1.1", "infogain"])
    def test_binary_nominal_not_0_or_1(self, tmp_path, capsys, command):
        path = tmp_path / "data.kdd"
        path.write_text("\n".join([normal_line()] * 10
                                  + [make_line(logged_in="x")]) + "\n")
        code = main([command, str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_PARSE
        assert ("line 11: binary column 12 (logged_in) must be 0 or 1, "
                "got 'x'") in capsys.readouterr().err

    def test_infogain_on_empty_file(self, tmp_path):
        path = tmp_path / "data.kdd"
        path.write_text("\n")
        code = main(["infogain", str(path), "--out", str(tmp_path / "g.tsv")])
        assert code == EXIT_CONFIG

    def test_undecodable_bytes(self, tmp_path, capsys):
        path = tmp_path / "data.kdd"
        path.write_bytes(make_line().encode() + b"\nnormal\xff\n")
        code = main(["infogain", str(path), "--out", str(tmp_path / "g.tsv")])
        assert code == EXIT_PARSE
        assert "line 2: undecodable bytes" in capsys.readouterr().err

    def test_gzip_detected_by_content(self, tmp_path):
        plain = tmp_path / "plain.kdd.gz"
        plain.write_text(normal_line() + "\n" + anomalous_line() + "\n")
        packed = tmp_path / "packed.kdd"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        for path in (plain, packed):
            out = tmp_path / f"{path.name}.tsv"
            assert main(["infogain", str(path), "--out", str(out)]) == EXIT_OK
        assert (tmp_path / "plain.kdd.gz.tsv").read_text() == (
            tmp_path / "packed.kdd.tsv").read_text()

    def test_invalid_sweep_values(self, tmp_path):
        path = tmp_path / "data.kdd"
        path.write_text(make_line() + "\n")
        code = main(["e1.2", str(path), "--out", str(tmp_path / "out"),
                     "--multipliers", "0"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv,message", [
        (["e2", "--dimensions", ","], "dimension list must be non-empty"),
        (["e1.2", "--multipliers", ","], "multiplier list must be non-empty"),
        (["e1.3", "--windows", ","], "window list must be non-empty"),
        (["e2", "--dimensions", "2,2"], "dimension list repeats"),
        (["e1.2", "--multipliers", "5,5"], "multiplier list repeats"),
        (["e1.3", "--windows", "3,3"], "window list repeats"),
        (["e1.2", "--multipliers", "0"], "multipliers must be >= 1"),
        (["e2", "--folds", "1"], "folds must be >= 2"),
        (["e2", "--fold-seed", "-1"], "seeds must be >= 0"),
        (["e1.1", "--seeds", "-1"], "seeds must be >= 0"),
    ], ids=["empty-dimensions", "empty-multipliers", "empty-windows",
            "repeated-dimension", "repeated-multiplier", "repeated-window",
            "zero-multiplier", "one-fold", "negative-fold-seed",
            "negative-seed"])
    def test_sweep_options_checked_before_the_data_file(self, tmp_path,
                                                        capsys, argv,
                                                        message):
        # the data file does not exist: exit 2 shows the option was
        # rejected before any attempt to read it
        command, *options = argv
        code = main([command, str(tmp_path / "absent.kdd"),
                     "--out", str(tmp_path / "out"), *options])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_bad_range_file(self, synthetic_dataset, tmp_path):
        ranges = tmp_path / "ranges.conf"
        ranges.write_text("count DS 10 5 +\n")
        code = main(["e1.1", str(synthetic_dataset),
                     "--out", str(tmp_path / "out"), "--ranges", str(ranges)])
        assert code == EXIT_CONFIG

    def test_duplicate_seeds_rejected(self, synthetic_dataset, tmp_path,
                                      capsys):
        code = main(["e1.2", str(synthetic_dataset), "--out",
                     str(tmp_path / "out"), "--seeds", "1,1",
                     "--multipliers", "5"])
        assert code == EXIT_CONFIG
        assert "repeats a seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_range_file_unknown_attribute(self, synthetic_dataset, tmp_path,
                                          capsys):
        ranges = tmp_path / "ranges.conf"
        ranges.write_text("count DS 0 100 +\nbogus SS 0 1 +\n")
        code = main(["e1.1", str(synthetic_dataset),
                     "--out", str(tmp_path / "out"), "--ranges", str(ranges)])
        assert code == EXIT_CONFIG
        assert f"{ranges}:2: unknown attribute 'bogus'" in (
            capsys.readouterr().err
        )

    def test_range_file_non_binary_nominal(self, synthetic_dataset, tmp_path,
                                           capsys):
        ranges = tmp_path / "ranges.conf"
        ranges.write_text("service DS 0 1 +\n")
        code = main(["e1.1", str(synthetic_dataset),
                     "--out", str(tmp_path / "out"), "--ranges", str(ranges)])
        assert code == EXIT_CONFIG
        assert "service is a non-binary nominal" in capsys.readouterr().err

    def test_range_file_binary_nominal_accepted(self, synthetic_dataset,
                                                tmp_path):
        ranges = tmp_path / "ranges.conf"
        ranges.write_text("serror_rate PAMP 0 1 +\ncount DS 0 100 +\n"
                          "logged_in SS 0 1 +\n")
        code = main(["e1.1", str(synthetic_dataset), "--seeds", "1",
                     "--out", str(tmp_path / "out"), "--ranges", str(ranges)])
        assert code == EXIT_OK


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is only needed by the negative-selection baseline (E2); the
        # DCA experiments and the CLI's start-up must not pay for it.
        src = Path(dca_ids.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = ("import sys, dca_ids.cli; dca_ids.cli.build_parser(); "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


    def test_dca_runs_and_infogain_leave_scipy_unloaded(
        self, synthetic_dataset, tmp_path
    ):
        # The hand-written Mann-Whitney test exists because importing
        # scipy.stats costs more than a whole small E1 sweep; a full E1.2
        # run and an info-gain report must not load any of scipy.
        src = Path(dca_ids.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = (
            "import sys; from dca_ids.cli import main; "
            f"assert main(['e1.2', {str(synthetic_dataset)!r}, '--out', "
            f"{str(tmp_path / 'e12')!r}, '--seeds', '1,2', "
            "'--multipliers', '5,10']) == 0; "
            f"assert main(['infogain', {str(synthetic_dataset)!r}, '--out', "
            f"{str(tmp_path / 'gains.tsv')!r}]) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
        assert (tmp_path / "e12" / "mannwhitney.tsv").exists()


class TestReports:
    def test_untestable_mann_whitney_row_written_na(self, tmp_path):
        # A sweep point whose per-seed TP rates are all NaN (no seed
        # presented an anomalous type) has nothing to rank.
        rates = ConfusionRates(math.nan, 1.0, 0.0, math.nan)
        base = SweepPoint("E1.1", "-", rates, (RunResult("E1.1:-", 1, rates),))
        point = SweepPoint("E1.2", "5", rates,
                           (RunResult("E1.2:5", 1, rates),),
                           mann_whitney_two_sided([math.nan], [0.5]))
        config = ExperimentConfig("E1.2", tmp_path / "data.kdd", tmp_path)
        emit_report([base, point], config, tmp_path)
        assert read_rows(tmp_path / "mannwhitney.tsv") == [{
            "category": "E1.2", "parameter": "5", "u_statistic": "NA",
            "p_value": "NA", "reject": "false",
        }]
