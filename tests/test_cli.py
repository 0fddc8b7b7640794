import argparse
import concurrent.futures
import dataclasses
import gc
import gzip
import logging
import math
import multiprocessing
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import dca_ids
from dca_ids import experiments
from dca_ids.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_PARSE,
                         EXIT_WORKER, _experiment_config, build_parser, main)
from dca_ids.dataset import ANOMALOUS
from dca_ids.dca import DcaConfig
from dca_ids.errors import ConfigurationError
from dca_ids.evaluation import ConfusionRates, mann_whitney_two_sided
from dca_ids.experiments import (RATE_COLUMNS, ExperimentConfig, SweepPoint,
                                 emit_report)
from dca_ids.nsa import NsaParams

from conftest import (anomalous_line, forks, make_line, normal_line,
                      usable_cpus)
from test_golden_reports import TYPES, golden_lines


# A range file that leaves the safe-signal (SS) category empty.
PARTIAL_RANGES = "serror_rate PAMP 0 1 +\ncount DS 0 511 +\n"


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

    def test_runs_are_seed_major(self, synthetic_dataset, tmp_path,
                                 monkeypatch, caplog, one_cpu):
        # Every point of one seed runs before the next seed: the unit a
        # per-seed task of a family is built on. With one usable CPU the
        # runs are recorded in this process.
        calls = []
        run = experiments.run_dca_with_log

        def recording_run(antigens, signals, config, seed):
            calls.append((seed, config.multiplier))
            return run(antigens, signals, config, seed)

        monkeypatch.setattr(experiments, "run_dca_with_log", recording_run)
        caplog.set_level(logging.INFO, logger="dca_ids.experiments")
        assert main(["e1.2", str(synthetic_dataset), "--out",
                     str(tmp_path / "out"), "--seeds", "1,2",
                     "--multipliers", "5,10", "--no-mcav-tables"]) == EXIT_OK
        assert calls == [(1, 1), (1, 5), (1, 10), (2, 1), (2, 5), (2, 10)]
        runs = [r.getMessage() for r in caplog.records
                if r.name == "dca_ids.experiments"]
        assert [m.split(" seed=")[0] for m in runs] == [
            "E1.1 -", "E1.2 5", "E1.2 10"] * 2
        assert all(re.search(r" elapsed=\d+\.\d\ds$", m) for m in runs)

    def test_table_is_freed_before_the_first_run(self, synthetic_dataset,
                                                 tmp_path, monkeypatch):
        # E1 runs on its antigen and signal streams alone, so the parsed
        # table is garbage by the first DCA run.
        tables, alive = [], []
        read, run = experiments.read_kdd_file, experiments.run_dca_with_log

        def tracked_read(path):
            table = read(path)
            tables.append(weakref.ref(table))
            return table

        def checking_run(*args):
            if not alive:
                gc.collect()
                alive.append(tables[0]() is not None)
            return run(*args)

        monkeypatch.setattr(experiments, "read_kdd_file", tracked_read)
        monkeypatch.setattr(experiments, "run_dca_with_log", checking_run)
        assert main(["e1.2", str(synthetic_dataset), "--out",
                     str(tmp_path / "out"), "--seeds", "1",
                     "--multipliers", "5", "--no-mcav-tables"]) == EXIT_OK
        assert alive == [False]

    @pytest.mark.parametrize("command,flag", [("e1.3", "--windows"),
                                              ("custom", "--window")])
    def test_window_past_the_stream_runs_as_the_stream_length(
            self, synthetic_dataset, tmp_path, command, flag):
        def sweep_rates(window):
            out = tmp_path / window
            assert main([command, str(synthetic_dataset), "--out", str(out),
                         "--seeds", "1,2", flag, window,
                         "--no-mcav-tables"]) == EXIT_OK
            return [[row[c] for c in RATE_COLUMNS]
                    for row in read_rows(out / "per_seed.tsv")
                    if row["category"] != "E1.1"]

        records = len(synthetic_dataset.read_text().splitlines())
        whole = sweep_rates(str(records))
        assert len(whole) == 2
        for window in (2**63 - 1, 2**70):
            assert sweep_rates(str(window)) == whole


class TestWorkers:
    @forks
    @pytest.mark.parametrize("command,options", [
        ("e1.1", []),
        ("e1.2", ["--multipliers", "5,10"]),
        ("e1.3", ["--windows", "2,5"]),
        ("custom", ["--multiplier", "3", "--window", "2"]),
    ])
    def test_one_and_two_workers_write_the_same_reports(
            self, synthetic_dataset, tmp_path, caplog, monkeypatch, command,
            options):
        caplog.set_level(logging.INFO, logger="dca_ids.experiments")
        reports, runs = {}, {}
        for workers in (1, 2):
            usable_cpus(monkeypatch, workers)
            out = tmp_path / str(workers)
            caplog.clear()
            assert main([command, str(synthetic_dataset), "--out", str(out),
                         "--seeds", "1,2,3", *options]) == EXIT_OK
            assert multiprocessing.active_children() == []
            assert f"workers: {workers}" in (
                out / "provenance.txt").read_text().splitlines()
            reports[workers] = {path.relative_to(out): path.read_bytes()
                                for path in out.rglob("*.tsv")}
            runs[workers] = [r.getMessage().split(" elapsed=")[0]
                             for r in caplog.records
                             if r.name == "dca_ids.experiments"]
        assert len(reports[1]) > 3
        assert reports[2] == reports[1]
        seeds = [int(re.search(r" seed=(\d+)", m)[1]) for m in runs[1]]
        assert seeds == sorted(seeds)
        assert runs[2] == runs[1]

    @forks
    def test_worker_error_keeps_its_exit_code(self, synthetic_dataset,
                                              tmp_path, monkeypatch, capfd,
                                              two_cpus):
        parent = os.getpid()

        def failing_run(antigens, signals, config, seed):
            where = "the parent" if os.getpid() == parent else "a worker"
            raise ConfigurationError(f"seed {seed} failed in {where}")

        # fork carries the patch into the workers
        monkeypatch.setattr(experiments, "run_dca_with_log", failing_run)
        code = main(["e1.2", str(synthetic_dataset), "--out",
                     str(tmp_path / "out"), "--seeds", "1,2",
                     "--multipliers", "5"])
        assert code == EXIT_CONFIG
        err = capfd.readouterr().err
        assert "configuration error: seed 1 failed in a worker" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    @forks
    def test_killed_worker_exits_with_the_worker_code(
            self, synthetic_dataset, tmp_path, monkeypatch, capfd, two_cpus):
        parent = os.getpid()
        run_dca_with_log = experiments.run_dca_with_log

        def killed_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(9)  # as a worker killed by a signal ends
            return run_dca_with_log(*args)

        monkeypatch.setattr(experiments, "run_dca_with_log",
                            killed_in_a_worker)
        code = main(["e1.1", str(synthetic_dataset), "--out",
                     str(tmp_path / "out"), "--seeds", "1,2"])
        assert code == EXIT_WORKER
        err = capfd.readouterr().err
        assert "worker error: a seed worker process died" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    @staticmethod
    def record_pools(monkeypatch, cpus):
        """Replace the pool with a stub that records the workers and fork
        context it is asked for and runs the tasks in this process."""
        requested = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context, initializer,
                         initargs):
                requested.append((max_workers,
                                  mp_context.get_start_method()))
                initializer(*initargs)

            def map(self, fn, seeds):
                return map(fn, seeds)

            def shutdown(self, wait, cancel_futures):
                pass

        usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(experiments, "_worker_task", None)
        return requested

    @pytest.mark.parametrize("seeds,cpus,workers", [
        ("1,2,3,4,5", 3, 3),
        ("1,2,3,4,5", 64, 5),
        ("1,2", 64, 2),
    ], ids=["cpu-bound", "seed-bound", "two-seeds"])
    def test_workers_bounded_by_cpus_and_seeds(self, synthetic_dataset,
                                               tmp_path, monkeypatch, seeds,
                                               cpus, workers):
        requested = self.record_pools(monkeypatch, cpus)
        out = tmp_path / "out"
        assert main(["e1.1", str(synthetic_dataset), "--out", str(out),
                     "--seeds", seeds, "--no-mcav-tables"]) == EXIT_OK
        assert requested == [(workers, "fork")]
        assert multiprocessing.active_children() == []
        assert f"workers: {workers}" in (
            out / "provenance.txt").read_text().splitlines()

    @pytest.mark.parametrize("cpus,methods", [(1, ["fork", "spawn"]),
                                              (3, ["spawn"])],
                             ids=["one-cpu", "no-fork"])
    def test_one_worker_runs_without_a_pool(self, synthetic_dataset,
                                            tmp_path, monkeypatch, cpus,
                                            methods):
        requested = self.record_pools(monkeypatch, cpus)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: methods)
        out = tmp_path / "out"
        assert main(["e1.1", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1,2,3", "--no-mcav-tables"]) == EXIT_OK
        assert requested == []
        assert "workers: 1" in (out / "provenance.txt").read_text().splitlines()


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

    def test_each_fold_logs_its_elapsed_seconds(self, synthetic_dataset,
                                                tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="dca_ids.nsa")
        assert main(["e2", str(synthetic_dataset), "--out",
                     str(tmp_path / "out"), "--seeds", "1,2",
                     "--dimensions", "2,3", "--folds", "4", "--detectors",
                     "20", "-v"]) == EXIT_OK
        folds = [r.getMessage() for r in caplog.records
                 if r.name == "dca_ids.nsa" and r.levelno == logging.INFO]
        assert [m.split(" elapsed=")[0] for m in folds] == [
            f"E2 fold {fold} of 4" for fold in range(1, 5)]
        assert all(re.search(r" elapsed=\d+\.\d\ds$", m) for m in folds)


class TestProvenance:
    @staticmethod
    def provenance(argv, tmp_path):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), "--seeds", "1"]) == EXIT_OK
        return (out / "provenance.txt").read_text().splitlines()

    def test_e1_sweep_list_is_recorded(self, synthetic_dataset, tmp_path):
        lines = self.provenance(["e1.2", str(synthetic_dataset),
                                 "--multipliers", "5,100",
                                 "--no-mcav-tables"], tmp_path)
        assert "multipliers: 5,100" in lines
        assert "write_mcav_tables: False" in lines
        assert "time_window: forward mean" in lines
        assert "alpha: 0.05" in lines

    def test_e2_dimensions_and_attempt_budget_are_recorded(
            self, synthetic_dataset, tmp_path):
        lines = self.provenance(["e2", str(synthetic_dataset),
                                 "--dimensions", "3,4", "--folds", "4",
                                 "--detectors", "10", "--max-attempts", "50"],
                                tmp_path)
        assert "dimensions: 3,4" in lines
        assert "nsa.max_attempts: 50" in lines
        assert "nsa.detector_count: 10" in lines
        assert "time_window: forward mean" in lines
        assert "alpha: 0.05" in lines

    def test_one_line_per_config_field(self, synthetic_dataset, tmp_path):
        lines = self.provenance(["e1.1", str(synthetic_dataset)], tmp_path)
        names = [line.split(":")[0] for line in lines[1:-7]]
        config = ExperimentConfig("E1.1", synthetic_dataset, tmp_path)
        expected = []
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            expected += ([f"{f.name}.{g.name}"
                          for g in dataclasses.fields(value)]
                         if dataclasses.is_dataclass(value) else [f.name])
        assert names == expected
        assert lines[-7:-2] == [
            "workers: 1", "python: {}.{}.{}".format(*sys.version_info[:3]),
            f"numpy: {np.__version__}", "time_window: forward mean",
            "alpha: 0.05"]


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


COMMON_OPTIONS = ["--out", "--seeds", "--ranges", "--no-mcav-tables", "-v",
                  "--verbose"]
DCA_OPTIONS = ["--population", "--cells-per-step", "--threshold-low",
               "--threshold-high", "--mcav-threshold"]
NSA_OPTIONS = ["--self-radius", "--detector-radius", "--detectors",
               "--max-attempts", "--folds", "--fold-seed"]

# Every subcommand's option strings. Adding or dropping a flag is a
# deliberate change of the command line and updates this table with it.
OPTIONS = {
    "e1.1": COMMON_OPTIONS + DCA_OPTIONS,
    "e1.2": COMMON_OPTIONS + DCA_OPTIONS + ["--multipliers"],
    "e1.3": COMMON_OPTIONS + DCA_OPTIONS + ["--windows"],
    "e2": COMMON_OPTIONS + NSA_OPTIONS + ["--dimensions"],
    "custom": COMMON_OPTIONS + DCA_OPTIONS + ["--multiplier", "--window"],
    "infogain": ["--out", "-v", "--verbose"],
}

EXPERIMENT_IDS = {"e1.1": "E1.1", "e1.2": "E1.2", "e1.3": "E1.3", "e2": "E2",
                  "custom": "custom"}

# flag: (its argument, the config field it sets, "dca." or "nsa." for the
# engine configs, and the value it must parse to)
FLAG_FIELDS = {
    "--out": ("out", "output_dir", Path("out")),
    "--seeds": ("3,4", "seeds", (3, 4)),
    "--ranges": ("r.conf", "range_config_path", Path("r.conf")),
    "--no-mcav-tables": (None, "write_mcav_tables", False),
    "--population": ("50", "dca.population_size", 50),
    "--cells-per-step": ("5", "dca.cells_per_step", 5),
    "--threshold-low": ("50.5", "dca.threshold_low", 50.5),
    "--threshold-high": ("400.5", "dca.threshold_high", 400.5),
    "--mcav-threshold": ("0.5", "dca.mcav_threshold", 0.5),
    "--multipliers": ("2,3", "multipliers", (2, 3)),
    "--windows": ("4,6", "windows", (4, 6)),
    "--multiplier": ("3", "dca.multiplier", 3),
    "--window": ("2", "dca.window", 2),
    "--self-radius": ("0.2", "nsa.self_radius", 0.2),
    "--detector-radius": ("0.05", "nsa.detector_radius", 0.05),
    "--detectors": ("10", "nsa.detector_count", 10),
    "--max-attempts": ("7", "nsa.max_attempts", 7),
    "--folds": ("4", "folds", 4),
    "--fold-seed": ("3", "fold_seed", 3),
    "--dimensions": ("2,3", "dimensions", (2, 3)),
}


def parsed_config(argv):
    return _experiment_config(build_parser().parse_args(argv))


def default_config(command):
    return ExperimentConfig(EXPERIMENT_IDS[command], Path("data.kdd"),
                            Path("results"))


class TestFlags:
    def test_option_strings_pinned(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        found = {
            name: sorted(option for action in parser._actions
                         for option in action.option_strings
                         if option not in ("-h", "--help"))
            for name, parser in sub.choices.items()
        }
        assert found == {name: sorted(options)
                         for name, options in OPTIONS.items()}

    @pytest.mark.parametrize("command", EXPERIMENT_IDS)
    def test_data_alone_gives_the_dataclass_defaults(self, command):
        assert parsed_config([command, "data.kdd"]) == default_config(command)

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in EXPERIMENT_IDS
        for flag in OPTIONS[command] if flag not in ("-v", "--verbose")
    ])
    def test_flag_sets_its_field(self, command, flag):
        argument, field, value = FLAG_FIELDS[flag]
        argv = [command, "data.kdd", flag]
        if argument is not None:
            argv.append(argument)
        expected = default_config(command)
        owner, _, name = field.rpartition(".")
        if owner:
            value = dataclasses.replace(getattr(expected, owner),
                                        **{name: value})
            name = owner
        assert parsed_config(argv) == dataclasses.replace(expected,
                                                          **{name: value})

    @pytest.mark.parametrize("argv,changes", [
        (["e1.2", "data.kdd", "--out", "o", "--seeds", "1,2",
          "--multipliers", "100"],
         {"output_dir": Path("o"), "seeds": (1, 2), "multipliers": (100,)}),
        (["e2", "data.kdd", "--out", "o", "--seeds", "1,2,3",
          "--dimensions", "2,3,4,5,6,7,8,9,10"],
         {"output_dir": Path("o"), "seeds": (1, 2, 3),
          "dimensions": tuple(range(2, 11))}),
    ], ids=["e1-sweep", "e2-nsa"])
    def test_benchmark_argv(self, argv, changes):
        assert parsed_config(argv) == dataclasses.replace(
            default_config(argv[0]), **changes)

    def test_benchmark_infogain_argv(self):
        args = build_parser().parse_args(
            ["infogain", "data.kdd", "--out", "o/infogain.tsv"])
        assert (args.data, args.out) == (Path("data.kdd"),
                                         Path("o/infogain.tsv"))


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
        (["e1.2", "--multipliers", "0"], "multiplier must be >= 1"),
        (["e1.3", "--windows", "2,0"], "window must be >= 1"),
        (["e2", "--folds", "1"], "folds must be >= 2"),
        (["e2", "--fold-seed", "-1"], "seeds must be >= 0"),
        (["e1.1", "--seeds", "-1"], "seeds must be >= 0"),
        (["e1.1", "--threshold-low", "nan"],
         "migration thresholds must be finite"),
        (["e1.1", "--threshold-low", "inf", "--threshold-high", "inf"],
         "migration thresholds must be finite"),
        (["e1.1", "--threshold-low=-1e308", "--threshold-high=1e308"],
         "migration thresholds must be finite"),
        (["e1.1", "--threshold-low", "300", "--threshold-high", "100"],
         "low <= high"),
        (["e2", "--self-radius", "nan"], "self radius must be finite"),
        (["e2", "--self-radius", "-0.1"], "self radius must be finite"),
        (["e2", "--detector-radius", "-0.1"],
         "detector radius must be finite and > 0"),
        (["e2", "--detector-radius", "inf"],
         "detector radius must be finite and > 0"),
        (["e2", "--detectors", "0"], "detector count must be >= 1"),
        (["e2", "--max-attempts", "-5"], "max attempts must be >= 1"),
        (["e2", "--dimensions", "2,11"],
         "dimension 11 exceeds the 10 configured attributes"),
        (["e1.2", "--multipliers", "5,9223372036854775808"],
         "multiplier must be <= 1048576"),
        (["custom", "--multiplier", "100000000000000000000"],
         "multiplier must be <= 1048576"),
        (["e1.1", "--population", "100000000000000000000"],
         "population_size must be <= 65536"),
        (["e2", "--detectors", "100000000000000000000", "--dimensions", "3"],
         "detector count must be <= 1048576"),
    ], ids=["empty-dimensions", "empty-multipliers", "empty-windows",
            "repeated-dimension", "repeated-multiplier", "repeated-window",
            "zero-multiplier", "zero-window", "one-fold", "negative-fold-seed",
            "negative-seed", "nan-threshold", "inf-thresholds",
            "overflowing-threshold-span", "inverted-thresholds",
            "nan-self-radius", "negative-self-radius",
            "negative-detector-radius", "inf-detector-radius",
            "zero-detectors", "negative-max-attempts",
            "dimension-beyond-attributes", "huge-multipliers",
            "huge-multiplier", "huge-population", "huge-detectors"])
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

    @pytest.mark.parametrize("argv", [
        ["custom", f"--multiplier={DcaConfig.MAX_MULTIPLIER}",
         f"--population={DcaConfig.MAX_POPULATION}"],
        ["e1.2", f"--multipliers={DcaConfig.MAX_MULTIPLIER}"],
        ["e2", f"--detectors={NsaParams.MAX_DETECTORS}", "--dimensions=3",
         "--folds=2"],
    ], ids=["custom", "e1.2", "e2"])
    def test_largest_sizes_run(self, tmp_path, argv):
        path = tmp_path / "data.kdd"
        path.write_text("\n".join([normal_line()] * 5
                                  + [anomalous_line()] * 5) + "\n")
        command, *options = argv
        assert main([command, str(path), "--out", str(tmp_path / "out"),
                     "--seeds=1", *options]) == EXIT_OK

    @pytest.mark.parametrize("ranges,argv,message", [
        ("count DS 10 5 +\n", ["e1.1"],
         "count: lower bound 10.0 must be below"),
        ("count DS 10 5 +\n", ["e2"], "count: lower bound 10.0 must be below"),
        ("serror_rate PAMP 0 1 +\ncount DS 0 100 +\n",
         ["e2", "--dimensions", "3"],
         "dimension 3 exceeds the 2 configured attributes"),
        (PARTIAL_RANGES, ["e1.1"], "no attributes configured for SS"),
        (PARTIAL_RANGES, ["e1.2"], "no attributes configured for SS"),
        (PARTIAL_RANGES, ["e1.3"], "no attributes configured for SS"),
        (PARTIAL_RANGES, ["custom"], "no attributes configured for SS"),
        ("count DS -inf 1 +\n", ["e1.1"], "count: bounds must be finite"),
        ("serror_rate PAMP 0 inf +\n", ["e2"],
         "serror_rate: bounds must be finite"),
        ("count DS -1e308 1e308 +\n", ["e1.1"],
         "count: bounds must be finite and span a finite range"),
        ("serror_rate PAMP 0 1 +\n\xff\xfe bad\n", ["e1.1"],
         "ranges.conf:2: not UTF-8 text"),
        ("serror_rate PAMP 0 1 +\n\xff\xfe bad\n", ["e2"],
         "ranges.conf:2: not UTF-8 text"),
    ], ids=["e1-bad-range", "e2-bad-range", "e2-dimension-beyond-ranges",
            "e1.1-missing-category", "e1.2-missing-category",
            "e1.3-missing-category", "custom-missing-category",
            "e1-infinite-lower-bound", "e2-infinite-upper-bound",
            "e1-overflowing-span", "e1-not-utf8", "e2-not-utf8"])
    def test_range_file_checked_before_the_data_file(self, tmp_path, capsys,
                                                     ranges, argv, message):
        path = tmp_path / "ranges.conf"
        # latin-1 writes each "\xff" as that one byte, which is not UTF-8
        path.write_bytes(ranges.encode("latin-1"))
        command, *options = argv
        code = main([command, str(tmp_path / "absent.kdd"),
                     "--out", str(tmp_path / "out"), "--ranges", str(path),
                     *options])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_e2_accepts_a_range_file_missing_a_category(
            self, synthetic_dataset, tmp_path):
        # E2 takes only the attribute names; the categories are E1's
        ranges = tmp_path / "ranges.conf"
        ranges.write_text(PARTIAL_RANGES)
        code = main(["e2", str(synthetic_dataset), "--seeds", "1",
                     "--dimensions", "2", "--folds", "2", "--detectors", "20",
                     "--out", str(tmp_path / "out"), "--ranges", str(ranges)])
        assert code == EXIT_OK

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

    def test_cli_and_a_one_seed_e1_run_leave_the_pool_unloaded(
            self, synthetic_dataset, tmp_path):
        # One worker runs in this process: starting the CLI and a one-seed
        # run pay nothing for the process pool.
        src = Path(dca_ids.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = (
            "import sys, dca_ids.cli; dca_ids.cli.build_parser(); "
            f"assert dca_ids.cli.main(['e1.2', {str(synthetic_dataset)!r}, "
            f"'--out', {str(tmp_path / 'e12')!r}, '--seeds', '1', "
            "'--multipliers', '5']) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))"
        )
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


class TestReports:
    def test_untestable_mann_whitney_row_written_na(self, tmp_path):
        # A sweep point whose per-seed TP rates are all NaN (no seed
        # presented an anomalous type) has nothing to rank.
        rates = ConfusionRates(math.nan, 1.0, 0.0, math.nan)
        base = SweepPoint("E1.1", "-", (rates,))
        point = SweepPoint("E1.2", "5", (rates,),
                           mann_whitney_two_sided([math.nan], [0.5]))
        config = ExperimentConfig("E1.2", tmp_path / "data.kdd", tmp_path,
                                  seeds=(1,))
        emit_report([base, point], config, tmp_path)
        assert read_rows(tmp_path / "mannwhitney.tsv") == [{
            "category": "E1.2", "parameter": "5", "u_statistic": "NA",
            "p_value": "NA", "reject": "false",
        }]

    @pytest.mark.parametrize("report", ["results.tsv", "mcav_E1.1_-_seed1.tsv"],
                             ids=["results-table", "mcav-table"])
    def test_failed_rename_leaves_no_report_and_no_temporary_file(
            self, synthetic_dataset, tmp_path, monkeypatch, capsys, report):
        replace = os.replace

        def failing_replace(source, destination):
            if Path(destination).name == report:
                raise OSError("no space left on device")
            replace(source, destination)

        monkeypatch.setattr(os, "replace", failing_replace)
        out = tmp_path / "out"
        code = main(["e1.1", str(synthetic_dataset), "--seeds", "1",
                     "--out", str(out)])
        assert code == EXIT_IO
        assert "i/o error: cannot write" in capsys.readouterr().err
        assert not list(out.rglob(report))
        assert not list(out.rglob("*.tmp"))

    def test_report_path_taken_by_a_directory(self, synthetic_dataset,
                                              tmp_path, capsys):
        out = tmp_path / "out"
        (out / "results.tsv").mkdir(parents=True)
        code = main(["e1.1", str(synthetic_dataset), "--seeds", "1",
                     "--out", str(out)])
        assert code == EXIT_IO
        assert f"cannot write {out / 'results.tsv'}" in capsys.readouterr().err
        assert not list(out.rglob("*.tmp"))

    def test_mcav_class_column_is_the_mask_the_run_is_scored_with(
            self, tmp_path):
        # The golden stream puts some types at an MCAV of exactly 0.8: they
        # are normal (strictly above the threshold is anomalous), and the
        # per-seed rates recomputed from the class column match.
        data = tmp_path / "golden.kdd"
        data.write_text("\n".join(golden_lines()) + "\n")
        out = tmp_path / "out"
        assert main(["e1.1", str(data), "--seeds", "1,2",
                     "--out", str(out)]) == EXIT_OK
        truth = {f"{protocol}:{service}:{flag}": (records, anomalous / records)
                 for protocol, service, flag, records, anomalous in TYPES}
        per_seed = read_rows(out / "per_seed.tsv")
        at_threshold = 0
        for row in per_seed:
            cells = {"tp": 0, "fn": 0, "fp": 0, "tn": 0}
            table = out / "mcav" / f"mcav_E1.1_-_seed{row['seed']}.tsv"
            for mcav_row in read_rows(table):
                mcav = (int(mcav_row["mature_count"])
                        / int(mcav_row["total_count"]))
                at_threshold += mcav == 0.8
                predicted = mcav_row["class"] == ANOMALOUS
                assert predicted == (mcav > 0.8)
                records, share = truth[mcav_row["antigen_type"]]
                cell = ("tp" if predicted else "fn") if share > 0.8 else (
                    "fp" if predicted else "tn")
                cells[cell] += records
            assert row["tp_rate"] == (
                f"{cells['tp'] / (cells['tp'] + cells['fn']):.6f}")
            assert row["fp_rate"] == (
                f"{cells['fp'] / (cells['fp'] + cells['tn']):.6f}")
        assert at_threshold > 0
