import argparse
import concurrent.futures
import contextlib
import dataclasses
import gc
import gzip
import hashlib
import logging
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import dca_ids
from dca_ids import experiments
from dca_ids.cli import (EXIT_CONFIG, EXIT_INTERRUPTED, EXIT_IO, EXIT_OK,
                         EXIT_PARSE, EXIT_WORKER, _experiment_config,
                         build_parser, main)
from dca_ids.dataset import ANOMALOUS, read_kdd_file
from dca_ids.dca import DcaConfig
from dca_ids.errors import ConfigurationError, ParseError
from dca_ids.evaluation import ConfusionRates, mann_whitney_two_sided
from dca_ids.experiments import (RATE_COLUMNS, ExperimentConfig, SweepPoint,
                                 emit_report)
from dca_ids.nsa import NsaParams

from conftest import (anomalous_line, forks, make_line, needs_dev_fd,
                      normal_line, pipe_path, usable_cpus)
from test_golden_reports import TYPES, golden_lines


# A range file that leaves the safe-signal (SS) category empty.
PARTIAL_RANGES = "serror_rate PAMP 0 1 +\ncount DS 0 511 +\n"


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def tree(out):
    """Every path under ``out``, with a file's bytes (None for a
    directory)."""
    return {path.relative_to(out): path.read_bytes() if path.is_file()
            else None for path in out.rglob("*")}


def earlier_run(data, out):
    """Write an ``e1.1 --seeds 9`` run into ``out`` and return its
    ``tree``: a later run of other seeds that writes any MCAV table adds a
    file to it."""
    assert main(["e1.1", str(data), "--out", str(out),
                 "--seeds", "9"]) == EXIT_OK
    return tree(out)


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
                     "--seeds", "1"])
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
                     "--multipliers", "5,10"]) == EXIT_OK
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

        def tracked_read(*args):
            table = read(*args)
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
                     "--multipliers", "5"]) == EXIT_OK
        assert alive == [False]

    @pytest.mark.parametrize("command,flag", [("e1.3", "--windows"),
                                              ("custom", "--window")])
    def test_window_past_the_stream_runs_as_the_stream_length(
            self, synthetic_dataset, tmp_path, command, flag):
        def sweep_rates(window):
            out = tmp_path / window
            assert main([command, str(synthetic_dataset), "--out", str(out),
                         "--seeds", "1,2", flag, window]) == EXIT_OK
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
        # The last seed's worker dies once an earlier seed's runs are in:
        # the output directory keeps an earlier run's reports as they were.
        out = tmp_path / "out"
        before = earlier_run(synthetic_dataset, out)
        parent = os.getpid()
        run_dca_with_log = experiments.run_dca_with_log

        def killed_in_a_worker(antigens, signals, config, seed):
            if seed == 4 and os.getpid() != parent:
                os._exit(9)  # as a worker killed by a signal ends
            return run_dca_with_log(antigens, signals, config, seed)

        monkeypatch.setattr(experiments, "run_dca_with_log",
                            killed_in_a_worker)
        code = main(["e1.1", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1,2,3,4"])
        assert code == EXIT_WORKER
        err = capfd.readouterr().err
        assert "worker error: a seed worker process died" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []
        assert tree(out) == before

    def test_ctrl_c_exits_130_with_one_line(self, synthetic_dataset,
                                            tmp_path, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "run_dca_with_log", interrupted)
        code = main(["e1.1", str(synthetic_dataset), "--out",
                     str(tmp_path / "out"), "--seeds", "1"])
        assert code == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "interrupted\n"

    @pytest.mark.skipif(not hasattr(os, "killpg"),
                        reason="no process groups on this platform")
    def test_ctrl_c_to_the_process_group_stops_every_worker(
            self, synthetic_dataset, tmp_path):
        # Ctrl-C in a terminal signals the whole foreground process group:
        # the parent and both of its seed workers. The output directory
        # keeps an earlier run's reports as they were.
        out = tmp_path / "out"
        before = earlier_run(synthetic_dataset, out)
        path = tmp_path / "data.kdd"
        path.write_text(synthetic_dataset.read_text() * 50)
        src = Path(dca_ids.__file__).resolve().parents[1]
        run = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
               "from dca_ids.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.Popen(
            [sys.executable, "-c", run, "e1.1", str(path), "--out",
             str(out), "--seeds", "1,2,3,4", "-v"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            for line in proc.stderr:
                if line.startswith("INFO E1.1"):
                    break
            os.killpg(proc.pid, signal.SIGINT)
            rest = proc.stderr.read().splitlines()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stderr.close()
        assert code == EXIT_INTERRUPTED
        assert [line for line in rest
                if not line.startswith("INFO E1.1")] == ["interrupted"]
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        assert tree(out) == before

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
                     "--seeds", seeds]) == EXIT_OK
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
                     "--seeds", "1,2,3"]) == EXIT_OK
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
        # MCAV tables are E1's; E2 leaves no mcav entry behind
        assert "mcav" not in {path.name for path in out.iterdir()}

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

    @pytest.mark.parametrize("lines,message", [
        (["", "   "], "no records"),
        ([normal_line()], "folds=10 exceeds the record count 1"),
    ], ids=["blank-lines", "one-record"])
    def test_too_few_records_for_the_folds(self, tmp_path, capsys, lines,
                                           message):
        path = tmp_path / "data.kdd"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["e2", str(path), "--out", str(out), "--seeds", "1"])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tsv"))

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
                                 "--multipliers", "5,100"], tmp_path)
        assert "multipliers: 5,100" in lines
        assert "time_window: forward mean" in lines
        assert "alpha: 0.05" in lines

    def test_e2_dimensions_and_attempt_budget_are_recorded(
            self, synthetic_dataset, tmp_path):
        lines = self.provenance(["e2", str(synthetic_dataset),
                                 "--dimensions", "3,4", "--folds", "4",
                                 "--detectors", "10"], tmp_path)
        assert "dimensions: 3,4" in lines
        assert not any(line.startswith("nsa.max_attempts") for line in lines)
        assert "nsa.detector_count: 10" in lines
        assert "time_window: forward mean" in lines
        assert "alpha: 0.05" in lines

    def test_records_and_scipy_version_are_recorded(
            self, synthetic_dataset, tmp_path):
        import scipy

        lines = self.provenance(["e2", str(synthetic_dataset),
                                 "--dimensions", "2", "--folds", "2",
                                 "--detectors", "10"], tmp_path / "e2")
        assert "records: 400" in lines
        assert f"scipy: {scipy.__version__}" in lines
        # E1 never uses scipy, though the E2 run has loaded it.
        lines = self.provenance(["e1.1", str(synthetic_dataset)],
                                tmp_path / "e1")
        assert "records: 400" in lines
        assert not [line for line in lines if line.startswith("scipy")]

    @pytest.mark.parametrize("source", ["file",
                                        pytest.param("pipe", marks=needs_dev_fd)])
    @pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
    def test_data_sha256_is_the_digest_of_the_bytes(
            self, synthetic_dataset, tmp_path, packed, source):
        data = synthetic_dataset.read_bytes()
        if packed:
            data = gzip.compress(data)
        path = tmp_path / "data.kdd"
        path.write_bytes(data)
        with (pipe_path(data) if source == "pipe"
              else contextlib.nullcontext(path)) as data_path:
            lines = self.provenance(["e2", str(data_path), "--dimensions",
                                     "2", "--folds", "2", "--detectors",
                                     "10"], tmp_path)
        assert f"data_sha256: {hashlib.sha256(data).hexdigest()}" in lines

    def test_one_line_per_config_field(self, synthetic_dataset, tmp_path):
        lines = self.provenance(["e1.1", str(synthetic_dataset)], tmp_path)
        names = [line.split(":")[0] for line in lines[1:-9]]
        config = ExperimentConfig("E1.1", synthetic_dataset, tmp_path)
        expected = []
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            expected += ([f"{f.name}.{g.name}"
                          for g in dataclasses.fields(value)]
                         if dataclasses.is_dataclass(value) else [f.name])
        assert names == expected
        digest = hashlib.sha256(synthetic_dataset.read_bytes()).hexdigest()
        assert lines[-9:-2] == [
            "workers: 1", "records: 400", f"data_sha256: {digest}",
            "python: {}.{}.{}".format(*sys.version_info[:3]),
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


@needs_dev_fd
@pytest.mark.parametrize("command", ["e1.1", "infogain"])
def test_pipe_path_gives_the_file_reports(tmp_path, command):
    # cmd <(zcat data.gz) hands the command such a path.
    data = "".join(f"{line}\n" for line in golden_lines()).encode()
    path = tmp_path / "data.kdd"
    path.write_bytes(data)

    def reports(source, out):
        out.mkdir()
        argv = ([command, str(source), "--out", str(out / "gains.tsv")]
                if command == "infogain" else
                [command, str(source), "--out", str(out), "--seeds", "1"])
        assert main(argv) == EXIT_OK
        # provenance.txt names the data path, the one input that differs.
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                if p.is_file() and p.name != "provenance.txt"}

    expected = reports(path, tmp_path / "from-file")
    with pipe_path(data) as piped:
        assert reports(piped, tmp_path / "from-pipe") == expected
    assert len(expected) >= (1 if command == "infogain" else 4)


COMMON_OPTIONS = ["--out", "--seeds", "--ranges", "-v", "--verbose"]
DCA_OPTIONS = ["--population", "--cells-per-step",
               "--threshold-low", "--threshold-high", "--mcav-threshold"]
NSA_OPTIONS = ["--self-radius", "--detector-radius", "--detectors",
               "--folds", "--fold-seed"]

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

    # Fields that neither command's table keeps: E2 reads the first ten
    # default signal attributes, E1 those and the coded nominals.
    @pytest.mark.parametrize("field,raw,message", [
        ("duration", "1_0",
         "non-numeric value '1_0' in continuous column 1 (duration)"),
        ("duration", "-1", "continuous column 1 (duration) must be finite "
         "and non-negative, got '-1'"),
        ("land", "0.0", "binary column 7 (land) must be 0 or 1, got '0.0'"),
    ], ids=["underscore", "negative", "binary"])
    @pytest.mark.parametrize("command", ["e2", "e1.1"])
    def test_malformed_field_in_a_column_not_kept(self, tmp_path, capsys,
                                                  command, field, raw,
                                                  message):
        path = tmp_path / "data.kdd"
        path.write_text("\n".join([normal_line()] * 10
                                  + [make_line(**{field: raw})]) + "\n")
        with pytest.raises(ParseError) as full_read:
            read_kdd_file(path)
        assert str(full_read.value) == f"line 11: {message}"
        code = main([command, str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_PARSE
        assert (f"parse error: line 11: {message}\n"
                in capsys.readouterr().err)

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
        (["e2", "--dimensions", "0,2"], "dimensions must be >= 1"),
        (["e2", "--fold-seed", "-1"], "fold seed must be >= 0"),
        (["e1.1", "--seeds", "-1"], "seeds must be >= 0"),
        (["e1.1", "--seeds", ","], "seed list must be non-empty"),
        (["e2", "--seeds", ","], "seed list must be non-empty"),
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
            "zero-multiplier", "zero-window", "one-fold", "zero-dimension",
            "negative-fold-seed",
            "negative-seed", "empty-e1-seeds", "empty-e2-seeds",
            "nan-threshold", "inf-thresholds",
            "overflowing-threshold-span", "inverted-thresholds",
            "nan-self-radius", "negative-self-radius",
            "negative-detector-radius", "inf-detector-radius",
            "zero-detectors",
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

    def test_e2_has_no_mcav_table_flag(self, tmp_path, capsys):
        # Every E1 run writes its MCAV tables and E2 writes none: no command
        # has a flag that skips them.
        for command in EXPERIMENT_IDS:
            with pytest.raises(SystemExit) as info:
                main([command, str(tmp_path / "absent.kdd"),
                      "--no-mcav-tables"])
            assert info.value.code == EXIT_CONFIG
            assert ("unrecognized arguments: --no-mcav-tables"
                    in capsys.readouterr().err)

    def test_integer_list_that_does_not_parse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["e1.1", str(tmp_path / "absent.kdd"), "--seeds", "1,x"])
        assert info.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "expected a comma-separated integer list, got '1,x'" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("ranges,line,message", [
        (b"count DS 0 x +\n", 1, "could not convert string to float: 'x'"),
        (b"serror_rate PAMP 0 1 +\ncount XX 0 1 +\n", 2,
         "count: unknown category 'XX'"),
        (b"count DS 0 1 *\n", 1,
         "count: direction must be '+' or '-', got '*'"),
        (b"# comment\n\ncount DS 5 5 +\n", 3,
         "count: lower bound 5.0 must be below upper bound 5.0"),
        (b"count DS 0 inf +\n", 1,
         "count: bounds must be finite and span a finite range"),
        (b"count DS 0 1 +\ncount SS 0 1 +\n", 2,
         "attribute count configured twice"),
        (b"bogus DS 0 1 +\n", 1, "unknown attribute 'bogus'"),
        (b"service DS 0 1 +\n", 1,
         "service is a non-binary nominal attribute and cannot be scored"),
        (b"count DS 0 1\n", 1,
         "expected 5 fields (name category lower upper direction), got 4"),
        (b"count DS 0 1 +\ncount\xff DS 0 1 +\n", 2, "not UTF-8 text"),
    ], ids=["bound-not-a-number", "unknown-category", "bad-direction",
            "lower-not-below-upper", "infinite-bound", "repeated-attribute",
            "unknown-attribute", "non-scorable-attribute",
            "wrong-field-count", "not-utf8"])
    def test_range_file_errors_name_their_line(self, tmp_path, capsys,
                                               ranges, line, message):
        path = tmp_path / "r.txt"
        path.write_bytes(ranges)
        code = main(["e1.1", str(tmp_path / "absent.kdd"),
                     "--out", str(tmp_path / "out"), "--ranges", str(path)])
        assert code == EXIT_CONFIG
        assert (f"configuration error: {path}:{line}: {message}\n"
                == capsys.readouterr().err)

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

    def test_e2_loads_the_kd_tree_but_not_scipy_stats(
        self, synthetic_dataset, tmp_path
    ):
        # E2 is the one family that loads scipy, for its kd-trees; it must
        # not pay the second of importing scipy.stats, which the
        # hand-written Mann-Whitney test exists to avoid.
        src = Path(dca_ids.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = (
            "import sys; from dca_ids.cli import main; "
            f"assert main(['e2', {str(synthetic_dataset)!r}, '--out', "
            f"{str(tmp_path / 'e2')!r}, '--seeds', '1,2', "
            "'--dimensions', '2,3', '--detectors', '50']) == 0; "
            "print('scipy.spatial' in sys.modules, "
            "'scipy.stats' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "True False"
        assert (tmp_path / "e2" / "results.tsv").exists()

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
        emit_report([base, point], config, tmp_path, records=1,
                    data_sha256="0" * 64, workers=1)
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
        # provenance.txt is written last, so it says every report is there
        assert not (out / "provenance.txt").exists()

    def test_failed_rerun_leaves_the_older_run_whole(
            self, synthetic_dataset, tmp_path, monkeypatch, capsys):
        # The rerun's MCAV table write fails after its first reports are
        # written: they were staged, so the older run is left as it was.
        out = tmp_path / "out"
        assert main(["e1.1", str(synthetic_dataset), "--seeds", "1",
                     "--out", str(out)]) == EXIT_OK
        before = tree(out)
        replace = os.replace

        def failing_replace(source, destination):
            if Path(destination).name.startswith("mcav_"):
                raise OSError("no space left on device")
            replace(source, destination)

        monkeypatch.setattr(os, "replace", failing_replace)
        code = main(["e1.1", str(synthetic_dataset), "--seeds", "2",
                     "--out", str(out)])
        assert code == EXIT_IO
        assert "i/o error: cannot write" in capsys.readouterr().err
        assert tree(out) == before

    def test_rerun_with_fewer_seeds_leaves_only_its_mcav_tables(
            self, synthetic_dataset, tmp_path, one_cpu):
        out = tmp_path / "out"
        for seeds in ("1,2", "1"):
            assert main(["e1.2", str(synthetic_dataset), "--out", str(out),
                         "--seeds", seeds, "--multipliers", "5"]) == EXIT_OK
        assert sorted(path.name for path in (out / "mcav").iterdir()) == [
            "mcav_E1.1_-_seed1.tsv", "mcav_E1.2_5_seed1.tsv"]

    # Each family's flags, with seeds no other family's run shares, so that
    # a newer run never writes an MCAV table of an older run's name.
    FAMILY_RUNS = {
        "e1.1": ["--seeds", "3"],
        "e1.2": ["--seeds", "1,2", "--multipliers", "5"],
        "e1.3": ["--seeds", "1,2", "--windows", "3"],
        "e2": ["--seeds", "1", "--dimensions", "2,3"],
        "custom": ["--seeds", "4", "--multiplier", "2"],
    }
    FAMILY_PAIRS = [("e1.2", "e2"), ("e2", "e1.3"), ("e1.2", "e1.1"),
                    ("e1.3", "custom"), ("custom", "e2")]

    @pytest.mark.parametrize(
        "older, newer", FAMILY_PAIRS,
        ids=[f"{older}-then-{newer}" for older, newer in FAMILY_PAIRS])
    def test_a_run_over_another_familys_run_equals_a_fresh_run(
            self, synthetic_dataset, tmp_path, one_cpu, older, newer):
        # Every file the older run wrote goes and a user's file stays, so a
        # report file missing from ``experiments._RUN_FILES`` fails here.
        def run(command, out):
            assert main([command, str(synthetic_dataset), "--out", str(out),
                         *self.FAMILY_RUNS[command]]) == EXIT_OK
            files = tree(out)
            provenance = files[Path("provenance.txt")].splitlines(
                keepends=True)
            files[Path("provenance.txt")] = b"".join(
                line for line in provenance
                if not line.startswith(b"output_dir: "))
            return files

        out = tmp_path / "out"
        run(older, out)
        (out / "notes.txt").write_text("kept\n")
        assert run(newer, out) == {**run(newer, tmp_path / "fresh"),
                                   Path("notes.txt"): b"kept\n"}

    def test_ctrl_c_while_the_reports_are_written(
            self, synthetic_dataset, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        before = earlier_run(synthetic_dataset, out)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "write_mcav_table", interrupted)
        code = main(["e1.1", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1"])
        assert code == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "interrupted\n"
        assert tree(out) == before

    def test_out_dot_writes_into_the_working_directory(
            self, synthetic_dataset, tmp_path, monkeypatch):
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert main(["e1.1", str(synthetic_dataset), "--out", ".",
                     "--seeds", "1"]) == EXIT_OK
        assert sorted(str(path) for path in tree(Path("."))) == [
            "mcav", "mcav/mcav_E1.1_-_seed1.tsv", "per_seed.tsv",
            "provenance.txt", "results.tsv", "roc_points.tsv"]

    def test_failed_run_leaves_the_output_directory_as_it_was(
            self, synthetic_dataset, tmp_path, monkeypatch, capsys, one_cpu):
        # The last seed's run fails after the earlier seeds' runs are in
        # and their MCAV tables staged; the stage never reaches --out.
        out = tmp_path / "out"
        before = earlier_run(synthetic_dataset, out)
        run = experiments.run_dca_with_log

        def failing_at_the_last_seed(antigens, signals, config, seed):
            if seed == 3:
                raise OSError("input/output error")
            return run(antigens, signals, config, seed)

        monkeypatch.setattr(experiments, "run_dca_with_log",
                            failing_at_the_last_seed)
        code = main(["e1.2", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1,2,3", "--multipliers", "5"])
        assert code == EXIT_IO
        assert "input/output error" in capsys.readouterr().err
        assert tree(out) == before

    def test_failed_mcav_table_write_stops_the_run_at_its_seed(
            self, synthetic_dataset, tmp_path, monkeypatch, capsys, one_cpu):
        # Each MCAV table is written as its seed's runs are scored, so the
        # first seed's failing write ends the run before seed 2 runs.
        out = tmp_path / "out"
        before = earlier_run(synthetic_dataset, out)
        seeds = []
        run = experiments.run_dca_with_log

        def recording_run(antigens, signals, config, seed):
            seeds.append(seed)
            return run(antigens, signals, config, seed)

        def failing_write(*args):
            raise OSError("no space left on device")

        monkeypatch.setattr(experiments, "run_dca_with_log", recording_run)
        monkeypatch.setattr(experiments, "write_mcav_table", failing_write)
        code = main(["e1.2", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1,2,3", "--multipliers", "5"])
        assert code == EXIT_IO
        assert "no space left on device" in capsys.readouterr().err
        assert tree(out) == before
        assert seeds == [1, 1]

    @pytest.mark.parametrize("tables", [
        ["mcav_E1.1_-_seed1.tsv", "mcav_E1.1_-_seed2.tsv",
         "mcav_E1.2_5_seed1.tsv", "mcav_E1.2_5_seed2.tsv"],
    ], ids=["tables"])
    def test_one_write_mcav_table_call_per_seed_and_point(
            self, synthetic_dataset, tmp_path, monkeypatch, one_cpu, tables):
        # Each MCAV table is one call of write_mcav_table, the function the
        # benchmark times as a span of its own.
        written = []
        write = experiments.write_mcav_table

        def recording_write(mcav, log, anomalous, path, names):
            written.append(path.name)
            write(mcav, log, anomalous, path, names)

        monkeypatch.setattr(experiments, "write_mcav_table", recording_write)
        out = tmp_path / "out"
        assert main(["e1.2", str(synthetic_dataset), "--out", str(out),
                     "--seeds", "1,2", "--multipliers", "5"]) == EXIT_OK
        assert sorted(written) == tables
        assert sorted(path.name for path in out.rglob("mcav_*")) == tables

    def test_report_path_taken_by_a_directory(self, synthetic_dataset,
                                              tmp_path, capsys):
        out = tmp_path / "out"
        (out / "results.tsv").mkdir(parents=True)
        code = main(["e1.1", str(synthetic_dataset), "--seeds", "1",
                     "--out", str(out)])
        assert code == EXIT_IO
        assert f"cannot write {out / 'results.tsv'}" in capsys.readouterr().err
        assert not list(out.rglob("*.tmp"))

    def test_mcav_path_taken_by_a_file_fails_before_any_report(
            self, synthetic_dataset, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "mcav").write_text("not a directory\n")
        before = tree(out)
        code = main(["e1.1", str(synthetic_dataset), "--seeds", "1",
                     "--out", str(out)])
        assert code == EXIT_IO
        assert tree(out) == before

    @staticmethod
    def e2_run(data, out):
        assert main(["e2", str(data), "--seeds", "1", "--dimensions", "2,3",
                     "--out", str(out)]) == EXIT_OK

    def test_e2_rerun_keeps_a_file_named_mcav(self, synthetic_dataset,
                                              tmp_path):
        # E2 writes no MCAV table, so a file named mcav is not the run's.
        out = tmp_path / "out"
        self.e2_run(synthetic_dataset, out)
        (out / "mcav").write_text("the user's\n")
        before = tree(out)
        (out / "results.tsv").write_text("stale\n")
        self.e2_run(synthetic_dataset, out)
        assert tree(out) == before

    def test_e1_rerun_beside_a_file_named_mcav_keeps_the_older_run(
            self, synthetic_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        self.e2_run(synthetic_dataset, out)
        (out / "mcav").write_text("the user's\n")
        before = tree(out)
        code = main(["e1.1", str(synthetic_dataset), "--seeds", "1",
                     "--out", str(out)])
        assert code == EXIT_IO
        assert f"cannot write {out / 'mcav'}" in capsys.readouterr().err
        assert tree(out) == before

    def test_a_leftover_stage_does_not_block_a_run(self, synthetic_dataset,
                                                   tmp_path):
        # An older run killed before its cleanup, in a process that had
        # this one's pid, as it does in a container that runs one command.
        out = tmp_path / "out"
        leftover = out / f".partial-{os.getpid()}"
        leftover.mkdir(parents=True)
        (leftover / "results.tsv").write_text("stale\n")
        assert main(["e1.1", str(synthetic_dataset), "--seeds", "1",
                     "--out", str(out)]) == EXIT_OK
        assert (leftover / "results.tsv").read_text() == "stale\n"
        assert sorted(path.name for path in out.iterdir()) == [
            leftover.name, "mcav", "per_seed.tsv", "provenance.txt",
            "results.tsv", "roc_points.tsv"]

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
