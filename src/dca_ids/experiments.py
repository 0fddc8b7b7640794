"""Experiment recipes and report emission.

The experiment families mirror the reference protocol: E1.1 is the base
cell-population run, E1.2 sweeps the antigen multiplier, E1.3 sweeps the
moving-window size, and E2 sweeps the detector-space dimensionality of the
negative-selection baseline under 10-fold cross-validation. Every sweep
point is averaged over the configured seed list, and the E1 sweeps carry a
two-sided Mann-Whitney comparison of per-seed TP rates against the base run.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import logging
import math
import os
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .dataset import (
    ANOMALOUS,
    CODED_ATTRIBUTES,
    NORMAL,
    KddTable,
    kfold_split,
    read_kdd_file,
)
from .dca import DcaConfig, PresentationLog, run_dca_with_log
from .errors import ConfigurationError, ReportError, WorkerError
from .evaluation import (
    ALPHA,
    ConfusionRates,
    MannWhitneyResult,
    average_rates,
    confusion_from_instances,
    mann_whitney_two_sided,
)
from .nsa import NsaParams, run_nsa
from .signals import (
    DEFAULT_SIGNAL_ATTRIBUTES,
    antigen_stream,
    antigen_type_names,
    attribute_gains,
    default_signal_config,
    load_signal_config,
    signal_stream,
)

logger = logging.getLogger(__name__)

# Reference classification rates of the decision-tree benchmark, echoed in
# report footers for comparison; never computed here.
C45_REFERENCE_TP_RATE = 0.988
C45_REFERENCE_FP_RATE = 0.008

EXPERIMENT_IDS = ("E1.1", "E1.2", "E1.3", "E2", "custom")


@dataclass
class ExperimentConfig:
    experiment: str
    data_path: Path
    output_dir: Path
    seeds: tuple[int, ...] = tuple(range(1, 11))
    dca: DcaConfig = field(default_factory=DcaConfig)
    nsa: NsaParams = field(default_factory=NsaParams)
    multipliers: tuple[int, ...] = (5, 10, 50, 100)
    windows: tuple[int, ...] = (2, 3, 5, 7, 10, 100, 1000)
    dimensions: tuple[int, ...] = tuple(range(2, 11))
    folds: int = 10
    fold_seed: int = 1
    range_config_path: Path | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {EXPERIMENT_IDS}"
            )
        for name in ("seeds", "multipliers", "windows", "dimensions"):
            values = getattr(self, name)
            if not values:
                raise ConfigurationError(f"{name[:-1]} list must be non-empty")
            if len(set(values)) != len(values):
                raise ConfigurationError(
                    f"{name[:-1]} list repeats a {name[:-1]}: {list(values)}"
                )
        if any(s < 0 for s in self.seeds):
            raise ConfigurationError("seeds must be >= 0")
        if self.fold_seed < 0:
            raise ConfigurationError("fold seed must be >= 0")
        if any(d < 1 for d in self.dimensions):
            raise ConfigurationError("dimensions must be >= 1")
        if self.folds < 2:
            raise ConfigurationError(f"folds must be >= 2, got {self.folds}")


@dataclass(frozen=True)
class SweepPoint:
    """One result row: its rates per seed, in the config's seed order, and
    their mean."""

    category: str
    parameter: str
    per_seed: tuple[ConfusionRates, ...]
    mann_whitney: MannWhitneyResult | None = None

    @property
    def mean(self) -> ConfusionRates:
        return average_rates(self.per_seed)


@dataclass(frozen=True)
class AntigenTypes:
    """The antigen stream of an E1 run: a type code per record and, per type
    code, its record count, the share of its records labelled anomalous (the
    perfect MCAV: the type is anomalous by truth iff this exceeds the MCAV
    threshold) and its name for the MCAV tables."""

    codes: np.ndarray
    counts: np.ndarray
    anomalous_share: np.ndarray
    names: list[str]

    @classmethod
    def of(cls, table: KddTable) -> AntigenTypes:
        codes = antigen_stream(table)
        counts = np.bincount(codes)
        return cls(codes, counts,
                   np.bincount(codes, weights=table.anomalous) / counts,
                   antigen_type_names(table, codes))


def run_experiment(config: ExperimentConfig) -> list[SweepPoint]:
    """Execute one experiment family, then write its reports.

    The range file (for E1, that it gives every category an attribute), E1's
    sweep points and E2's attribute list are checked before the data file
    is read. The read keeps only the columns the family uses: E1's signal
    attributes and the coded nominals its antigens are made of, or the
    first max(dimensions) of E2's attributes. Every report is written into
    a stage inside the output directory, made before the runs and removed
    on any exit: E1's MCAV tables as each seed's runs are scored, the other
    reports after the last run. ``_publish`` then moves them into place."""
    ranges = (None if config.range_config_path is None
              else load_signal_config(config.range_config_path))
    attributes = (DEFAULT_SIGNAL_ATTRIBUTES if ranges is None
                  else ranges.attribute_names)
    if config.experiment == "E2":
        if max(config.dimensions) > len(attributes):
            raise ConfigurationError(
                f"dimension {max(config.dimensions)} exceeds the "
                f"{len(attributes)} configured attributes"
            )
        columns = attributes[:max(config.dimensions)]
    else:
        if ranges is not None:
            ranges.check_categories()
        sweep = _e1_points(config)
        columns = attributes + CODED_ATTRIBUTES
    table = read_kdd_file(config.data_path, columns)
    if not table:
        raise ConfigurationError(f"{config.data_path}: no records")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, data_sha256, workers = len(table), table.sha256, 1
    stage = Path(tempfile.mkdtemp(prefix=".partial-", dir=out_dir))
    try:
        if config.experiment == "E2":
            points = _run_e2(config, table, attributes)
        else:
            # E1 needs only its two streams: free the table before the runs,
            # so neither they nor the forked seed workers hold it (its 13
            # default columns are 51 MB at 494,021 records).
            stream = AntigenTypes.of(table)
            signals = signal_stream(table,
                                    ranges or default_signal_config(table))
            del table
            workers = _e1_workers(len(config.seeds))
            points = _run_e1(config, sweep, stream, signals, workers, stage)
        emit_report(points, config, stage, records, data_sha256, workers)
        _publish(stage, out_dir)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return points


# (category, parameter, DcaConfig) of one E1 sweep point.
E1Point = tuple[str, str, DcaConfig]


def _e1_points(config: ExperimentConfig) -> list[E1Point]:
    """The ``(category, parameter, DcaConfig)`` of each point of an E1
    family: the base run (k = 1, w = 1), then the family's sweep. Building
    each ``DcaConfig`` checks its multiplier and window."""
    dca = config.dca
    points = [("E1.1", "-", dataclasses.replace(dca, multiplier=1, window=1))]
    if config.experiment == "E1.2":
        points += [("E1.2", str(k),
                    dataclasses.replace(dca, multiplier=k, window=1))
                   for k in config.multipliers]
    elif config.experiment == "E1.3":
        points += [("E1.3", str(w),
                    dataclasses.replace(dca, multiplier=1, window=w))
                   for w in config.windows]
    elif config.experiment == "custom":  # the configuration exactly as given
        points.append(("custom", f"k={dca.multiplier},w={dca.window}", dca))
    return points


def _e1_workers(seeds: int) -> int:
    """Worker processes for an E1 family's ``seeds`` seed tasks: one per
    usable CPU (the CPU affinity set where the platform has one), at most
    one per seed, and 1 where the ``fork`` start method is unavailable."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(seeds, cpus)
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return workers


# (mcav, presentation log, elapsed seconds) of one DCA run.
DcaRun = tuple[np.ndarray, PresentationLog, float]


def _seed_runs(antigens: np.ndarray, signals: np.ndarray,
               configs: Sequence[DcaConfig], seed: int) -> list[DcaRun]:
    """One seed task: the seed's DCA run of each config, in config order."""
    runs = []
    for config in configs:
        start = time.perf_counter()
        mcav, log = run_dca_with_log(antigens, signals, config, seed)
        runs.append((mcav, log, time.perf_counter() - start))
    return runs


# The seed task of a forked pool worker, set in the worker by ``_adopt``.
_worker_task: Callable[[int], list[DcaRun]] | None = None


def _adopt(task: Callable[[int], list[DcaRun]]) -> None:
    global _worker_task
    _worker_task = task
    # Ctrl-C signals the whole process group: a worker, busy or idle, ends
    # at once and without a traceback, and the parent reports the interrupt.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _run_adopted(seed: int) -> list[DcaRun]:
    return _worker_task(seed)


@contextlib.contextmanager
def _seed_results(task: Callable[[int], list[DcaRun]], seeds: Sequence[int],
                  workers: int) -> Iterator[Iterator[list[DcaRun]]]:
    """``task(seed)`` for each seed, yielded in seed order as each arrives:
    run in this process with one worker, else in a pool of forked ones.

    Fork hands each worker ``task`` and the streams it holds without
    pickling them, and ``run_dca_with_log`` is looked up in this module
    there as here. The pool forks every worker before it starts its own
    thread. On leaving, pending tasks are cancelled and every worker is
    joined, whether the results were all read or an error cut them short.
    A worker that dies (killed by a signal, say) raises ``WorkerError``."""
    if workers == 1:
        yield map(task, seeds)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(task,))
    try:
        yield pool.map(_run_adopted, seeds)
    except BrokenProcessPool as exc:
        raise WorkerError(f"a seed worker process died: {exc}") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _run_e1(config: ExperimentConfig, points: Sequence[E1Point],
            stream: AntigenTypes, signals: np.ndarray, workers: int,
            stage: Path) -> list[SweepPoint]:
    """Run ``points`` (from ``_e1_points``, the base run first) and compare
    each later point's per-seed TP rates against the base's.

    One task per seed runs every point of that seed, on ``workers``
    processes. The runs are scored and logged here, in seed order, so the
    results do not depend on ``workers``, and each run's MCAV table is
    written into ``stage/mcav`` as its seed's results are scored."""
    dca = config.dca
    truth = stream.anomalous_share > dca.mcav_threshold
    per_point = [[] for _ in points]  # per-seed rates
    tables = stage / "mcav"
    tables.mkdir()
    task = functools.partial(_seed_runs, stream.codes, signals,
                             [point_dca for *_, point_dca in points])
    with _seed_results(task, config.seeds, workers) as results:
        for seed, runs in zip(config.seeds, results):
            for (category, parameter, _), per_seed, (
                    mcav, log, elapsed) in zip(points, per_point, runs):
                anomalous = mcav > dca.mcav_threshold
                rates = confusion_from_instances(anomalous, truth,
                                                 stream.counts)
                per_seed.append(rates)
                logger.info("%s %s seed=%d tp=%.4f fp=%s elapsed=%.2fs",
                            category, parameter, seed, rates.tp_rate,
                            _fmt(rates.fp_rate), elapsed)
                name = f"mcav_{category}_{parameter}_seed{seed}.tsv"
                write_mcav_table(mcav, log, anomalous,
                                 tables / name.replace("=", "_"), stream.names)

    base_tp = [r.tp_rate for r in per_point[0]]
    return [
        SweepPoint(category, parameter, tuple(per_seed),
                   mann_whitney_two_sided([r.tp_rate for r in per_seed],
                                          base_tp) if i else None)
        for i, ((category, parameter, _), per_seed) in enumerate(
            zip(points, per_point))
    ]


def _run_e2(config: ExperimentConfig, table: KddTable,
            attributes: Sequence[str]) -> list[SweepPoint]:
    folds = kfold_split(len(table), config.folds, config.fold_seed)
    per_dimension = run_nsa(table, attributes, config.dimensions, folds,
                            config.nsa, config.seeds)
    points = []
    for d, per_seed in zip(config.dimensions, per_dimension):
        for seed, rates in zip(config.seeds, per_seed):
            logger.info("E2 d=%d seed=%d tp=%s fp=%s", d, seed,
                        _fmt(rates.tp_rate), _fmt(rates.fp_rate))
        points.append(SweepPoint("E2", str(d), tuple(per_seed)))
    return points


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

RATE_COLUMNS = ("tp_rate", "tn_rate", "fp_rate", "fn_rate")


def _fmt(value: object, places: int = 6) -> str:
    """A float with ``places`` decimals (NaN as ``NA``), anything else as
    str."""
    if isinstance(value, float):
        return "NA" if math.isnan(value) else f"{value:.{places}f}"
    return str(value)


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to a temporary file and rename it onto ``path``:
    ``path`` is whole or untouched, and no temporary file is left."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text("".join(f"{line}\n" for line in lines))
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise ReportError(f"cannot write {path}: {exc}") from exc


def _write_tsv(path: Path, header: Sequence[str],
               rows: Iterable[Iterable]) -> None:
    """The one table writer: the ``header`` names, then each row's ``_fmt``
    fields, tab-separated."""
    _write_lines(path, ["\t".join(header),
                        *("\t".join(map(_fmt, row)) for row in rows)])


def write_mcav_table(mcav: np.ndarray, log: PresentationLog,
                     anomalous: np.ndarray, path: Path,
                     names: Sequence[str]) -> None:
    """One row per presented type, sorted by name (``names[code]``), with
    its class read from ``anomalous``, the mask the run was scored with."""
    _write_tsv(path, ("antigen_type", "total_count", "mature_count", "mcav",
                      "class"),
               sorted((names[code], log.totals[code], log.matures[code],
                       mcav[code], ANOMALOUS if anomalous[code] else NORMAL)
                      for code in np.flatnonzero(log.totals)))


def emit_report(points: Sequence[SweepPoint], config: ExperimentConfig,
                out_dir: Path, records: int, data_sha256: str,
                workers: int) -> None:
    """Write the reports that need every run: the results table, per-seed
    breakdown, ROC points, Mann-Whitney appendix and, last, provenance: one
    line per config field, then the worker processes the run used, the
    records it read, the sha256 of the data file's bytes, and the Python,
    numpy and, for E2, scipy versions. The report bodies are deterministic
    per config."""
    _write_tsv(out_dir / "results.tsv",
               ("category", "parameter", *RATE_COLUMNS),
               [(p.category, p.parameter, *p.mean.as_tuple()) for p in points])
    _write_tsv(out_dir / "per_seed.tsv",
               ("category", "parameter", "seed", *RATE_COLUMNS), [
                   (p.category, p.parameter, seed, *r.as_tuple())
                   for p in points
                   for seed, r in zip(config.seeds, p.per_seed, strict=True)
               ])
    _write_tsv(out_dir / "roc_points.tsv", ("fp_rate", "tp_rate", "label"), [
        (p.mean.fp_rate, p.mean.tp_rate,
         p.category if p.parameter == "-" else f"{p.category}({p.parameter})")
        for p in points
    ])
    tests = [(p, p.mann_whitney) for p in points if p.mann_whitney is not None]
    if tests:
        _write_tsv(out_dir / "mannwhitney.tsv",
                   ("category", "parameter", "u_statistic", "p_value",
                    "reject"), [
                       (p.category, p.parameter, _fmt(t.u_statistic, 1),
                        t.p_value, str(t.reject).lower())
                       for p, t in tests
                   ])

    # E2 is the one family that uses scipy, and has loaded it by now; E1
    # never imports it, which spares its start-up the cost.
    scipy = sys.modules.get("scipy") if config.experiment == "E2" else None
    _write_lines(out_dir / "provenance.txt", [
        f"dca-ids {__version__}",
        *_field_lines(config),
        f"workers: {workers}",
        f"records: {records}",
        f"data_sha256: {data_sha256}",
        "python: {}.{}.{}".format(*sys.version_info[:3]),
        f"numpy: {np.__version__}",
        *([f"scipy: {scipy.__version__}"] if scipy else []),
        "time_window: forward mean",
        f"alpha: {ALPHA}",
        "",
        "reference decision-tree benchmark (not computed): "
        f"tp_rate={C45_REFERENCE_TP_RATE} fp_rate={C45_REFERENCE_FP_RATE}",
    ])


_RUN_FILES = ("provenance.txt", "results.tsv", "per_seed.tsv",
              "roc_points.tsv", "mannwhitney.tsv")


def _publish(stage: Path, out_dir: Path) -> None:
    """Replace the run in ``out_dir`` with the one written in ``stage``:
    make ``mcav/`` if the stage has one, so anything else named ``mcav``
    fails before a file is removed; remove every file a run writes
    (``provenance.txt`` first, then a ``mcav/`` directory that this empties
    and the stage does not need) and leave the others; then move the staged
    files in, ``provenance.txt`` last, so a ``provenance.txt`` means one
    whole run."""
    mcav = out_dir / "mcav"
    staged = (stage / "mcav").is_dir()
    path = mcav
    try:
        if staged:
            mcav.mkdir(exist_ok=True)
        tables = list(mcav.glob("mcav_*.tsv")) if mcav.is_dir() else []
        for path in [*(out_dir / name for name in _RUN_FILES), *tables]:
            path.unlink(missing_ok=True)
        path = mcav
        if not staged and mcav.is_dir() and not any(mcav.iterdir()):
            mcav.rmdir()
        for entry in [*stage.rglob("*.tsv"), stage / "provenance.txt"]:
            path = out_dir / entry.relative_to(stage)
            os.replace(entry, path)
    except OSError as exc:
        raise ReportError(f"cannot write {path}: {exc}") from exc


def _field_lines(config: object, prefix: str = "") -> Iterable[str]:
    """One ``name: value`` line per field of the dataclass ``config``:
    nested configs flattened as ``field.name``, tuples comma-joined."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _field_lines(value, f"{prefix}{f.name}.")
        else:
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            yield f"{prefix}{f.name}: {value}"


def emit_infogain(table: KddTable, destination: Path) -> None:
    """Write attribute/gain pairs, best first, flagging the default signal
    attributes."""
    _write_tsv(Path(destination),
               ("attribute", "gain", "default_signal_attribute"),
               [(name, gain, "yes" if name in DEFAULT_SIGNAL_ATTRIBUTES
                 else "no") for name, gain in attribute_gains(table)])
