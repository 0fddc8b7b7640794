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
import logging
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .dataset import ANOMALOUS, NORMAL, KddTable, kfold_split, read_kdd_file
from .dca import DcaConfig, PresentationLog, run_dca_with_log
from .errors import ConfigurationError, ReportError
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
    SignalConfig,
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
    write_mcav_tables: bool = True

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
        if any(s < 0 for s in self.seeds) or self.fold_seed < 0:
            raise ConfigurationError("seeds must be >= 0")
        if any(k < 1 for k in self.multipliers):
            raise ConfigurationError("multipliers must be >= 1")
        if any(w < 1 for w in self.windows):
            raise ConfigurationError("window sizes must be >= 1")
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
                   antigen_type_names(table))


def _dca_sweep_point(
    category: str,
    parameter: str,
    dca: DcaConfig,
    stream: AntigenTypes,
    signals: np.ndarray,
    config: ExperimentConfig,
    mcav_dir: Path | None,
    base: SweepPoint | None = None,
) -> SweepPoint:
    """Run ``dca`` once per seed; with a ``base`` point, compare the per-seed
    TP rates against it."""
    per_seed = []
    truth = stream.anomalous_share > dca.mcav_threshold
    for seed in config.seeds:
        mcav, log = run_dca_with_log(stream.codes, signals, dca, seed)
        anomalous = mcav > dca.mcav_threshold
        rates = confusion_from_instances(anomalous, truth, stream.counts)
        per_seed.append(rates)
        if mcav_dir is not None:
            safe_param = parameter.replace("=", "_")
            write_mcav_table(
                mcav, log, anomalous,
                mcav_dir / f"mcav_{category}_{safe_param}_seed{seed}.tsv",
                stream.names,
            )
        logger.info("%s %s seed=%d tp=%.4f fp=%s", category, parameter, seed,
                    rates.tp_rate, _fmt(rates.fp_rate))
    test = None if base is None else mann_whitney_two_sided(
        [r.tp_rate for r in per_seed], [r.tp_rate for r in base.per_seed],
    )
    return SweepPoint(category, parameter, tuple(per_seed), test)


def run_experiment(config: ExperimentConfig) -> list[SweepPoint]:
    """Execute one experiment family and write its reports.

    The range file (for E1, that it gives every category an attribute) and
    E2's attribute list are checked before the data file is read."""
    ranges = (None if config.range_config_path is None
              else load_signal_config(config.range_config_path))
    attributes = (DEFAULT_SIGNAL_ATTRIBUTES if ranges is None
                  else ranges.attribute_names)
    if config.experiment != "E2" and ranges is not None:
        ranges.check_categories()
    if config.experiment == "E2" and max(config.dimensions) > len(attributes):
        raise ConfigurationError(
            f"dimension {max(config.dimensions)} exceeds the "
            f"{len(attributes)} configured attributes"
        )
    table = read_kdd_file(config.data_path)
    if not table:
        raise ConfigurationError(f"{config.data_path}: no records")
    out_dir = Path(config.output_dir)
    mcav_dir = out_dir / "mcav" if config.write_mcav_tables else None
    (mcav_dir or out_dir).mkdir(parents=True, exist_ok=True)

    if config.experiment == "E2":
        points = _run_e2(config, table, attributes)
    else:
        points = _run_e1(config, table, ranges, mcav_dir)

    emit_report(points, config, out_dir)
    return points


def _run_e1(config: ExperimentConfig, table: KddTable,
            ranges: SignalConfig | None,
            mcav_dir: Path | None) -> list[SweepPoint]:
    """The base run, then one point per (parameter, DcaConfig) of the
    family's sweep, each compared against the base."""
    dca = config.dca
    if config.experiment == "E1.2":
        sweep = [(str(k), dataclasses.replace(dca, multiplier=k, window=1))
                 for k in config.multipliers]
    elif config.experiment == "E1.3":
        sweep = [(str(w), dataclasses.replace(dca, multiplier=1, window=w))
                 for w in config.windows]
    elif config.experiment == "custom":  # the configuration exactly as given
        sweep = [(f"k={dca.multiplier},w={dca.window}", dca)]
    else:
        sweep = []

    stream = AntigenTypes.of(table)
    signals = signal_stream(
        table, default_signal_config(table) if ranges is None else ranges
    )
    base = _dca_sweep_point(
        "E1.1", "-", dataclasses.replace(dca, multiplier=1, window=1),
        stream, signals, config, mcav_dir,
    )
    return [base] + [
        _dca_sweep_point(config.experiment, parameter, point_dca, stream,
                         signals, config, mcav_dir, base)
        for parameter, point_dca in sweep
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
                out_dir: Path) -> None:
    """Write the results table, per-seed breakdown, ROC points, Mann-Whitney
    appendix and provenance block. Content is deterministic per config."""
    if not points:
        raise ReportError("no results to report")
    out_dir = Path(out_dir)

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

    _write_lines(out_dir / "provenance.txt", [
        f"dca-ids {__version__}",
        f"experiment: {config.experiment}",
        f"data: {config.data_path}",
        f"seeds: {','.join(str(s) for s in config.seeds)}",
        f"population_size: {config.dca.population_size}",
        f"threshold_range: [{config.dca.threshold_low}, "
        f"{config.dca.threshold_high}]",
        f"cells_per_step: {config.dca.cells_per_step}",
        f"mcav_threshold: {config.dca.mcav_threshold}",
        f"multiplier: {config.dca.multiplier}",
        f"window: {config.dca.window}",
        "time_window: forward mean",
        f"nsa_self_radius: {config.nsa.self_radius}",
        f"nsa_detector_radius: {config.nsa.detector_radius}",
        f"nsa_detector_count: {config.nsa.detector_count}",
        f"folds: {config.folds} (seed {config.fold_seed})",
        f"range_config: {config.range_config_path or 'built-in defaults'}",
        f"alpha: {ALPHA}",
        "",
        "reference decision-tree benchmark (not computed): "
        f"tp_rate={C45_REFERENCE_TP_RATE} fp_rate={C45_REFERENCE_FP_RATE}",
    ])


def emit_infogain(table: KddTable, destination: Path) -> None:
    """Write attribute/gain pairs, best first, flagging the default signal
    attributes."""
    _write_tsv(Path(destination),
               ("attribute", "gain", "default_signal_attribute"),
               [(name, gain, "yes" if name in DEFAULT_SIGNAL_ATTRIBUTES
                 else "no") for name, gain in attribute_gains(table)])
