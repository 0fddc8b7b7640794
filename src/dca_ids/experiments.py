"""Experiment recipes and report emission.

The experiment families mirror the reference protocol: E1.1 is the base
cell-population run, E1.2 sweeps the antigen multiplier, E1.3 sweeps the
moving-window size, and E2 sweeps the detector-space dimensionality of the
negative-selection baseline under 10-fold cross-validation. Every sweep
point is averaged over the configured seed list, and the E1 sweeps carry a
two-sided Mann-Whitney comparison of per-seed TP rates against the base run.
"""
from __future__ import annotations

import dataclasses
import logging
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .dataset import KddTable, kfold_split, read_kdd_file
from .dca import DcaConfig, run_dca_with_log, write_mcav_table
from .errors import ConfigurationError, ReportError
from .evaluation import (
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

# Significance level of the Mann-Whitney comparison against the base run.
ALPHA = 0.05

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
    for seed in config.seeds:
        mcav, log = run_dca_with_log(stream.codes, signals, dca, seed)
        rates = confusion_from_instances(
            mcav > dca.mcav_threshold,
            stream.anomalous_share > dca.mcav_threshold, stream.counts,
        )
        per_seed.append(rates)
        if mcav_dir is not None:
            safe_param = parameter.replace("=", "_")
            write_mcav_table(
                mcav, log, dca.mcav_threshold,
                mcav_dir / f"mcav_{category}_{safe_param}_seed{seed}.tsv",
                stream.names,
            )
        logger.info("%s %s seed=%d tp=%.4f fp=%s", category, parameter, seed,
                    rates.tp_rate, _fmt(rates.fp_rate))
    test = None if base is None else mann_whitney_two_sided(
        [r.tp_rate for r in per_seed], [r.tp_rate for r in base.per_seed],
        ALPHA,
    )
    return SweepPoint(category, parameter, tuple(per_seed), test)


def run_experiment(config: ExperimentConfig) -> list[SweepPoint]:
    """Execute one experiment family and write its reports.

    The range file and E2's attribute list are checked before the data file
    is read."""
    ranges = (None if config.range_config_path is None
              else load_signal_config(config.range_config_path))
    attributes = (DEFAULT_SIGNAL_ATTRIBUTES if ranges is None
                  else ranges.attribute_names)
    if config.experiment == "E2" and max(config.dimensions) > len(attributes):
        raise ConfigurationError(
            f"dimension {max(config.dimensions)} exceeds the "
            f"{len(attributes)} configured attributes"
        )
    table = read_kdd_file(config.data_path)
    if not table:
        raise ConfigurationError(f"{config.data_path}: no records")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mcav_dir = out_dir / "mcav" if config.write_mcav_tables else None
    if mcav_dir is not None:
        mcav_dir.mkdir(exist_ok=True)

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
    points = []
    for d in config.dimensions:
        per_seed = tuple(run_nsa(table, attributes[:d], folds, config.nsa,
                                 config.seeds))
        for seed, rates in zip(config.seeds, per_seed):
            logger.info("E2 d=%d seed=%d tp=%s fp=%s", d, seed,
                        _fmt(rates.tp_rate), _fmt(rates.fp_rate))
        points.append(SweepPoint("E2", str(d), per_seed))
    return points


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return "NA" if math.isnan(value) else f"{value:.6f}"


def _atomic_write(path: Path, body: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(body)
        os.replace(tmp, path)
    except OSError as exc:
        raise ReportError(f"cannot write {path}: {exc}") from exc


def emit_report(points: Sequence[SweepPoint], config: ExperimentConfig,
                out_dir: Path) -> None:
    """Write the results table, per-seed breakdown, ROC points, Mann-Whitney
    appendix and provenance block. Content is deterministic per config."""
    if not points:
        raise ReportError("no results to report")
    out_dir = Path(out_dir)

    lines = ["category\tparameter\ttp_rate\ttn_rate\tfp_rate\tfn_rate"]
    for p in points:
        r = p.mean
        lines.append(
            f"{p.category}\t{p.parameter}\t{_fmt(r.tp_rate)}\t"
            f"{_fmt(r.tn_rate)}\t{_fmt(r.fp_rate)}\t{_fmt(r.fn_rate)}"
        )
    _atomic_write(out_dir / "results.tsv", "\n".join(lines) + "\n")

    lines = ["category\tparameter\tseed\ttp_rate\ttn_rate\tfp_rate\tfn_rate"]
    for p in points:
        for seed, r in zip(config.seeds, p.per_seed, strict=True):
            lines.append(
                f"{p.category}\t{p.parameter}\t{seed}\t"
                f"{_fmt(r.tp_rate)}\t{_fmt(r.tn_rate)}\t"
                f"{_fmt(r.fp_rate)}\t{_fmt(r.fn_rate)}"
            )
    _atomic_write(out_dir / "per_seed.tsv", "\n".join(lines) + "\n")

    lines = ["fp_rate\ttp_rate\tlabel"]
    for p in points:
        label = f"{p.category}" if p.parameter == "-" else \
            f"{p.category}({p.parameter})"
        lines.append(f"{_fmt(p.mean.fp_rate)}\t{_fmt(p.mean.tp_rate)}\t{label}")
    _atomic_write(out_dir / "roc_points.tsv", "\n".join(lines) + "\n")

    tested = [p for p in points if p.mann_whitney is not None]
    if tested:
        lines = ["category\tparameter\tu_statistic\tp_value\treject"]
        for p in tested:
            t = p.mann_whitney
            u = "NA" if math.isnan(t.u_statistic) else f"{t.u_statistic:.1f}"
            lines.append(
                f"{p.category}\t{p.parameter}\t{u}\t"
                f"{_fmt(t.p_value)}\t{str(t.reject).lower()}"
            )
        _atomic_write(out_dir / "mannwhitney.tsv", "\n".join(lines) + "\n")

    provenance = [
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
    ]
    _atomic_write(out_dir / "provenance.txt", "\n".join(provenance) + "\n")


def emit_infogain(table: KddTable, destination: Path) -> None:
    """Write attribute/gain pairs, best first, flagging the default signal
    attributes."""
    gains = attribute_gains(table)
    lines = ["attribute\tgain\tdefault_signal_attribute"]
    for name, gain in gains:
        flagged = "yes" if name in DEFAULT_SIGNAL_ATTRIBUTES else "no"
        lines.append(f"{name}\t{gain:.6f}\t{flagged}")
    _atomic_write(Path(destination), "\n".join(lines) + "\n")
