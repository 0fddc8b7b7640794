"""The dendritic-cell population: signal transform, population run and MCAV
scoring.

A run streams (antigen, signal-triple) pairs through a fixed-size cell
population. Each step a random subset of cells samples the current signal and
receives the step's antigen copies; cells whose cumulative costimulation
crosses their migration threshold present their stored antigens with a
mature/semi-mature context and are replaced by naive cells. After the stream,
surviving cells are flushed so no sampled antigen is lost. The per-type
fraction of mature presentations is the MCAV score.

A cell's state is only its three cumulative signal sums and its threshold, so
the population is held as flat lists indexed by cell slot. Each sampling life
of a slot gets a lifetime id; a step records which lifetimes received its
antigen copies, and a lifetime's context is fixed when it migrates or is
flushed. Antigens are never copied: the per-type tallies come from one
weighted count at the end of the run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import ANOMALOUS, NORMAL
from .errors import ConfigurationError
from .signals import apply_time_window

# Weights from input category (rows: PAMP, DS, SS) to output signal
# (columns: Csm, Semi, Mat).
DEFAULT_WEIGHTS = np.array(
    [
        [2.0, 0.0, 2.0],
        [1.0, 0.0, 1.0],
        [3.0, 3.0, -3.0],
    ]
)


def transform_signals(
    triple: Sequence[float], weights: np.ndarray = DEFAULT_WEIGHTS
) -> tuple[float, float, float]:
    """Weighted sum of the input triple into (csm, semi, mat)."""
    out = np.asarray(triple, dtype=float) @ np.asarray(weights, dtype=float)
    return float(out[0]), float(out[1]), float(out[2])


@dataclass(frozen=True)
class PresentationLog:
    """Per-antigen-type tallies of one run: type -> (total presentations,
    mature presentations)."""

    counts: dict[str, tuple[int, int]]

    def mature_count(self, antigen: str) -> int:
        return self.counts.get(antigen, (0, 0))[1]

    def total_count(self, antigen: str) -> int:
        return self.counts.get(antigen, (0, 0))[0]

    @property
    def total_presentations(self) -> int:
        return sum(total for total, _ in self.counts.values())

    def types(self) -> list[str]:
        return list(self.counts)


def compute_mcav(log: PresentationLog) -> dict[str, float]:
    """mature / total per presented type; never-presented types are absent."""
    return {
        antigen: log.mature_count(antigen) / log.total_count(antigen)
        for antigen in log.types()
    }


def classify_types(
    mcav: dict[str, float], threshold: float
) -> dict[str, str]:
    """Anomalous iff the MCAV strictly exceeds the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError(
            f"MCAV threshold must lie in [0,1], got {threshold}"
        )
    return {
        antigen: (ANOMALOUS if value > threshold else NORMAL)
        for antigen, value in mcav.items()
    }


@dataclass
class DcaConfig:
    """Run parameters; defaults follow the reference experiment setup."""

    population_size: int = 100
    threshold_low: float = 100.0
    threshold_high: float = 300.0
    cells_per_step: int = 10
    multiplier: int = 1
    window: int = 1
    mcav_threshold: float = 0.8
    weights: np.ndarray = field(default_factory=lambda: DEFAULT_WEIGHTS.copy())

    def __post_init__(self):
        if self.population_size < 1:
            raise ConfigurationError("population_size must be >= 1")
        if not 0 < self.cells_per_step <= self.population_size:
            raise ConfigurationError(
                "cells_per_step must be in [1, population_size]"
            )
        if self.threshold_low > self.threshold_high:
            raise ConfigurationError("threshold range is inverted")
        if self.multiplier < 1:
            raise ConfigurationError("multiplier must be >= 1")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 0.0 <= self.mcav_threshold <= 1.0:
            raise ConfigurationError("mcav_threshold must lie in [0,1]")


def run_dca(
    antigens: Sequence[str],
    signals: np.ndarray,
    config: DcaConfig,
    seed: int,
) -> dict[str, float]:
    """Per-type MCAV table of one run; see ``run_dca_with_log``."""
    return run_dca_with_log(antigens, signals, config, seed)[0]


def run_dca_with_log(
    antigens: Sequence[str],
    signals: np.ndarray,
    config: DcaConfig,
    seed: int,
) -> tuple[dict[str, float], PresentationLog]:
    """Full pass over an antigen stream and its raw signal stream.

    Applies the moving time window, then per record deals ``multiplier``
    copies of its antigen round-robin over ``cells_per_step`` randomly
    selected cells and adds the record's transformed signal to each of them.
    A selected cell whose cumulative csm strictly exceeds its threshold
    presents every copy it holds, mature iff semi <= mat, and is replaced by
    a naive cell. Returns the MCAV table and the presentation log.

    Random draw order, the contract that makes a run deterministic per seed:
    ``population_size`` initial thresholds, then per step
    ``rng.permutation(multiplier)`` (the copies' placement, which draws
    nothing at multiplier 1), ``rng.choice(population_size, cells_per_step,
    replace=False)``, and one ``uniform(threshold_low, threshold_high)`` per
    migrated cell in selection order.
    """
    if len(antigens) != len(signals):
        raise ConfigurationError(
            "antigen stream and signal stream must be index-aligned"
        )
    windowed = apply_time_window(np.asarray(signals, dtype=float), config.window)
    steps = (windowed @ np.asarray(config.weights, dtype=float)).tolist()
    size = config.population_size
    per_step = config.cells_per_step
    k = config.multiplier
    low, high = config.threshold_low, config.threshold_high
    # Round-robin dealing gives selected[j] ceil((k - j) / per_step) copies,
    # so only the first min(k, per_step) selected cells ever hold any.
    holders = min(k, per_step)

    rng = np.random.default_rng(seed)
    threshold = rng.uniform(low, high, size).tolist()
    csm = [0.0] * size
    semi = [0.0] * size
    mat = [0.0] * size
    lifetime = list(range(size))
    mature = [False] * size  # context of each lifetime, by lifetime id
    holder_lifetimes = np.empty((len(steps), holders), dtype=np.int64)

    for t, (d_csm, d_semi, d_mat) in enumerate(steps):
        if k > 1:
            rng.permutation(k)  # copies are identical; drawn for the stream
        selected = rng.choice(size, per_step, replace=False).tolist()
        holder_lifetimes[t] = [lifetime[i] for i in selected[:holders]]
        migrants = []
        for i in selected:
            total = csm[i] + d_csm
            csm[i] = total
            semi[i] += d_semi
            mat[i] += d_mat
            if total > threshold[i]:
                mature[lifetime[i]] = semi[i] <= mat[i]
                lifetime[i] = len(mature)
                mature.append(False)
                csm[i] = semi[i] = mat[i] = 0.0
                migrants.append(i)
        if migrants:
            fresh = rng.uniform(low, high, len(migrants)).tolist()
            for i, value in zip(migrants, fresh):
                threshold[i] = value

    # End-of-stream flush: surviving cells present what they hold.
    for i in range(size):
        mature[lifetime[i]] = semi[i] <= mat[i]

    types, codes = np.unique(np.asarray(antigens, dtype=str),
                             return_inverse=True)
    copies = (k - np.arange(holders) + per_step - 1) // per_step
    mature_copies = np.asarray(mature)[holder_lifetimes] @ copies
    totals = k * np.bincount(codes, minlength=len(types))
    matures = np.bincount(codes, weights=mature_copies, minlength=len(types))
    log = PresentationLog({
        antigen: (int(total), int(count))
        for antigen, total, count in zip(types.tolist(), totals, matures)
    })
    return compute_mcav(log), log


def write_mcav_table(
    mcav: dict[str, float],
    log: PresentationLog,
    threshold: float,
    path: str | Path,
) -> None:
    """Delimited export: antigen-type, total, mature, mcav, classification."""
    labels = classify_types(mcav, threshold)
    with open(path, "w") as handle:
        handle.write("antigen_type\ttotal_count\tmature_count\tmcav\tclass\n")
        for antigen in sorted(mcav):
            handle.write(
                f"{antigen}\t{log.total_count(antigen)}\t"
                f"{log.mature_count(antigen)}\t{mcav[antigen]:.6f}\t"
                f"{labels[antigen]}\n"
            )
