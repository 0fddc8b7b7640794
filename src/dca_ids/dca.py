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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class PresentationLog:
    """Per-type tallies of one run, indexed by antigen type code: total and
    mature presentations."""

    totals: np.ndarray
    matures: np.ndarray

    @property
    def total_presentations(self) -> int:
        return int(self.totals.sum())


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

    def __post_init__(self):
        if self.population_size < 1:
            raise ConfigurationError("population_size must be >= 1")
        if not 0 < self.cells_per_step <= self.population_size:
            raise ConfigurationError(
                "cells_per_step must be in [1, population_size]"
            )
        if not (math.isfinite(self.threshold_low)
                and math.isfinite(self.threshold_high)):
            raise ConfigurationError("migration thresholds must be finite")
        if self.threshold_low > self.threshold_high:
            raise ConfigurationError("threshold range is inverted")
        if self.multiplier < 1:
            raise ConfigurationError("multiplier must be >= 1")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 0.0 <= self.mcav_threshold <= 1.0:
            raise ConfigurationError("mcav_threshold must lie in [0,1]")


def run_dca_with_log(
    antigens: Sequence[int],
    signals: np.ndarray,
    config: DcaConfig,
    seed: int,
) -> tuple[np.ndarray, PresentationLog]:
    """Full pass over a stream of antigen type codes and its raw signal
    stream.

    Applies the moving time window, then per record deals ``multiplier``
    copies of its antigen round-robin over ``cells_per_step`` randomly
    selected cells and adds the record's transformed signal to each of them.
    A selected cell whose cumulative csm strictly exceeds its threshold
    presents every copy it holds, mature iff semi <= mat, and is replaced by
    a naive cell. Returns the MCAV of each type code up to the largest in
    the stream (mature / total presentations; NaN for a code absent from the
    stream) and the presentation log.

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
    steps = (windowed @ DEFAULT_WEIGHTS).tolist()
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

    codes = np.asarray(antigens, dtype=np.int64)
    copies = (k - np.arange(holders) + per_step - 1) // per_step
    mature_copies = np.asarray(mature)[holder_lifetimes] @ copies
    totals = k * np.bincount(codes)
    matures = np.bincount(codes, weights=mature_copies,
                          minlength=len(totals)).astype(np.int64)
    mcav = np.divide(matures, totals, out=np.full(len(totals), np.nan),
                     where=totals > 0)
    return mcav, PresentationLog(totals, matures)

