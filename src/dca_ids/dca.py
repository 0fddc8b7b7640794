"""The dendritic-cell population: signal transform, population run and MCAV
scoring.

A run streams (antigen, signal-triple) pairs through a fixed-size cell
population. Each step a random subset of cells samples the current signal and
receives the step's antigen copies, dealt round-robin; a cell whose cumulative
costimulation strictly exceeds its migration threshold presents its copies,
mature iff semi <= mat, and is replaced by a naive cell. After the stream,
surviving cells are flushed so no sampled antigen is lost. The per-type
fraction of mature presentations is the MCAV score.

A run has two halves. ``_dynamics`` owns the population and the random draw
contract, and never sees the antigens: a cell's state is only its three signal
sums and its threshold, held as flat lists by cell slot, and each sampling
life of a slot gets a lifetime id. It returns which lifetimes received each
step's copies and each lifetime's context. ``_tally`` owns the copy weights
and draws nothing: one integer ``bincount`` per holder column. The tests pin
two regimes that need no draw exactly: R1, where every cell migrates at its
first sample, and R2, where every cell samples every step under one threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

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

    # A population of 2**16 cells holds a few MB of per-cell lists.
    MAX_POPULATION: ClassVar[int] = 2**16
    # Caps the copy buffer a run allocates once and shuffles per step at 8 MB.
    MAX_MULTIPLIER: ClassVar[int] = 2**20

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
        if self.population_size > self.MAX_POPULATION:
            raise ConfigurationError(
                f"population_size must be <= {self.MAX_POPULATION}")
        if not 0 < self.cells_per_step <= self.population_size:
            raise ConfigurationError(
                "cells_per_step must be in [1, population_size]"
            )
        # rng.uniform(low, high) needs a finite span; NaN fails this too.
        if not 0 <= self.threshold_high - self.threshold_low < math.inf:
            raise ConfigurationError("migration thresholds must be finite, "
                                     "low <= high, with a finite span")
        if self.multiplier < 1:
            raise ConfigurationError("multiplier must be >= 1")
        if self.multiplier > self.MAX_MULTIPLIER:
            raise ConfigurationError(
                f"multiplier must be <= {self.MAX_MULTIPLIER}")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 0.0 <= self.mcav_threshold <= 1.0:
            raise ConfigurationError("mcav_threshold must lie in [0,1]")


def run_dca_with_log(antigens: Sequence[int], signals: np.ndarray,
                     config: DcaConfig,
                     seed: int) -> tuple[np.ndarray, PresentationLog]:
    """Full pass over a stream of antigen type codes and its index-aligned
    raw signal stream: the moving time window, then ``_dynamics`` and
    ``_tally``. Returns the MCAV of each type code up to the largest in the
    stream (mature / total presentations; NaN for a code absent from the
    stream) and the presentation log.
    """
    windowed = apply_time_window(signals, config.window)
    holders, contexts = _dynamics(windowed @ DEFAULT_WEIGHTS, config, seed)
    return _tally(np.asarray(antigens, dtype=np.int64), holders, contexts,
                  config.multiplier, config.cells_per_step)


def _dynamics(steps: np.ndarray, config: DcaConfig,
              seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The population over a stream's ``(n, 3)`` output signals (csm, semi,
    mat). Returns the lifetime ids that received each step's copies,
    ``(n, min(multiplier, cells_per_step))`` in selection order, and each
    lifetime's bool context.

    Random draw order, the contract that makes a run deterministic per seed:
    ``population_size`` initial thresholds, then per step one
    ``rng.shuffle`` of the ``multiplier`` copies (the copies' placement:
    the draws of ``rng.permutation(multiplier)``, none at multiplier 1),
    ``rng.choice(population_size, cells_per_step, replace=False)``, and one
    ``uniform(threshold_low, threshold_high)`` per migrated cell in
    selection order.
    """
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
    mature = bytearray(size)  # context of each lifetime, by lifetime id
    # Each migration starts one lifetime, so every id is below this bound.
    holder_lifetimes = np.empty(
        (len(steps), holders),
        dtype=np.min_scalar_type(size + len(steps) * per_step))
    order = np.arange(k)
    # One strided row per output signal, read a float at a time.
    rows = zip(*map(memoryview, steps.T))
    for t, (d_csm, d_semi, d_mat) in enumerate(rows):
        if k > 1:
            rng.shuffle(order)  # copies are identical; drawn for the stream
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
                mature.append(0)
                csm[i] = semi[i] = mat[i] = 0.0
                migrants.append(i)
        if migrants:
            fresh = rng.uniform(low, high, len(migrants)).tolist()
            for i, value in zip(migrants, fresh):
                threshold[i] = value

    # End-of-stream flush: surviving cells present what they hold.
    for i in range(size):
        mature[lifetime[i]] = semi[i] <= mat[i]

    return holder_lifetimes, np.frombuffer(mature, dtype=bool)


def _tally(codes: np.ndarray, holders: np.ndarray, contexts: np.ndarray,
           k: int, cells_per_step: int) -> tuple[np.ndarray, PresentationLog]:
    """MCAV and presentation log of a run whose step t carries type
    ``codes[t]`` to the lifetimes ``holders[t]`` of context ``contexts``.
    Holder column j holds ceil((k - j) / cells_per_step) of a step's k
    copies, so it adds that weight times one ``bincount``."""
    totals = k * np.bincount(codes)
    matures = np.zeros_like(totals)
    for j, column in enumerate(holders.T):
        weight = (k - j + cells_per_step - 1) // cells_per_step
        matures += weight * np.bincount(codes[contexts[column]],
                                        minlength=len(totals))
    mcav = np.divide(matures, totals, out=np.full(len(totals), np.nan),
                     where=totals > 0)
    return mcav, PresentationLog(totals, matures)
