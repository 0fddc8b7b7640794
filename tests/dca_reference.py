"""Test-only oracle: the object-per-cell DCA engine that ``dca_ids.dca``
replaced.

The classes and functions below are the earlier engine's code, kept verbatim
so the array-backed engine can be checked against it tally for tally. Only the
imports changed, plus two things the package no longer has: the signal
transform is a local copy, and the weights are always ``DEFAULT_WEIGHTS``.
Nothing in the package imports this module.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from dca_ids.dca import DEFAULT_WEIGHTS, DcaConfig
from dca_ids.errors import ConfigurationError
from dca_ids.signals import apply_time_window


def transform_signals(
    triple: Sequence[float], weights: np.ndarray = DEFAULT_WEIGHTS
) -> tuple[float, float, float]:
    """Weighted sum of the input triple into (csm, semi, mat)."""
    out = np.asarray(triple, dtype=float) @ np.asarray(weights, dtype=float)
    return float(out[0]), float(out[1]), float(out[2])


@dataclass
class DendriticCell:
    """One cell: cumulative output accumulators, sampled antigens and the
    migration threshold ending its sampling life."""

    migration_threshold: float
    csm: float = 0.0
    semi: float = 0.0
    mat: float = 0.0
    antigens: list[str] = field(default_factory=list)

    def sample(
        self,
        antigens: Sequence[str],
        triple: Sequence[float],
        weights: np.ndarray = DEFAULT_WEIGHTS,
    ) -> None:
        """Store antigen copies and accumulate one transformed signal step."""
        self.antigens.extend(antigens)
        csm, semi, mat = transform_signals(triple, weights)
        self.accumulate(csm, semi, mat)

    def accumulate(self, csm: float, semi: float, mat: float) -> None:
        self.csm += csm
        self.semi += semi
        self.mat += mat

    def should_migrate(self) -> bool:
        """True once cumulative csm strictly exceeds the threshold."""
        return self.csm > self.migration_threshold

    def context(self) -> int:
        """1 (mature) when semi <= mat, else 0 (semi-mature)."""
        return 1 if self.semi <= self.mat else 0


class PresentationLog:
    """Per-antigen-type tallies of presentations and mature presentations."""

    def __init__(self):
        self._counts: dict[str, list[int]] = {}

    def log(self, antigens: Sequence[str], context: int) -> None:
        for antigen in antigens:
            entry = self._counts.setdefault(antigen, [0, 0])
            entry[0] += context
            entry[1] += 1

    def mature_count(self, antigen: str) -> int:
        return self._counts.get(antigen, [0, 0])[0]

    def total_count(self, antigen: str) -> int:
        return self._counts.get(antigen, [0, 0])[1]

    @property
    def total_presentations(self) -> int:
        return sum(entry[1] for entry in self._counts.values())

    def types(self) -> list[str]:
        return list(self._counts)


def compute_mcav(log: PresentationLog) -> dict[str, float]:
    """mature / total per presented type; never-presented types are absent."""
    return {
        antigen: log.mature_count(antigen) / log.total_count(antigen)
        for antigen in log.types()
    }


@dataclass
class TissueState:
    """Per-step staging area: antigen copies awaiting sampling plus the
    current signal triple. The store is drained every step."""

    antigen_store: list[str] = field(default_factory=list)
    current_signal: tuple[float, float, float] = (0.0, 0.0, 0.0)


def _new_threshold(rng: np.random.Generator, config: DcaConfig) -> float:
    return float(rng.uniform(config.threshold_low, config.threshold_high))


def init_population(rng: np.random.Generator, config: DcaConfig) -> list[DendriticCell]:
    return [
        DendriticCell(_new_threshold(rng, config))
        for _ in range(config.population_size)
    ]


def tissue_step(
    state: TissueState,
    population: list[DendriticCell],
    antigen_copies: Sequence[str],
    triple: Sequence[float],
    rng: np.random.Generator,
    log: PresentationLog,
    config: DcaConfig,
) -> None:
    """Process one stream position.

    Random draw order is fixed: antigen placement permutation, cell
    selection, then replacement thresholds for migrated cells in selection
    order.
    """
    state.current_signal = tuple(float(v) for v in triple)
    placement = rng.permutation(len(antigen_copies))
    state.antigen_store = [antigen_copies[i] for i in placement]

    selected = rng.choice(
        config.population_size, size=config.cells_per_step, replace=False
    )
    csm, semi, mat = transform_signals(triple, DEFAULT_WEIGHTS)

    # Deal the stored copies round-robin across the selected cells, then let
    # every selected cell sample the current signal.
    for position, antigen in enumerate(state.antigen_store):
        cell = population[selected[position % len(selected)]]
        cell.antigens.append(antigen)
    state.antigen_store = []

    for index in selected:
        population[index].accumulate(csm, semi, mat)

    for index in selected:
        cell = population[index]
        if cell.should_migrate():
            log.log(cell.antigens, cell.context())
            population[index] = DendriticCell(_new_threshold(rng, config))


def flush_population(
    population: list[DendriticCell], log: PresentationLog
) -> None:
    """Present every surviving cell's stored antigens at end of stream."""
    for cell in population:
        if cell.antigens:
            log.log(cell.antigens, cell.context())
            cell.antigens = []


def run_dca_with_log(
    antigens: Sequence[str],
    signals: np.ndarray,
    config: DcaConfig,
    seed: int,
) -> tuple[dict[str, float], PresentationLog]:
    """Like run_dca but also returns the presentation log (for audits)."""
    if len(antigens) != len(signals):
        raise ConfigurationError(
            "antigen stream and signal stream must be index-aligned"
        )
    windowed = apply_time_window(np.asarray(signals, dtype=float), config.window)
    rng = np.random.default_rng(seed)
    population = init_population(rng, config)
    state = TissueState()
    log = PresentationLog()
    for antigen, triple in zip(antigens, windowed):
        copies = [antigen] * config.multiplier
        tissue_step(state, population, copies, triple, rng, log, config)
    flush_population(population, log)
    return compute_mcav(log), log
