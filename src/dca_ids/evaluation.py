"""Confusion/ROC rates, run averaging and the Mann-Whitney test.

Rates with no defining instances (e.g. a TP rate when the truth contains no
positives) are reported as NaN markers and propagate as NaN through
averaging rather than being silently coerced to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class ConfusionRates:
    tp_rate: float
    tn_rate: float
    fp_rate: float
    fn_rate: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.tp_rate, self.tn_rate, self.fp_rate, self.fn_rate)


@dataclass(frozen=True)
class MannWhitneyResult:
    u_statistic: float
    p_value: float
    reject: bool


def _rates_from_cells(tp: int, tn: int, fp: int, fn: int) -> ConfusionRates:
    tp_rate = tp / (tp + fn) if tp + fn > 0 else math.nan
    fn_rate = fn / (tp + fn) if tp + fn > 0 else math.nan
    tn_rate = tn / (tn + fp) if tn + fp > 0 else math.nan
    fp_rate = fp / (tn + fp) if tn + fp > 0 else math.nan
    return ConfusionRates(tp_rate, tn_rate, fp_rate, fn_rate)


def confusion_from_instances(
    predicted: Sequence[bool],
    actual: Sequence[bool],
    weights: Sequence[int] | None = None,
) -> ConfusionRates:
    """Confusion rates of bool predictions against bool truth, True meaning
    anomalous (the positive class). With ``weights``, entry i stands for
    ``weights[i]`` instances, as an antigen type stands for its records."""
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    if predicted.shape != actual.shape or (
            weights is not None and np.shape(weights) != actual.shape):
        raise ConfigurationError("prediction/truth length mismatch")
    cells = np.bincount(2 * actual + predicted, weights, minlength=4)
    tn, fp, fn, tp = (int(count) for count in cells)
    return _rates_from_cells(tp, tn, fp, fn)


def average_rates(rates: Sequence[ConfusionRates]) -> ConfusionRates:
    """Arithmetic mean per rate; NaN markers propagate."""
    if not rates:
        raise ConfigurationError("cannot average an empty result sequence")
    n = len(rates)
    sums = [0.0, 0.0, 0.0, 0.0]
    for r in rates:
        for i, v in enumerate(r.as_tuple()):
            sums[i] += v
    return ConfusionRates(*(s / n for s in sums))


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------

def _midranks(pooled: Sequence[float]) -> list[float]:
    order = sorted(range(len(pooled)), key=pooled.__getitem__)
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        midrank = (i + j) / 2 + 1
        for position in range(i, j + 1):
            ranks[order[position]] = midrank
        i = j + 1
    return ranks


def _exact_u_distribution(n: int, m: int) -> list[int]:
    """Counts of subsets of size n from ranks 1..n+m by U statistic value.

    Dynamic programming over rank sums; index u runs over [0, n*m].
    """
    max_sum = n * (n + m) - n * (n - 1) // 2
    ways = [[0] * (max_sum + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for rank in range(1, n + m + 1):
        for size in range(min(rank, n), 0, -1):
            row = ways[size]
            prev = ways[size - 1]
            for total in range(max_sum, rank - 1, -1):
                row[total] += prev[total - rank]
    offset = n * (n + 1) // 2
    return [ways[n][u + offset] for u in range(n * m + 1)]


def mann_whitney_two_sided(
    x: Sequence[float], y: Sequence[float], alpha: float = 0.05,
) -> MannWhitneyResult:
    """Two-sided Mann-Whitney rank test.

    An empty sample is a configuration error. NaN values (rates with no
    defining instances) are dropped from each sample before ranking; if
    either sample is left empty, U and p are NaN and the test does not
    reject. Ties receive midranks. The p value is exact (full enumeration
    of the U distribution) when the smaller sample has at most 10 elements
    and the pooled data is tie-free; otherwise the normal approximation with
    tie and continuity corrections is used.
    Rejects iff p < alpha.
    """
    if len(x) == 0 or len(y) == 0:
        raise ConfigurationError("both samples must be non-empty")
    x = [v for v in x if not math.isnan(v)]
    y = [v for v in y if not math.isnan(v)]
    if not x or not y:
        return MannWhitneyResult(u_statistic=math.nan, p_value=math.nan,
                                 reject=False)
    n_x, n_y = len(x), len(y)
    pooled = list(x) + list(y)
    ranks = _midranks(pooled)
    rank_sum_x = sum(ranks[:n_x])
    u_x = rank_sum_x - n_x * (n_x + 1) / 2
    u_y = n_x * n_y - u_x

    if len(set(pooled)) == len(pooled) and min(n_x, n_y) <= 10:
        distribution = _exact_u_distribution(n_x, n_y)
        total = sum(distribution)
        u_min = int(round(min(u_x, u_y)))
        tail = sum(distribution[: u_min + 1])
        p = min(1.0, 2.0 * tail / total)
    else:
        mean = n_x * n_y / 2.0
        tie_term = 0.0
        counts: dict[float, int] = {}
        for value in pooled:
            counts[value] = counts.get(value, 0) + 1
        for t in counts.values():
            tie_term += t ** 3 - t
        n = n_x + n_y
        variance = (
            n_x * n_y / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
        )
        if variance == 0:
            p = 1.0
        else:
            z = (abs(max(u_x, u_y) - mean) - 0.5) / math.sqrt(variance)
            p = min(1.0, 2.0 * (1.0 - _norm_cdf(z)))
    return MannWhitneyResult(u_statistic=u_x, p_value=p, reject=p < alpha)


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
