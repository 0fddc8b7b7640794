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
    tp_rate = tp / (tp + fn) if tp + fn > 0 else math.nan
    fn_rate = fn / (tp + fn) if tp + fn > 0 else math.nan
    tn_rate = tn / (tn + fp) if tn + fp > 0 else math.nan
    fp_rate = fp / (tn + fp) if tn + fp > 0 else math.nan
    return ConfusionRates(tp_rate, tn_rate, fp_rate, fn_rate)


def average_rates(rates: Sequence[ConfusionRates]) -> ConfusionRates:
    """Arithmetic mean per rate; NaN markers propagate."""
    if not rates:
        raise ConfigurationError("cannot average an empty result sequence")
    # cumsum adds in sequence, as the recorded means were (np.sum is pairwise)
    sums = np.cumsum([r.as_tuple() for r in rates], axis=0)[-1]
    return ConfusionRates(*(sums / len(rates)).tolist())


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------

# Significance level of the Mann-Whitney comparison against the base run.
ALPHA = 0.05


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
    x: Sequence[float], y: Sequence[float],
) -> MannWhitneyResult:
    """Two-sided Mann-Whitney rank test.

    An empty sample is a configuration error. NaN values (rates with no
    defining instances) are dropped from each sample before ranking; if
    either sample is left empty, U and p are NaN and the test does not
    reject. Ties receive midranks. The p value is exact (full enumeration
    of the U distribution) when the smaller sample has at most 10 elements
    and the pooled data is tie-free; otherwise the normal approximation with
    tie and continuity corrections is used.
    Rejects iff p < ALPHA.
    """
    if len(x) == 0 or len(y) == 0:
        raise ConfigurationError("both samples must be non-empty")
    x = [v for v in x if not math.isnan(v)]
    y = [v for v in y if not math.isnan(v)]
    if not x or not y:
        return MannWhitneyResult(u_statistic=math.nan, p_value=math.nan,
                                 reject=False)
    n_x, n_y = len(x), len(y)
    n = n_x + n_y
    # A tie block of t values ending at 1-based rank e has midrank
    # e - (t - 1) / 2.
    _, block, counts = np.unique(x + y, return_inverse=True,
                                 return_counts=True)
    ranks = np.cumsum(counts)[block] - (counts[block] - 1) / 2
    u_x = float(ranks[:n_x].sum()) - n_x * (n_x + 1) / 2
    u_y = n_x * n_y - u_x

    if len(counts) == n and min(n_x, n_y) <= 10:
        distribution = _exact_u_distribution(n_x, n_y)
        total = sum(distribution)
        u_min = int(round(min(u_x, u_y)))
        tail = sum(distribution[: u_min + 1])
        p = min(1.0, 2.0 * tail / total)
    else:
        mean = n_x * n_y / 2.0
        tie_term = int((counts ** 3 - counts).sum())
        variance = (
            n_x * n_y / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
        )
        if variance == 0:
            p = 1.0
        else:
            z = (abs(max(u_x, u_y) - mean) - 0.5) / math.sqrt(variance)
            p = min(1.0, 2.0 * (1.0 - _norm_cdf(z)))
    return MannWhitneyResult(u_statistic=u_x, p_value=p, reject=p < ALPHA)


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
