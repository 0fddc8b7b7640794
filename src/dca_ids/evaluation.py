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
    anomalous (the positive class), of one length. With ``weights``, of the
    same length, entry i stands for ``weights[i]`` instances, as an antigen
    type stands for its records."""
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    cells = np.bincount(2 * actual + predicted, weights, minlength=4)
    tn, fp, fn, tp = (int(count) for count in cells)
    tp_rate = tp / (tp + fn) if tp + fn > 0 else math.nan
    fn_rate = fn / (tp + fn) if tp + fn > 0 else math.nan
    tn_rate = tn / (tn + fp) if tn + fp > 0 else math.nan
    fp_rate = fp / (tn + fp) if tn + fp > 0 else math.nan
    return ConfusionRates(tp_rate, tn_rate, fp_rate, fn_rate)


def average_rates(rates: Sequence[ConfusionRates]) -> ConfusionRates:
    """Arithmetic mean per rate; NaN markers propagate."""
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

    Index u runs over [0, n*m]. The counts are the coefficients of the
    Gaussian binomial prod_{i=1..n} (1 - q^(m+i)) / (1 - q^i) (Mann &
    Whitney 1947); every factor starts with 1, so cutting each product and
    quotient at degree n*m leaves them exact.
    """
    top = n * m
    counts = [1] + [0] * top
    for i in range(1, n + 1):
        for u in range(top, m + i - 1, -1):  # times (1 - q^(m+i))
            counts[u] -= counts[u - m - i]
        for u in range(i, top + 1):  # divided by (1 - q^i)
            counts[u] += counts[u - i]
    return counts


def mann_whitney_two_sided(
    x: Sequence[float], y: Sequence[float],
) -> MannWhitneyResult:
    """Two-sided Mann-Whitney rank test.

    NaN values (rates with no defining instances) are dropped from each
    sample before ranking; if either sample is left empty, U and p are NaN
    and the test does not reject. Ties receive midranks. The p value is
    exact (full enumeration of the U distribution) when the smaller sample
    has at most 10 elements and the pooled data is tie-free; otherwise the
    normal approximation with tie and continuity corrections is used.
    Rejects iff p < ALPHA.
    """
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
        u_min = int(round(min(u_x, u_y)))
        # The counts are symmetric in n and m; the recurrence loops n times.
        tail = sum(_exact_u_distribution(*sorted((n_x, n_y)))[: u_min + 1])
        p = min(1.0, 2.0 * tail / math.comb(n, n_x))
    else:
        mean = n_x * n_y / 2.0
        # Python integers: int64 t**3 wraps once a tie block reaches 2**21
        tie_term = sum(t**3 - t for t in counts.tolist())
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
