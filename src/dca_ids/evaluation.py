"""Ground truth, confusion/ROC rates, run averaging and the Mann-Whitney test.

Rates with no defining instances (e.g. a TP rate when the truth contains no
positives) are reported as NaN markers and propagate as NaN through
averaging rather than being silently coerced to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ANOMALOUS
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
class RunResult:
    configuration: str
    seed: int
    rates: ConfusionRates


@dataclass(frozen=True)
class MannWhitneyResult:
    u_statistic: float
    p_value: float
    reject: bool


def perfect_mcav(
    antigens: Sequence[str], labels: Sequence[str]
) -> dict[str, float]:
    """Label-derived ground-truth MCAV: per type, the fraction of its
    instances labeled anomalous."""
    totals: dict[str, list[int]] = {}
    for antigen, label in zip(antigens, labels):
        entry = totals.setdefault(antigen, [0, 0])
        entry[0] += 1 if label == ANOMALOUS else 0
        entry[1] += 1
    return {antigen: anom / total for antigen, (anom, total) in totals.items()}


def type_instance_counts(antigens: Sequence[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for antigen in antigens:
        counts[antigen] = counts.get(antigen, 0) + 1
    return counts


def _rates_from_cells(tp: float, tn: float, fp: float, fn: float) -> ConfusionRates:
    tp_rate = tp / (tp + fn) if tp + fn > 0 else math.nan
    fn_rate = fn / (tp + fn) if tp + fn > 0 else math.nan
    tn_rate = tn / (tn + fp) if tn + fp > 0 else math.nan
    fp_rate = fp / (tn + fp) if tn + fp > 0 else math.nan
    return ConfusionRates(tp_rate, tn_rate, fp_rate, fn_rate)


def confusion_from_types(
    predicted: dict[str, str],
    truth: dict[str, str],
    weights: dict[str, int],
    per_type: bool = False,
) -> ConfusionRates:
    """Confusion rates over antigen types.

    Each type contributes its instance count (or one vote with
    ``per_type=True``) to exactly one confusion cell.
    """
    if set(predicted) != set(truth):
        raise ConfigurationError(
            "predicted and truth tables must cover the same antigen types"
        )
    tp = tn = fp = fn = 0
    for antigen, truth_label in truth.items():
        weight = 1 if per_type else weights[antigen]
        anomalous_predicted = predicted[antigen] == ANOMALOUS
        if truth_label == ANOMALOUS:
            if anomalous_predicted:
                tp += weight
            else:
                fn += weight
        else:
            if anomalous_predicted:
                fp += weight
            else:
                tn += weight
    return _rates_from_cells(tp, tn, fp, fn)


def confusion_from_instances(
    predicted: Sequence[str], truth: Sequence[str]
) -> ConfusionRates:
    """Instance-level confusion rates (anomalous = positive)."""
    if len(predicted) != len(truth):
        raise ConfigurationError("prediction/truth length mismatch")
    flagged = np.asarray(predicted, dtype=str) == ANOMALOUS
    positive = np.asarray(truth, dtype=str) == ANOMALOUS
    tp = int(np.count_nonzero(flagged & positive))
    fn = int(np.count_nonzero(~flagged & positive))
    fp = int(np.count_nonzero(flagged & ~positive))
    tn = int(np.count_nonzero(~flagged & ~positive))
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


def average_runs(results: Sequence[RunResult]) -> ConfusionRates:
    """Mean rates across the runs of one configuration."""
    if not results:
        raise ConfigurationError("cannot average an empty result sequence")
    configurations = {r.configuration for r in results}
    if len(configurations) != 1:
        raise ConfigurationError(
            f"results span multiple configurations: {sorted(configurations)}"
        )
    return average_rates([r.rates for r in results])


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
    method: str = "auto",
) -> MannWhitneyResult:
    """Two-sided Mann-Whitney rank test.

    An empty sample is a configuration error. NaN values (rates with no
    defining instances) are dropped from each sample before ranking; if
    either sample is left empty, U and p are NaN and the test does not
    reject. Ties receive midranks. With ``method="auto"`` the p value is
    exact (full enumeration of the U distribution) when the smaller sample
    has at most 10 elements and the pooled data is tie-free; otherwise the
    normal approximation with tie and continuity corrections is used.
    Rejects iff p < alpha.
    """
    if len(x) == 0 or len(y) == 0:
        raise ConfigurationError("both samples must be non-empty")
    if method not in ("auto", "exact", "approx"):
        raise ConfigurationError(f"unknown method {method!r}")
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

    has_ties = len(set(pooled)) != len(pooled)
    use_exact = (
        method == "exact"
        or (method == "auto" and not has_ties and min(n_x, n_y) <= 10)
    )
    if use_exact:
        if has_ties:
            raise ConfigurationError("exact p values require tie-free samples")
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
