"""Signal and antigen stream construction.

Turns parsed connection records into the two input streams the cell
population consumes: per-record (PAMP, danger, safe) triples scored in
[0, 100], and antigen type identifiers built from the protocol/service/flag
nominals. Also hosts the entropy / information-gain attribute ranking, the
moving-time-window smoothing and the antigen multiplier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import (
    ATTRIBUTE_NAMES,
    CONTINUOUS_ATTRIBUTES,
    NORMAL,
    ConnectionRecord,
    binarize_label,
)
from .errors import ConfigurationError

CATEGORIES = ("PAMP", "DS", "SS")

# Attributes a signal can score: every continuous one plus the nominals whose
# values are '0'/'1'.
SCORABLE_ATTRIBUTES = frozenset(CONTINUOUS_ATTRIBUTES) | {
    "land", "logged_in", "is_host_login", "is_guest_login",
}

# Default attribute grouping, pinned to KDD-99 schema names. Overridable via
# a range-configuration file.
DEFAULT_PAMP_ATTRIBUTES = (
    "serror_rate",
    "srv_serror_rate",
    "same_srv_rate",
    "dst_host_serror_rate",
    "dst_host_srv_serror_rate",
)
DEFAULT_DS_ATTRIBUTES = ("count", "srv_count")
DEFAULT_SS_ATTRIBUTES = ("logged_in", "srv_diff_host_rate", "dst_host_count")

DEFAULT_SIGNAL_ATTRIBUTES = (
    DEFAULT_PAMP_ATTRIBUTES + DEFAULT_DS_ATTRIBUTES + DEFAULT_SS_ATTRIBUTES
)

# Fallback bounds for the count-valued attributes when no training data is
# available to take percentiles from (raw KDD field caps).
_FALLBACK_COUNT_BOUNDS = {
    "count": (0.0, 511.0),
    "srv_count": (0.0, 511.0),
    "dst_host_count": (0.0, 255.0),
}
_COUNT_ATTRIBUTES = tuple(_FALLBACK_COUNT_BOUNDS)


@dataclass(frozen=True)
class AttributeRange:
    """Scoring window for one numeric attribute.

    ``direction`` '+' scores f(x) directly; '-' flips to 100 - f(x) for
    attributes where low raw values indicate the category's meaning.
    """

    name: str
    category: str
    lower: float
    upper: float
    direction: str = "+"

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ConfigurationError(
                f"{self.name}: unknown category {self.category!r}"
            )
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"{self.name}: lower bound {self.lower} must be below "
                f"upper bound {self.upper}"
            )
        if self.direction not in ("+", "-"):
            raise ConfigurationError(
                f"{self.name}: direction must be '+' or '-', "
                f"got {self.direction!r}"
            )


@dataclass(frozen=True)
class SignalConfig:
    """Full attribute-to-category mapping with scoring bounds."""

    ranges: tuple[AttributeRange, ...]

    def __post_init__(self):
        seen = set()
        for r in self.ranges:
            if r.name in seen:
                raise ConfigurationError(f"attribute {r.name} configured twice")
            seen.add(r.name)

    def by_category(self, category: str) -> tuple[AttributeRange, ...]:
        return tuple(r for r in self.ranges if r.category == category)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.ranges)


def default_signal_config(
    records: Sequence[ConnectionRecord] | None = None,
) -> SignalConfig:
    """Build the shipped ten-attribute configuration.

    Rate-valued attributes use [0, 1]; count-valued attributes use the 5th
    and 95th percentiles of ``records`` when given, else fixed field-cap
    fallbacks; logged_in (binary) uses [0, 1].
    """
    count_bounds = dict(_FALLBACK_COUNT_BOUNDS)
    if records:
        for name in _COUNT_ATTRIBUTES:
            values = np.array([r.numeric(name) for r in records])
            lo = float(np.percentile(values, 5))
            hi = float(np.percentile(values, 95))
            if hi > lo:
                count_bounds[name] = (lo, hi)

    ranges = []
    for category, names in (
        ("PAMP", DEFAULT_PAMP_ATTRIBUTES),
        ("DS", DEFAULT_DS_ATTRIBUTES),
        ("SS", DEFAULT_SS_ATTRIBUTES),
    ):
        for name in names:
            lower, upper = count_bounds.get(name, (0.0, 1.0))
            ranges.append(AttributeRange(name, category, lower, upper))
    return SignalConfig(tuple(ranges))


def load_signal_config(path: str | Path) -> SignalConfig:
    """Read a range configuration file.

    One line per attribute: name, category, lower, upper, direction(+/-).
    Fields are whitespace-separated; '#' starts a comment.
    """
    ranges = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ConfigurationError(
                    f"{path}:{line_number}: expected 5 fields "
                    f"(name category lower upper direction), got {len(parts)}"
                )
            name, category, lower, upper, direction = parts
            if name not in ATTRIBUTE_NAMES:
                raise ConfigurationError(
                    f"{path}:{line_number}: unknown attribute {name!r}"
                )
            if name not in SCORABLE_ATTRIBUTES:
                raise ConfigurationError(
                    f"{path}:{line_number}: {name} is a non-binary nominal "
                    "attribute and cannot be scored"
                )
            try:
                ranges.append(
                    AttributeRange(name, category, float(lower), float(upper),
                                   direction)
                )
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{line_number}: {exc}"
                ) from None
    if not ranges:
        raise ConfigurationError(f"{path}: no attribute ranges defined")
    return SignalConfig(tuple(ranges))


def write_signal_config(config: SignalConfig, path: str | Path) -> None:
    with open(path, "w") as handle:
        handle.write("# attribute category lower upper direction\n")
        for r in config.ranges:
            handle.write(
                f"{r.name} {r.category} {r.lower:.10g} {r.upper:.10g} "
                f"{r.direction}\n"
            )


# ---------------------------------------------------------------------------
# Entropy and information gain
# ---------------------------------------------------------------------------

def entropy2(p1: float, p2: float) -> float:
    """Binary entropy in bits, with the 0 * log2(0) = 0 convention."""
    if p1 < 0 or p2 < 0 or abs(p1 + p2 - 1.0) > 1e-9:
        raise ValueError(
            f"proportions must be non-negative and sum to 1, got {p1}, {p2}"
        )
    total = 0.0
    for p in (p1, p2):
        if p > 0:
            total -= p * math.log2(p)
    return total


def _label_entropy(labels: Sequence[str]) -> float:
    n = len(labels)
    positives = sum(1 for label in labels if label == NORMAL)
    return entropy2(positives / n, (n - positives) / n)


def _discretize(values: Sequence, bins: int) -> list:
    """Equal-width binning for numeric attribute values; passthrough otherwise."""
    if not all(isinstance(v, (int, float)) for v in values):
        return list(values)
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0] * len(values)
    width = (hi - lo) / bins
    return [min(int((v - lo) / width), bins - 1) for v in values]


def info_gain(values: Sequence, labels: Sequence[str], bins: int = 10) -> float:
    """Entropy reduction of the binary label distribution from conditioning
    on an attribute. Numeric values are first discretized into ``bins``
    equal-width bins over their observed range."""
    if not values or len(values) != len(labels):
        raise ValueError("need equally sized, non-empty values and labels")
    keys = _discretize(values, bins)
    total = _label_entropy(labels)
    n = len(labels)
    subsets: dict = {}
    for key, label in zip(keys, labels):
        subsets.setdefault(key, []).append(label)
    weighted = sum(
        len(subset) / n * _label_entropy(subset) for subset in subsets.values()
    )
    gain = total - weighted
    return max(gain, 0.0)


def attribute_gains(
    records: Sequence[ConnectionRecord], bins: int = 10
) -> list[tuple[str, float]]:
    """Information gain of every attribute, sorted descending by gain."""
    labels = [binarize_label(r.label) for r in records]
    gains = []
    for name in ATTRIBUTE_NAMES:
        values = [r.attribute(name) for r in records]
        gains.append((name, info_gain(values, labels, bins)))
    gains.sort(key=lambda pair: (-pair[1], pair[0]))
    return gains


def select_attributes(
    records: Sequence[ConnectionRecord], cutoff: float
) -> list[str]:
    """Attributes whose information gain reaches the cutoff, best first."""
    return [name for name, gain in attribute_gains(records) if gain >= cutoff]


# ---------------------------------------------------------------------------
# Signal scoring
# ---------------------------------------------------------------------------

def normalize_signal(x: float, lower: float, upper: float) -> float:
    """Piecewise score in [0, 100]: 0 below the window, 100 above it, and
    linear (continuous at both bounds) inside it."""
    if not lower < upper:
        raise ConfigurationError(
            f"lower bound {lower} must be below upper bound {upper}"
        )
    if x < lower:
        return 0.0
    if x > upper:
        return 100.0
    return (x - lower) / (upper - lower) * 100.0


def _score(record: ConnectionRecord, r: AttributeRange) -> float:
    score = normalize_signal(record.numeric(r.name), r.lower, r.upper)
    return 100.0 - score if r.direction == "-" else score


def build_signal_triple(
    record: ConnectionRecord, config: SignalConfig
) -> tuple[float, float, float]:
    """Category scores as the arithmetic mean of the member attribute scores."""
    triple = []
    for category in CATEGORIES:
        ranges = config.by_category(category)
        if not ranges:
            raise ConfigurationError(f"no attributes configured for {category}")
        triple.append(sum(_score(record, r) for r in ranges) / len(ranges))
    return tuple(triple)


def signal_stream(
    records: Iterable[ConnectionRecord], config: SignalConfig
) -> np.ndarray:
    """Stream-order (n, 3) array of (PAMP, danger, safe) scores."""
    return np.array(
        [build_signal_triple(record, config) for record in records], dtype=float
    ).reshape(-1, 3)


def apply_time_window(stream: np.ndarray, w: int) -> np.ndarray:
    """Forward moving mean over w consecutive instances per category.

    Windows shrink near the end of the stream; w=1 returns the stream
    unchanged.
    """
    if w < 1:
        raise ConfigurationError(f"window size must be >= 1, got {w}")
    stream = np.asarray(stream, dtype=float)
    if w == 1 or len(stream) == 0:
        return stream.copy()
    n = len(stream)
    padded = np.vstack([np.zeros((1, stream.shape[1])), np.cumsum(stream, axis=0)])
    ends = np.minimum(np.arange(n) + w, n)
    starts = np.arange(n)
    sums = padded[ends] - padded[starts]
    return sums / (ends - starts)[:, None]


# ---------------------------------------------------------------------------
# Antigens
# ---------------------------------------------------------------------------

def derive_antigen_type(record: ConnectionRecord) -> str:
    """Antigen identifier: order-preserving join of protocol, service, flag."""
    return f"{record.protocol}:{record.service}:{record.flag}"


def antigen_stream(records: Iterable[ConnectionRecord]) -> list[str]:
    return [derive_antigen_type(record) for record in records]


def multiply_antigen(antigen: str, k: int) -> list[str]:
    """Exactly k identical copies of the antigen identifier."""
    if k < 1:
        raise ConfigurationError(f"antigen multiplier must be >= 1, got {k}")
    return [antigen] * k


def write_signal_stream(stream: np.ndarray, path: str | Path) -> None:
    """Delimited export: index, pamp, danger, safe."""
    with open(path, "w") as handle:
        for index, (pamp, danger, safe) in enumerate(stream):
            handle.write(f"{index}\t{pamp:.6f}\t{danger:.6f}\t{safe:.6f}\n")


def write_antigen_stream(antigens: Sequence[str], path: str | Path) -> None:
    """Delimited export: index, antigen-type."""
    with open(path, "w") as handle:
        for index, antigen in enumerate(antigens):
            handle.write(f"{index}\t{antigen}\n")
