"""Signal and antigen stream construction.

Turns a parsed connection table into the two input streams the cell
population consumes: per-record (PAMP, danger, safe) triples scored in
[0, 100], and integer antigen type codes for the protocol/service/flag
nominals. Also hosts the entropy / information-gain attribute ranking and the
moving-time-window smoothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (
    ATTRIBUTE_NAMES,
    BINARY_ATTRIBUTES,
    CODED_ATTRIBUTES,
    CONTINUOUS_ATTRIBUTES,
    NOMINAL_ATTRIBUTES,
    KddTable,
    attribute_matrix,
)
from .errors import ConfigurationError

CATEGORIES = ("PAMP", "DS", "SS")

# Attributes a signal can score: every continuous one plus the nominals whose
# values are '0'/'1'.
SCORABLE_ATTRIBUTES = frozenset(CONTINUOUS_ATTRIBUTES) | set(BINARY_ATTRIBUTES)

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

# Bounds of the count-valued attributes (raw KDD field caps) for a column
# whose 5th and 95th percentiles coincide, so they bound no range.
_FALLBACK_COUNT_BOUNDS = {
    "count": (0.0, 511.0),
    "srv_count": (0.0, 511.0),
    "dst_host_count": (0.0, 255.0),
}
_COUNT_ATTRIBUTES = tuple(_FALLBACK_COUNT_BOUNDS)

# Equal-width bins a continuous attribute is split into for its information
# gain.
GAIN_BINS = 10


@dataclass(frozen=True)
class AttributeRange:
    """Scoring window for one scorable attribute (``SCORABLE_ATTRIBUTES``).

    ``direction`` '+' scores f(x) directly; '-' flips to 100 - f(x) for
    attributes where low raw values indicate the category's meaning. It
    checks every rule of one range itself, so a hand-built configuration is
    checked as a range file is.
    """

    name: str
    category: str
    lower: float
    upper: float
    direction: str = "+"

    def __post_init__(self):
        if self.name not in SCORABLE_ATTRIBUTES:
            if self.name in NOMINAL_ATTRIBUTES:
                raise ConfigurationError(
                    f"{self.name} is a non-binary nominal attribute and "
                    "cannot be scored")
            raise ConfigurationError(f"unknown attribute {self.name!r}")
        if self.category not in CATEGORIES:
            raise ConfigurationError(
                f"{self.name}: unknown category {self.category!r}"
            )
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"{self.name}: lower bound {self.lower} must be below "
                f"upper bound {self.upper}"
            )
        # Also rules out infinite bounds; a span of inf would score all 0.
        if not math.isfinite(self.upper - self.lower):
            raise ConfigurationError(
                f"{self.name}: bounds must be finite and span a finite range")
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

    def check_categories(self) -> None:
        """Require an attribute in every category, as a signal stream does."""
        for category in CATEGORIES:
            if not self.by_category(category):
                raise ConfigurationError(
                    f"no attributes configured for {category}")


def default_signal_config(table: KddTable) -> SignalConfig:
    """Build the shipped ten-attribute configuration for ``table``.

    Rate-valued attributes use [0, 1]; count-valued attributes use the 5th
    and 95th percentiles of ``table``, or fixed field caps where those
    coincide; logged_in (binary) uses [0, 1].
    """
    count_bounds = dict(_FALLBACK_COUNT_BOUNDS)
    for name in _COUNT_ATTRIBUTES:
        values = table.column(name)
        lo, hi = np.percentile(values, [5, 95]).tolist()
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
    Fields are whitespace-separated; '#' starts a comment. The file is UTF-8.
    Each error names its line; a repeated attribute, its second one.
    """
    config = SignalConfig(())
    # bytes.splitlines breaks lines where text-mode reading would
    for number, raw in enumerate(Path(path).read_bytes().splitlines(),
                                 start=1):
        try:
            parts = raw.decode("utf-8").split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) != 5:
                raise ConfigurationError(
                    "expected 5 fields (name category lower upper "
                    f"direction), got {len(parts)}")
            name, category, lower, upper, direction = parts
            # Rebuilt per line, so SignalConfig's duplicate rule fails on
            # the repeating line; a file holds at most 41 distinct names.
            config = SignalConfig(config.ranges + (AttributeRange(
                name, category, float(lower), float(upper), direction),))
        except (ConfigurationError, ValueError) as exc:
            reason = ("not UTF-8 text" if isinstance(exc, UnicodeDecodeError)
                      else exc)
            raise ConfigurationError(
                f"{path}:{number}: {reason}") from None
    if not config.ranges:
        raise ConfigurationError(f"{path}: no attribute ranges defined")
    return config


# ---------------------------------------------------------------------------
# Entropy and information gain
# ---------------------------------------------------------------------------

def entropy2(p1: float, p2: float) -> float:
    """Binary entropy in bits of the proportions p1 and p2 = 1 - p1, with
    the 0 * log2(0) = 0 convention."""
    total = 0.0
    for p in (p1, p2):
        if p > 0:
            total -= p * math.log2(p)
    return total


def _binned(values: np.ndarray) -> np.ndarray:
    """Equal-width bin index of each value over the observed range."""
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros(len(values), dtype=np.int64)
    width = (hi - lo) / GAIN_BINS
    return np.minimum(((values - lo) / width).astype(np.int64), GAIN_BINS - 1)


def _gain(keys: np.ndarray, normal: np.ndarray) -> float:
    """Information gain of the partition ``keys`` about the ``normal`` mask.

    Subset entropies are summed in order of each key's first appearance.
    """
    n = len(keys)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sizes = np.bincount(inverse)
    normals = np.bincount(inverse[normal], minlength=len(sizes))
    order = np.argsort(first)
    weighted = sum(
        size / n * entropy2(count / size, (size - count) / size)
        for size, count in zip(sizes[order].tolist(), normals[order].tolist())
    )
    positives = int(normal.sum())
    gain = entropy2(positives / n, (n - positives) / n) - weighted
    return max(gain, 0.0)


def attribute_gains(table: KddTable) -> list[tuple[str, float]]:
    """Information gain of every attribute, sorted descending by gain.

    Nominal attributes partition by value, continuous ones by ``GAIN_BINS``
    equal-width bins over the observed range."""
    if not table:
        raise ConfigurationError("no records to rank attributes on")
    normal = ~table.anomalous
    gains = []
    for name in ATTRIBUTE_NAMES:
        column = table.column(name)
        keys = column if name in NOMINAL_ATTRIBUTES else _binned(column)
        gains.append((name, _gain(keys, normal)))
    gains.sort(key=lambda pair: (-pair[1], pair[0]))
    return gains


# ---------------------------------------------------------------------------
# Signal scoring
# ---------------------------------------------------------------------------

def normalize_signal(x, lower: float, upper: float):
    """Piecewise score in [0, 100] of a value or an array of values: 0 below
    the window, 100 above it, and linear (continuous at both bounds) inside
    it."""
    # Clipping first gives exactly 0 below the window and exactly 100 above.
    return (np.clip(x, lower, upper) - lower) / (upper - lower) * 100.0


def signal_stream(table: KddTable, config: SignalConfig) -> np.ndarray:
    """Stream-order (n, 3) array of (PAMP, danger, safe) scores.

    Each category score is the arithmetic mean of its member attributes'
    ``normalize_signal`` scores ('-' direction: 100 minus the score), summed
    in configuration order.
    """
    stream = np.empty((len(table), len(CATEGORIES)))
    for j, category in enumerate(CATEGORIES):
        ranges = config.by_category(category)
        total = np.zeros(len(table))
        for r in ranges:
            score = normalize_signal(table.column(r.name), r.lower, r.upper)
            total += 100.0 - score if r.direction == "-" else score
        stream[:, j] = total / len(ranges)
    return stream


def apply_time_window(stream: np.ndarray, w: int) -> np.ndarray:
    """Forward moving mean over w consecutive instances per category.

    Windows shrink near the end of the stream, so any w of at least the
    stream length means the rest of the stream; w=1 returns the stream
    itself, not a copy.
    """
    stream = np.asarray(stream, dtype=float)
    n = len(stream)
    w = min(w, n)
    if w <= 1:
        return stream
    padded = np.vstack([np.zeros((1, stream.shape[1])), np.cumsum(stream, axis=0)])
    starts = np.arange(n)
    ends = np.minimum(starts + w, n)
    return (padded[ends] - padded[starts]) / (ends - starts)[:, None]


# ---------------------------------------------------------------------------
# Antigens
# ---------------------------------------------------------------------------

def antigen_stream(table: KddTable) -> np.ndarray:
    """Per-record antigen type code: the rank of the record's (protocol,
    service, flag) triple among the table's distinct triples, so the codes
    run from 0 to the number of types less one. ``antigen_type_names``
    names them."""
    sizes = tuple(len(table.vocabularies[name]) for name in CODED_ATTRIBUTES)
    triples = attribute_matrix(table, CODED_ATTRIBUTES).astype(np.int64)
    keys = np.ravel_multi_index(triples.T, sizes)
    return np.unique(keys, return_inverse=True)[1]


def antigen_type_names(table: KddTable, codes: np.ndarray) -> list[str]:
    """Name of each type code of ``codes``, the ``antigen_stream`` of
    ``table``: the protocol, service and flag values of one of its records,
    joined with ':'."""
    # Which write wins at a repeated code is unspecified, and need not be
    # known: every record of a code holds the same triple.
    index = np.empty(codes.max(initial=-1) + 1, np.intp)
    index[codes] = np.arange(len(codes))
    values = [map(table.vocabularies[name].__getitem__,
                  table.column(name)[index].astype(np.intp).tolist())
              for name in CODED_ATTRIBUTES]
    return list(map(":".join, zip(*values)))
