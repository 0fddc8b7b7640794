"""Test-only oracle: the object-per-record data path that the columnar
``KddTable`` replaced.

The classes and functions below are the earlier record path's code, kept
verbatim so the table path can be checked against it value for value. Only
the imports changed. Nothing in the package imports this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from dca_ids.dataset import (
    ATTRIBUTE_NAMES,
    NOMINAL_ATTRIBUTES,
    NORMAL,
    _INDEX,
    binarize_label,
)
from dca_ids.errors import ConfigurationError, ParseError
from dca_ids.signals import (
    _COUNT_ATTRIBUTES,
    _FALLBACK_COUNT_BOUNDS,
    CATEGORIES,
    DEFAULT_DS_ATTRIBUTES,
    DEFAULT_PAMP_ATTRIBUTES,
    DEFAULT_SS_ATTRIBUTES,
    AttributeRange,
    SignalConfig,
    entropy2,
    normalize_signal,
)


@dataclass(frozen=True)
class ConnectionRecord:
    """One parsed connection: 41 attributes (str for nominal, float for
    continuous) in schema order, plus the raw label with any trailing period
    stripped."""

    values: tuple
    label: str

    def attribute(self, name: str):
        return self.values[_INDEX[name]]

    def numeric(self, name: str) -> float:
        """Attribute value as a number; binary nominals ('0'/'1') convert too."""
        value = self.values[_INDEX[name]]
        return float(value)

    @property
    def protocol(self) -> str:
        return self.values[_INDEX["protocol_type"]]

    @property
    def service(self) -> str:
        return self.values[_INDEX["service"]]

    @property
    def flag(self) -> str:
        return self.values[_INDEX["flag"]]

    def serialize(self) -> str:
        fields = []
        for name, value in zip(ATTRIBUTE_NAMES, self.values):
            if name in NOMINAL_ATTRIBUTES:
                fields.append(value)
            else:
                fields.append(f"{value:.10g}")
        fields.append(self.label)
        return ",".join(fields)


def parse_kdd_record(line: str, line_number: int = 0) -> ConnectionRecord:
    """Parse one comma-separated connection line into a typed record."""
    fields = line.strip().split(",")
    if len(fields) != len(ATTRIBUTE_NAMES) + 1:
        raise ParseError(
            f"line {line_number}: expected 42 fields, got {len(fields)}"
        )
    values = []
    for i, name in enumerate(ATTRIBUTE_NAMES):
        raw = fields[i]
        if name in NOMINAL_ATTRIBUTES:
            values.append(raw)
            continue
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(
                f"line {line_number}: non-numeric value {raw!r} "
                f"in continuous column {i + 1} ({name})"
            ) from None
        if not np.isfinite(value) or value < 0:
            raise ParseError(
                f"line {line_number}: continuous column {i + 1} ({name}) "
                f"must be finite and non-negative, got {raw!r}"
            )
        values.append(value)
    label = fields[-1].rstrip(".")
    return ConnectionRecord(values=tuple(values), label=label)


def attribute_matrix(
    records: Iterable[ConnectionRecord], attributes: Sequence[str]
) -> np.ndarray:
    """Numeric matrix (records x attributes) for the given attribute names."""
    return np.array(
        [[record.numeric(name) for name in attributes] for record in records],
        dtype=float,
    )


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


def derive_antigen_type(record: ConnectionRecord) -> str:
    """Antigen identifier: order-preserving join of protocol, service, flag."""
    return f"{record.protocol}:{record.service}:{record.flag}"


def antigen_stream(records: Iterable[ConnectionRecord]) -> list[str]:
    return [derive_antigen_type(record) for record in records]
