"""KDD-99 connection data as one columnar table, label binarization, folds
and normalization.

The file format is one connection per line: 42 comma-separated fields, the
last field being the raw label (optionally terminated by a period, as in the
distributed archive). Plain text and gzip files are both accepted.
"""
from __future__ import annotations

import gzip
import itertools
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import ConfigurationError, ParseError

# Attribute schema of the KDD Cup 1999 connection records, in file order.
ATTRIBUTE_NAMES: tuple[str, ...] = (
    "duration",
    "protocol_type",
    "service",
    "flag",
    "src_bytes",
    "dst_bytes",
    "land",
    "wrong_fragment",
    "urgent",
    "hot",
    "num_failed_logins",
    "logged_in",
    "num_compromised",
    "root_shell",
    "su_attempted",
    "num_root",
    "num_file_creations",
    "num_shells",
    "num_access_files",
    "num_outbound_cmds",
    "is_host_login",
    "is_guest_login",
    "count",
    "srv_count",
    "serror_rate",
    "srv_serror_rate",
    "rerror_rate",
    "srv_rerror_rate",
    "same_srv_rate",
    "diff_srv_rate",
    "srv_diff_host_rate",
    "dst_host_count",
    "dst_host_srv_count",
    "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate",
    "dst_host_srv_serror_rate",
    "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)

# The seven symbolic attributes per the kddcup.names header.
NOMINAL_ATTRIBUTES: frozenset[str] = frozenset(
    {"protocol_type", "service", "flag", "land", "logged_in",
     "is_host_login", "is_guest_login"}
)

CONTINUOUS_ATTRIBUTES: tuple[str, ...] = tuple(
    name for name in ATTRIBUTE_NAMES if name not in NOMINAL_ATTRIBUTES
)

_INDEX: dict[str, int] = {name: i for i, name in enumerate(ATTRIBUTE_NAMES)}

NORMAL = "normal"
ANOMALOUS = "anomalous"
BinaryLabel = Literal["normal", "anomalous"]

# Nominals stored as integer codes into a per-column vocabulary.
CODED_ATTRIBUTES: tuple[str, ...] = ("protocol_type", "service", "flag")
# Nominals whose only values are '0' and '1', stored as 0.0 / 1.0.
BINARY_ATTRIBUTES: tuple[str, ...] = (
    "land", "logged_in", "is_host_login", "is_guest_login",
)

_FIELDS = len(ATTRIBUTE_NAMES) + 1
_CONTINUOUS_INDEX = [_INDEX[name] for name in CONTINUOUS_ATTRIBUTES]
_BINARY_INDEX = [_INDEX[name] for name in BINARY_ATTRIBUTES]
# Lines converted per chunk: large enough to amortise the array calls, small
# enough that a chunk's field strings stay a few MB.
_CHUNK_LINES = 2048
_GZIP_MAGIC = b"\x1f\x8b"


@dataclass(frozen=True, eq=False)
class KddTable:
    """Parsed connections, one row per record in file order.

    ``values`` is an (n, 41) float64 matrix in schema order: continuous
    attributes as read, the binary nominals as 0/1, and protocol_type,
    service and flag as codes into ``vocabularies[name]``. ``anomalous`` is
    True for every record whose label is not 'normal'.
    """

    values: np.ndarray
    anomalous: np.ndarray
    vocabularies: dict[str, tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.anomalous)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, _INDEX[name]]


def binarize_label(label: str) -> BinaryLabel:
    """'normal' stays normal; every attack label becomes anomalous."""
    return NORMAL if label == NORMAL else ANOMALOUS


def _first_error(lines: Sequence[str], numbers: Sequence[int]) -> ParseError:
    """The error of the first malformed field, checking line by line and
    field by field in file order."""
    for line, number in zip(lines, numbers):
        fields = line.split(",")
        if len(fields) != _FIELDS:
            return ParseError(
                f"line {number}: expected 42 fields, got {len(fields)}"
            )
        for i, name in enumerate(ATTRIBUTE_NAMES):
            raw = fields[i]
            if name in BINARY_ATTRIBUTES:
                if raw not in ("0", "1"):
                    return ParseError(
                        f"line {number}: binary column {i + 1} ({name}) "
                        f"must be 0 or 1, got {raw!r}"
                    )
                continue
            if name in NOMINAL_ATTRIBUTES:
                continue
            try:
                value = float(raw)
            except ValueError:
                return ParseError(
                    f"line {number}: non-numeric value {raw!r} "
                    f"in continuous column {i + 1} ({name})"
                )
            if not math.isfinite(value) or value < 0:
                return ParseError(
                    f"line {number}: continuous column {i + 1} ({name}) "
                    f"must be finite and non-negative, got {raw!r}"
                )
    raise AssertionError("chunk rejected but every line is well formed")


def _codes(column: np.ndarray, vocabulary: dict[str, int]) -> np.ndarray:
    """Codes of a string column, extending the vocabulary with new values."""
    distinct, inverse = np.unique(column.astype(str), return_inverse=True)
    lookup = [vocabulary.setdefault(value, len(vocabulary))
              for value in distinct.tolist()]
    return np.asarray(lookup, dtype=float)[inverse]


def _convert(lines: Sequence[str], numbers: Sequence[int],
             vocabularies: dict[str, dict[str, int]]):
    """One chunk of stripped, non-blank lines as (values, anomalous)."""
    if any(line.count(",") != _FIELDS - 1 for line in lines):
        raise _first_error(lines, numbers)
    fields = np.array(",".join(lines).split(","), dtype=object)
    fields = fields.reshape(len(lines), _FIELDS)
    try:
        continuous = fields[:, _CONTINUOUS_INDEX].astype(float)
    except ValueError:
        raise _first_error(lines, numbers) from None
    binary = fields[:, _BINARY_INDEX].astype(str)
    ones = binary == "1"
    if (not np.isfinite(continuous).all() or (continuous < 0).any()
            or not (ones | (binary == "0")).all()):
        raise _first_error(lines, numbers)

    values = np.empty((len(lines), len(ATTRIBUTE_NAMES)))
    values[:, _CONTINUOUS_INDEX] = continuous
    values[:, _BINARY_INDEX] = ones
    for name in CODED_ATTRIBUTES:
        values[:, _INDEX[name]] = _codes(fields[:, _INDEX[name]],
                                         vocabularies[name])
    labels, inverse = np.unique(fields[:, -1].astype(str), return_inverse=True)
    anomalous = np.array([binarize_label(label.rstrip(".")) == ANOMALOUS
                          for label in labels.tolist()], dtype=bool)
    return values, anomalous[inverse]


def parse_kdd_lines(lines: Iterable[str]) -> KddTable:
    """Parse KDD-format lines into a table.

    Lines are numbered from 1 and blank ones are skipped. Every line needs 42
    fields; continuous fields must be finite, non-negative numbers and the
    binary nominals 0 or 1. The first malformed field raises a ParseError
    naming its line. Lines are converted in fixed-size chunks, so a file is
    never held as text in full.
    """
    vocabularies: dict[str, dict[str, int]] = {
        name: {} for name in CODED_ATTRIBUTES
    }
    numbered = ((number, line.strip())
                for number, line in enumerate(lines, start=1))
    nonblank = ((number, line) for number, line in numbered if line)
    values = [np.empty((0, len(ATTRIBUTE_NAMES)))]
    anomalous = [np.empty(0, dtype=bool)]
    while chunk := list(itertools.islice(nonblank, _CHUNK_LINES)):
        numbers, stripped = zip(*chunk)
        rows, flags = _convert(stripped, numbers, vocabularies)
        values.append(rows)
        anomalous.append(flags)
    return KddTable(
        values=np.concatenate(values),
        anomalous=np.concatenate(anomalous),
        vocabularies={name: tuple(vocabulary)
                      for name, vocabulary in vocabularies.items()},
    )


def _decoded(handle: Iterable[bytes]) -> Iterator[str]:
    number = 0
    try:
        for number, line in enumerate(handle, start=1):
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    f"line {number}: undecodable bytes ({exc.reason} "
                    f"at byte {exc.start})"
                ) from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError(
            f"line {number + 1}: corrupt gzip data ({exc})"
        ) from None


def read_kdd_file(path: str | Path) -> KddTable:
    """Parse a plain or gzip-compressed KDD file (UTF-8), streaming it.

    gzip is recognised by its magic bytes, whatever the file is named.
    """
    with open(path, "rb") as handle:
        compressed = handle.read(2) == _GZIP_MAGIC
    opener = gzip.open if compressed else open
    with opener(path, "rb") as handle:
        return parse_kdd_lines(_decoded(handle))


def kfold_split(n_records: int, k: int, seed: int) -> np.ndarray:
    """Assign each record index a fold in [0, k) by seeded permutation.

    Fold sizes differ by at most one. Deterministic for a given seed.
    """
    if k < 2:
        raise ConfigurationError(f"k must be >= 2, got {k}")
    if n_records < 1:
        raise ConfigurationError("cannot split an empty record sequence")
    if k > n_records:
        raise ConfigurationError(
            f"k={k} exceeds the record count {n_records}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_records)
    folds = np.empty(n_records, dtype=np.int64)
    folds[order] = np.arange(n_records) % k
    return folds


def minmax_fit(train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (min, max) bounds computed on the training split only."""
    train = np.asarray(train, dtype=float)
    if train.size == 0:
        raise ConfigurationError("cannot fit min-max bounds on empty data")
    return train.min(axis=0), train.max(axis=0)


def minmax_apply(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Map into [0,1] with clamping; degenerate columns (max == min) map to 0."""
    values = np.asarray(values, dtype=float)
    span = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(span > 0, (values - lo) / np.where(span > 0, span, 1.0), 0.0)
    return np.clip(scaled, 0.0, 1.0)


def attribute_matrix(table: KddTable,
                     attributes: Sequence[str]) -> np.ndarray:
    """Numeric matrix (records x attributes) for the given attribute names."""
    return table.values[:, [_INDEX[name] for name in attributes]]
