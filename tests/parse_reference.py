"""Test-only oracle: the parser that the chunk-level loadtxt converter
replaced.

The functions below are the earlier ``dca_ids.dataset`` parse path, kept
verbatim so the new one can be checked against it: values, labels,
vocabularies and every error message. Only the imports changed, and the
private constants are copied here. Nothing in the package imports this
module.

It reads numbers with Python's ``float()``, which also accepts digit-group
underscores (``1_0``) and non-ASCII decimal digits (``١٢``, ``１``); the
package now rejects those, so inputs for the comparison avoid them.
"""
from __future__ import annotations

import gzip
import itertools
import math
import zlib
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from dca_ids.dataset import (
    ANOMALOUS,
    ATTRIBUTE_NAMES,
    BINARY_ATTRIBUTES,
    CODED_ATTRIBUTES,
    CONTINUOUS_ATTRIBUTES,
    NOMINAL_ATTRIBUTES,
    KddTable,
    _INDEX,
    binarize_label,
)
from dca_ids.errors import ParseError

_FIELDS = len(ATTRIBUTE_NAMES) + 1
_CONTINUOUS_INDEX = [_INDEX[name] for name in CONTINUOUS_ATTRIBUTES]
_BINARY_INDEX = [_INDEX[name] for name in BINARY_ATTRIBUTES]
_CHUNK_LINES = 2048
_GZIP_MAGIC = b"\x1f\x8b"


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
