"""KDD-99 connection data as one columnar table, label binarization, folds
and normalization.

The file format is one connection per line: 42 comma-separated fields, the
last field being the raw label (optionally terminated by a period, as in the
distributed archive). Plain text and gzip files are both accepted.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import io
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

# Nominals stored as integer codes into a per-column vocabulary.
CODED_ATTRIBUTES: tuple[str, ...] = ("protocol_type", "service", "flag")
# Nominals whose only values are '0' and '1', stored as 0.0 / 1.0.
BINARY_ATTRIBUTES: tuple[str, ...] = (
    "land", "logged_in", "is_host_login", "is_guest_login",
)
# The seven symbolic attributes per the kddcup.names header.
NOMINAL_ATTRIBUTES = frozenset(CODED_ATTRIBUTES + BINARY_ATTRIBUTES)

CONTINUOUS_ATTRIBUTES: tuple[str, ...] = tuple(
    name for name in ATTRIBUTE_NAMES if name not in NOMINAL_ATTRIBUTES
)

_INDEX: dict[str, int] = {name: i for i, name in enumerate(ATTRIBUTE_NAMES)}

NORMAL = "normal"
ANOMALOUS = "anomalous"
BinaryLabel = Literal["normal", "anomalous"]

_FIELDS = len(ATTRIBUTE_NAMES) + 1
_BINARY_INDEX = [_INDEX[name] for name in BINARY_ATTRIBUTES]
# The columns np.loadtxt converts: the continuous and the binary ones.
_NUMERIC_INDEX = sorted(_INDEX[name]
                        for name in CONTINUOUS_ATTRIBUTES + BINARY_ATTRIBUTES)
_BINARY_VALUES = frozenset({"0", "1"})
# Lines converted per chunk: large enough to amortise the array calls, small
# enough that a chunk's field strings stay a few MB.
_CHUNK_LINES = 2048
# Bytes per read from the data file, each hashed as it is read.
_READ_BYTES = 1 << 16
_GZIP_MAGIC = b"\x1f\x8b"


@dataclass(frozen=True, eq=False)
class KddTable:
    """Parsed connections, one row per record in file order.

    ``values`` is an (n, len(attributes)) float64 matrix whose columns are
    the named ``attributes``, all 41 in schema order unless the reader
    asked for fewer: continuous attributes as read, the binary nominals as
    0/1, and protocol_type, service and flag as codes into
    ``vocabularies[name]``, which exist for the kept ones only.
    ``anomalous`` is True for every record whose label is not 'normal'.
    ``sha256`` is the hex digest of the file's bytes as read, before gunzip.
    """

    values: np.ndarray
    anomalous: np.ndarray
    vocabularies: dict[str, tuple[str, ...]]
    attributes: tuple[str, ...] = ATTRIBUTE_NAMES
    sha256: str | None = None

    def __len__(self) -> int:
        return len(self.anomalous)

    def position(self, name: str) -> int:
        """The index in ``values`` of the column ``name``."""
        return self.attributes.index(name)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.position(name)]


def binarize_label(label: str) -> BinaryLabel:
    """'normal' stays normal; every attack label becomes anomalous."""
    return NORMAL if label == NORMAL else ANOMALOUS


def _first_error(lines: Sequence[str], first: int) -> ParseError:
    """The error of the first malformed field, checking line by line and
    field by field in file order. ``lines`` are stripped and numbered from
    ``first``; blank ones are skipped. Each line's numbers are read by one
    ``np.loadtxt`` call, as ``_convert`` reads a chunk's, so both paths share
    one grammar; a line it rejects is read again a column at a time, to name
    the field."""
    for number, line in enumerate(lines, start=first):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != _FIELDS:
            return ParseError(
                f"line {number}: expected 42 fields, got {len(fields)}"
            )
        read = functools.partial(np.loadtxt, [line.replace("\r", " ")],
                                 delimiter=",", comments=None)
        try:
            row = read(usecols=_NUMERIC_INDEX).tolist()
        except ValueError:
            row = None
        for j, i in enumerate(_NUMERIC_INDEX):
            name, raw = ATTRIBUTE_NAMES[i], fields[i]
            if name in BINARY_ATTRIBUTES:
                if raw not in _BINARY_VALUES:
                    return ParseError(
                        f"line {number}: binary column {i + 1} ({name}) "
                        f"must be 0 or 1, got {raw!r}"
                    )
                continue
            try:
                value = row[j] if row is not None else float(read(usecols=i))
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


def _codes(column: list[str], vocabulary: dict[str, int]) -> np.ndarray:
    """Codes of a string column, extending the vocabulary with its new
    values in sorted order."""
    for value in sorted(set(column).difference(vocabulary)):
        vocabulary[value] = len(vocabulary)
    return np.fromiter(map(vocabulary.__getitem__, column), float,
                       len(column))


def _convert(lines: list[str], first: int, columns: Sequence[int],
             vocabularies: dict[int, dict[str, int]]):
    """One chunk of text lines, numbered from ``first``, as (values,
    anomalous); blank lines are skipped. ``values`` holds the schema
    ``columns`` in their order, and each coded one extends its entry in
    ``vocabularies``, keyed by column."""
    stripped = list(map(str.strip, lines))
    kept = list(filter(None, stripped))
    if not kept:
        return np.empty((0, len(columns))), np.empty(0, dtype=bool)
    # loadtxt ignores columns past the last it reads, so count them here.
    if set(map(str.count, kept, itertools.repeat(","))) != {_FIELDS - 1}:
        raise _first_error(stripped, first)
    joined = ",".join(kept)
    flat = joined.split(",")
    # loadtxt rejects a carriage return inside a line. float() reads one as
    # whitespace, and a nominal field may hold one.
    if "\r" in joined:
        kept = [line.replace("\r", " ") for line in kept]
    try:
        numeric = np.loadtxt(kept, delimiter=",", usecols=_NUMERIC_INDEX,
                             comments=None, ndmin=2)
    except ValueError:
        raise _first_error(stripped, first) from None
    # The comparisons fail on NaN; the binary columns must read exactly 0/1.
    if not (((numeric >= 0) & (numeric < math.inf)).all()
            and all(_BINARY_VALUES.issuperset(flat[i::_FIELDS])
                    for i in _BINARY_INDEX)):
        raise _first_error(stripped, first)

    # searchsorted maps a coded column to a numeric one; codes replace it.
    values = numeric[:, np.searchsorted(_NUMERIC_INDEX, columns)]
    for i, column in enumerate(columns):
        if column in vocabularies:
            values[:, i] = _codes(flat[column::_FIELDS], vocabularies[column])
    labels = flat[_FIELDS - 1::_FIELDS]
    anomalous = {label: binarize_label(label.rstrip(".")) == ANOMALOUS
                 for label in set(labels)}
    return values, np.fromiter(map(anomalous.__getitem__, labels), bool,
                               len(labels))


def _table(chunks: Iterable[tuple[int, list[str]]],
           attributes: Sequence[str], sha256) -> KddTable:
    """The table of the named columns of consecutive chunks of text lines,
    each given with the number of its first line, and of the ``sha256``
    hash's digest once they are read.

    The output arrays grow in place by exactly each chunk's rows
    (``ndarray.resize``, which reallocates), so the table is never held
    twice and has no spare rows. No view of the arrays outlives the
    statement that makes it, so they are resized without the reference
    check, which a profiler's reference to the method would fail."""
    columns = [_INDEX[name] for name in attributes]
    vocabularies = {_INDEX[name]: {} for name in attributes
                    if name in CODED_ATTRIBUTES}
    values = np.empty((0, len(columns)))
    anomalous = np.empty(0, dtype=bool)
    for first, lines in chunks:
        rows, flags = _convert(lines, first, columns, vocabularies)
        size = len(anomalous)
        values.resize((size + len(rows), len(columns)), refcheck=False)
        anomalous.resize(size + len(rows), refcheck=False)
        values[size:] = rows
        anomalous[size:] = flags
    return KddTable(
        values=values,
        anomalous=anomalous,
        vocabularies={ATTRIBUTE_NAMES[column]: tuple(vocabulary)
                      for column, vocabulary in vocabularies.items()},
        attributes=tuple(attributes),
        sha256=sha256.hexdigest(),
    )


def _decoded(handle: Iterable[bytes]) -> Iterator[tuple[int, list[str]]]:
    """Each ``_CHUNK_LINES`` lines of a binary file, as (the number of the
    first, the chunk decoded as one string and split at its line ends)."""
    first = 1
    try:
        while True:
            raw: list[bytes] = []
            # list.extend keeps the lines read before a gzip error, so the
            # error below names the line the stream broke in.
            raw.extend(itertools.islice(handle, _CHUNK_LINES))
            if not raw:
                return
            joined = b"".join(raw)
            try:
                text = joined.decode("utf-8")
            except UnicodeDecodeError as exc:
                # No multi-byte character holds the b"\n" that ends a line,
                # so the chunk's decode fails where the line's alone would.
                line = first + joined.count(b"\n", 0, exc.start)
                offset = exc.start - joined.rfind(b"\n", 0, exc.start) - 1
                raise ParseError(f"line {line}: undecodable bytes "
                                 f"({exc.reason} at byte {offset})") from None
            yield first, text.split("\n")
            first += len(raw)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError(
            f"line {first + len(raw)}: corrupt gzip data ({exc})"
        ) from None


class _Hashed(io.RawIOBase):
    """A raw binary file that feeds every byte read from it to a sha256."""

    def __init__(self, raw: io.RawIOBase):
        self.raw = raw
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        count = self.raw.readinto(buffer)
        if count:
            self.sha256.update(memoryview(buffer)[:count])
        return count


def read_kdd_file(path: str | Path,
                  attributes: Sequence[str] = ATTRIBUTE_NAMES) -> KddTable:
    """Parse a plain or gzip-compressed KDD file (UTF-8), streaming it, and
    keep the columns of ``attributes``, in that order, the labels and the
    vocabularies of the kept coded nominals.

    Lines are numbered from 1, stripped, and blank ones are skipped. Every
    line needs 42 fields, continuous fields finite, non-negative numbers in
    ``np.loadtxt``'s grammar (the error path asks it too) and the binary
    nominals exactly ``0`` or ``1``, in every column, kept or not; the first
    malformed field raises a ParseError naming its line. Lines are converted
    ``_CHUNK_LINES`` at a time: the numeric columns by one ``np.loadtxt``
    call, the kept coded nominals and the labels from one split of the
    joined chunk, so a file is never held as text in full.

    The path is opened once and parsed from its first byte, so a pipe, a
    FIFO or ``/dev/stdin`` reads as a regular file does. Every byte read is
    hashed in the same pass, before gunzip, into the table's ``sha256``.
    gzip is recognised by its magic bytes, whatever the file is named,
    through ``peek``, which consumes nothing. On a pipe ``peek`` sees only
    what the producer's first write delivered, so a gzip stream whose
    producer writes a single byte first is read as plain text.
    """
    with open(path, "rb", buffering=0) as raw:
        hashed = _Hashed(raw)
        handle = io.BufferedReader(hashed, _READ_BYTES)
        with (gzip.GzipFile(fileobj=handle)
              if handle.peek(2)[:2] == _GZIP_MAGIC
              else contextlib.nullcontext(handle)) as source:
            return _table(_decoded(source), attributes, hashed.sha256)


def kfold_split(n_records: int, k: int, seed: int) -> np.ndarray:
    """Assign each record index a fold in [0, k) by seeded permutation.

    Fold sizes differ by at most one. Deterministic for a given seed.
    """
    if k > n_records:
        raise ConfigurationError(
            f"folds={k} exceeds the record count {n_records}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_records)
    folds = np.empty(n_records, dtype=np.int64)
    folds[order] = np.arange(n_records) % k
    return folds


def minmax_fit(values: np.ndarray,
               rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (min, max) bounds of the training split: the rows of
    ``values`` that the bool mask ``rows`` marks. They are masked
    reductions, so the rows are never copied out."""
    where = rows[:, None]
    return (values.min(axis=0, where=where, initial=math.inf),
            values.max(axis=0, where=where, initial=-math.inf))


def minmax_apply(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Map into [0,1] with clamping; degenerate columns (max == min) map to 0."""
    span = hi - lo
    scaled = np.subtract(values, lo, dtype=float)  # the one allocation
    # A subnormal span can overflow the quotient; the clip below caps it.
    with np.errstate(over="ignore"):
        np.divide(scaled, np.where(span > 0, span, 1.0), out=scaled)
    np.copyto(scaled, 0.0, where=~(span > 0))
    return np.clip(scaled, 0.0, 1.0, out=scaled)


def attribute_matrix(table: KddTable,
                     attributes: Sequence[str]) -> np.ndarray:
    """Numeric matrix (records x attributes) for the given attribute names:
    the table's own ``values``, not a copy, when they are its columns in
    order."""
    if tuple(attributes) == table.attributes:
        return table.values
    return table.values[:, [table.position(name) for name in attributes]]
