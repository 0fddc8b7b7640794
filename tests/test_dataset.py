import contextlib
import gzip
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import parse_reference as ref
from dca_ids import cli, dataset, experiments
from dca_ids.cli import EXIT_OK, EXIT_PARSE, main
from dca_ids.dataset import (
    ANOMALOUS,
    ATTRIBUTE_NAMES,
    BINARY_ATTRIBUTES,
    CODED_ATTRIBUTES,
    NORMAL,
    _CHUNK_LINES,
    _INDEX,
    _NUMERIC_INDEX,
    attribute_matrix,
    binarize_label,
    kfold_split,
    minmax_apply,
    minmax_fit,
    read_kdd_file,
)
from dca_ids.errors import ConfigurationError, ParseError
from dca_ids.signals import DEFAULT_SIGNAL_ATTRIBUTES

from conftest import (make_line, needs_dev_fd, one_record, parse_lines,
                      pipe_path)
from test_golden_reports import golden_lines
from test_records_equivalence import random_lines


def loadtxt_field(line, column):
    """Field ``column`` of a KDD line as np.loadtxt reads it once the
    parse has stripped the line and blanked its carriage returns."""
    return np.loadtxt([line.strip().replace("\r", " ")], delimiter=",",
                      usecols=column, comments=None)


def nominal(table, name, row=0):
    """The string value of a coded nominal attribute."""
    return table.vocabularies[name][int(table.column(name)[row])]


class TestParse:
    def test_basic_fields(self):
        table = one_record(label="normal.")
        assert nominal(table, "protocol_type") == "tcp"
        assert nominal(table, "service") == "http"
        assert nominal(table, "flag") == "SF"
        assert table.anomalous.tolist() == [False]

    def test_attack_label(self):
        table = one_record(label="teardrop.", protocol_type="udp",
                           service="private")
        assert table.anomalous.tolist() == [True]
        assert nominal(table, "protocol_type") == "udp"

    def test_label_without_period(self):
        assert one_record(label="smurf").anomalous.tolist() == [True]
        assert one_record(label="normal").anomalous.tolist() == [False]

    def test_field_count_mismatch(self):
        line = ",".join(["0"] * 41)
        with pytest.raises(ParseError, match="line 17: expected 42 fields"):
            parse_lines([""] * 16 + [line])

    def test_error_names_line_number(self):
        with pytest.raises(ParseError, match="line 17"):
            parse_lines([make_line()] * 16 + ["0,0"])

    def test_non_numeric_continuous_names_column(self):
        with pytest.raises(ParseError, match="duration"):
            parse_lines([make_line(duration="abc")])

    def test_negative_continuous_rejected(self):
        with pytest.raises(ParseError, match="non-negative"):
            parse_lines([make_line(src_bytes="-4")])

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_continuous_rejected(self, raw):
        with pytest.raises(ParseError, match="line 1: continuous column 23 "
                           r"\(count\) must be finite"):
            parse_lines([make_line(count=raw)])

    @pytest.mark.parametrize("raw", ["1_0", "\u0661\u0662", "\uff11"])
    def test_numbers_outside_loadtxt_grammar_exit_3(self, tmp_path, capsys,
                                                     raw):
        # float() reads these as 10, 12 and 1; np.loadtxt does not.
        path = tmp_path / "data.kdd"
        path.write_text(make_line() + "\n" + make_line(src_bytes=raw) + "\n",
                        encoding="utf-8")
        assert main(["infogain", str(path),
                     "--out", str(tmp_path / "gain.tsv")]) == EXIT_PARSE
        assert (f"line 2: non-numeric value {raw!r} in continuous column 5 "
                "(src_bytes)") in capsys.readouterr().err

    @given(st.text(st.sampled_from("0123456789.eE+-_ \t\r\xa0\x00"
                                   "nafiINFy#\u0661\uff11x"), max_size=8))
    @example("1_0")
    @example(" \u0661")
    @example("1\r")
    def test_a_number_is_read_by_one_grammar(self, raw):
        # The field is either rejected with a ParseError that agrees with
        # np.loadtxt on the same stripped line, or read as the value it
        # gives, never an AssertionError.
        line = make_line(duration=raw)
        try:
            table = parse_lines([line])
        except ParseError as exc:
            assert "column 1 (duration)" in str(exc)
            if "non-numeric" in str(exc):
                with pytest.raises(ValueError):
                    loadtxt_field(line, 0)
            else:
                assert not 0 <= loadtxt_field(line, 0) < np.inf
            return
        assert table.values[0, 0] == loadtxt_field(line, 0)

    @pytest.mark.parametrize("bad", [_CHUNK_LINES, _CHUNK_LINES + 1])
    @pytest.mark.parametrize("field,raw,message", [
        ("land", "2", "binary column 7 (land) must be 0 or 1, got '2'"),
        ("src_bytes", "1_0",
         "non-numeric value '1_0' in continuous column 5 (src_bytes)"),
        ("count", "nan", "continuous column 23 (count) must be finite and "
         "non-negative, got 'nan'"),
        ("src_bytes", "-4", "continuous column 5 (src_bytes) must be finite "
         "and non-negative, got '-4'"),
        ("duration", "",
         "non-numeric value '' in continuous column 1 (duration)"),
    ])
    def test_first_error_deep_in_a_chunk(self, monkeypatch, bad, field, raw,
                                         message):
        # The bad line ends the first chunk, or opens the second. The error
        # path reads each line of the chunk before it once, and only the bad
        # line also a column at a time.
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(None)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        lines = [make_line()] * (bad - 1) + [make_line(**{field: raw})]
        with pytest.raises(ParseError) as exc:
            parse_lines(lines)
        assert str(exc.value) == f"line {bad}: {message}"
        chunks = (bad - 1) // _CHUNK_LINES + 1  # one fast-path read each
        before = (bad - 1) % _CHUNK_LINES
        assert len(calls) <= chunks + before + len(_NUMERIC_INDEX)

    @pytest.mark.parametrize("raw", ["x", "2", "0.0", " 1"])
    def test_binary_nominal_must_be_0_or_1(self, raw):
        with pytest.raises(ParseError, match="line 1: binary column 12 "
                           r"\(logged_in\) must be 0 or 1"):
            parse_lines([make_line(logged_in=raw)])

    def test_first_malformed_line_reported_past_a_chunk(self):
        lines = [make_line()] * 5000
        lines[2999] = make_line(land="x")
        lines[4000] = "1,2,3"
        with pytest.raises(ParseError, match="line 3000: binary column 7"):
            parse_lines(lines)

    def test_nominals_and_labels_kept_exactly(self):
        # A trailing NUL is part of the value, not padding to strip.
        table = parse_lines([make_line(service="http"),
                                 make_line(service="http\x00",
                                           label="normal\x00")])
        assert table.vocabularies["service"] == ("http", "http\x00")
        assert table.anomalous.tolist() == [False, True]

    def test_codes_shared_across_chunks(self):
        services = ["http", "smtp", "private"]
        lines = [make_line(service=services[i % 3]) for i in range(5000)]
        table = parse_lines(lines)
        assert len(table) == 5000
        assert [nominal(table, "service", row) for row in range(5000)] == [
            services[i % 3] for i in range(5000)
        ]
        assert sorted(table.vocabularies["service"]) == sorted(services)

    def test_roundtrip(self):
        table = one_record(label="smurf.", duration=12, src_bytes=1032,
                           serror_rate=0.25, count=511, logged_in="1")
        fields = []
        for name, value in zip(ATTRIBUTE_NAMES, table.values[0]):
            if name in CODED_ATTRIBUTES:
                fields.append(nominal(table, name))
            elif name in BINARY_ATTRIBUTES:
                fields.append(f"{value:.0f}")
            else:
                fields.append(repr(float(value)))
        line = ",".join(fields + ["smurf."])
        again = parse_lines([line])
        assert np.array_equal(again.values, table.values)
        assert again.anomalous.tolist() == [True]

    def test_attribute_count(self):
        assert len(ATTRIBUTE_NAMES) == 41
        assert one_record().values.shape == (1, 41)


class TestColumns:
    NAMES = ("count", "service", "logged_in", "duration", "flag")

    def test_subset_keeps_the_named_columns_in_their_order(self):
        lines = random_lines(300, 1)
        full = parse_lines(lines)
        subset = parse_lines(lines, self.NAMES)
        assert subset.attributes == self.NAMES
        assert subset.values.shape == (300, len(self.NAMES))
        for name in self.NAMES:
            assert subset.column(name).tobytes() == (
                full.column(name).tobytes())
        assert subset.anomalous.tobytes() == full.anomalous.tobytes()
        # Only the kept coded columns have vocabularies.
        assert subset.vocabularies == {name: full.vocabularies[name]
                                       for name in ("service", "flag")}

    def test_vocabularies_are_those_of_the_kept_coded_columns(self):
        lines = random_lines(300, 1)
        full = parse_lines(lines)
        # E2 keeps its attributes alone; E1 adds the coded nominals.
        assert parse_lines(lines, DEFAULT_SIGNAL_ATTRIBUTES).vocabularies == {}
        e1 = parse_lines(lines, DEFAULT_SIGNAL_ATTRIBUTES + CODED_ATTRIBUTES)
        assert set(e1.vocabularies) == set(CODED_ATTRIBUTES)
        assert e1.vocabularies == full.vocabularies

    @pytest.mark.parametrize("records", [7381, 11071])
    def test_table_grows_without_slack(self, tmp_path, monkeypatch, records):
        """With 64-line chunks, both counts lie just past a step of a 1.5x
        growth rule, which would leave half the table again allocated."""
        monkeypatch.setattr(dataset, "_CHUNK_LINES", 64)
        path = tmp_path / "data.kdd"
        path.write_text("".join(f"{make_line(count=i)}\n"
                                for i in range(records)))
        tracemalloc.start()
        try:
            table = read_kdd_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == records
        assert peak < 1.25 * table.values.nbytes

    def test_matrix_of_the_table_columns_is_the_table_array(self):
        subset = parse_lines(random_lines(30, 2), self.NAMES)
        assert attribute_matrix(subset, self.NAMES) is subset.values
        assert np.array_equal(attribute_matrix(subset, ["flag", "count"]),
                              subset.values[:, [4, 0]])

    def test_column_not_kept(self):
        subset = parse_lines([make_line()], self.NAMES)
        with pytest.raises(ValueError):
            subset.column("src_bytes")


# A range file naming its attributes out of schema order.
RANGES = ("src_bytes DS 10 1000 +\nland PAMP 0 1 -\n"
          "serror_rate PAMP 0.1 0.6 +\nduration SS 0.5 3 +\n"
          "logged_in SS 0 1 +\n")

# Each command's argv after the data path, and the columns its table keeps,
# in order.
COMMAND_COLUMNS = {
    "e1-default": (["e1.1", "--seeds", "1"],
                   DEFAULT_SIGNAL_ATTRIBUTES + CODED_ATTRIBUTES),
    "e1-ranges": (["e1.1", "--seeds", "1", "--ranges", "RANGES"],
                  ("src_bytes", "land", "serror_rate", "duration",
                   "logged_in") + CODED_ATTRIBUTES),
    "e2-dimensions": (["e2", "--seeds", "1", "--dimensions", "2,4",
                       "--folds", "2", "--detectors", "10"],
                      DEFAULT_SIGNAL_ATTRIBUTES[:4]),
    "infogain": (["infogain"], ATTRIBUTE_NAMES),
}


@pytest.mark.parametrize("source", ["plain", "gzip",
                                    pytest.param("pipe", marks=needs_dev_fd)])
@pytest.mark.parametrize("case", sorted(COMMAND_COLUMNS))
def test_each_command_keeps_its_columns_bit_identical(tmp_path, monkeypatch,
                                                      case, source):
    """The table a command reads holds its columns, each bit-identical to
    the reference parser's, whatever the input is."""
    argv, columns = COMMAND_COLUMNS[case]
    body = "".join(f"{line}\n" for line in random_lines(2500, 3)).encode()
    path = tmp_path / "data.kdd"
    path.write_bytes(body)
    want = ref.read_kdd_file(path)
    data = gzip.compress(body) if source == "gzip" else body
    path.write_bytes(data)
    ranges = tmp_path / "ranges.txt"
    ranges.write_text(RANGES)
    tables = []

    def recording_read(*args):
        tables.append(read_kdd_file(*args))
        return tables[-1]

    monkeypatch.setattr(cli, "read_kdd_file", recording_read)
    monkeypatch.setattr(experiments, "read_kdd_file", recording_read)
    with (pipe_path(data) if source == "pipe"
          else contextlib.nullcontext(str(path))) as data_path:
        assert main([argv[0], data_path,
                     *[str(ranges) if a == "RANGES" else a for a in argv[1:]],
                     "--out", str(tmp_path / "out")]) == EXIT_OK
    [table] = tables
    assert table.attributes == columns
    for name in columns:
        assert table.column(name).tobytes() == (
            want.values[:, _INDEX[name]].tobytes()), name
    assert table.anomalous.tobytes() == want.anomalous.tobytes()
    assert table.vocabularies == {name: want.vocabularies[name]
                                  for name in CODED_ATTRIBUTES
                                  if name in columns}


class TestBinarizeLabel:
    def test_normal(self):
        assert binarize_label("normal") == NORMAL

    def test_attack(self):
        assert binarize_label("smurf") == ANOMALOUS

    def test_empty(self):
        assert binarize_label("") == ANOMALOUS

    @given(st.text(max_size=20))
    def test_total_and_two_valued(self, label):
        assert binarize_label(label) in (NORMAL, ANOMALOUS)


class TestKfold:
    def test_exact_sizes(self):
        folds = kfold_split(10, 10, seed=1)
        assert sorted(np.bincount(folds)) == [1] * 10

    def test_near_equal_sizes(self):
        folds = kfold_split(11, 10, seed=1)
        assert sorted(np.bincount(folds)) == [1] * 9 + [2]

    def test_deterministic(self):
        assert (kfold_split(100, 10, seed=3) == kfold_split(100, 10, seed=3)).all()

    def test_partition(self):
        folds = kfold_split(57, 10, seed=5)
        for i in range(10):
            test = np.flatnonzero(folds == i)
            train = np.flatnonzero(folds != i)
            combined = np.sort(np.concatenate([test, train]))
            assert (combined == np.arange(57)).all()

    def test_k_too_large(self):
        with pytest.raises(ConfigurationError):
            kfold_split(5, 10, seed=1)

    @given(st.integers(2, 12), st.integers(0, 1000))
    def test_sizes_differ_by_at_most_one(self, k, seed):
        folds = kfold_split(37, min(k, 37), seed)
        counts = np.bincount(folds)
        assert counts.max() - counts.min() <= 1


class TestMinMax:
    @staticmethod
    def normalize(train, test):
        lo, hi = minmax_fit(train, np.ones(len(train), dtype=bool))
        return minmax_apply(train, lo, hi), minmax_apply(test, lo, hi)

    def test_simple_range(self):
        train = np.array([[0.0], [5.0], [10.0]])
        out, _ = self.normalize(train, train)
        assert out.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_constant_attribute_maps_to_zero(self):
        train = np.array([[3.0], [3.0], [3.0]])
        out, _ = self.normalize(train, train)
        assert out.ravel().tolist() == [0.0, 0.0, 0.0]

    def test_test_values_clamped(self):
        train = np.array([[0.0], [10.0]])
        test = np.array([[12.0], [-3.0]])
        _, test_norm = self.normalize(train, test)
        assert test_norm.ravel().tolist() == [1.0, 0.0]

    def test_subnormal_span_clips_without_a_warning(self):
        train = np.array([[0.0], [5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_norm, test_norm = self.normalize(train, np.array([[1.0]]))
        assert train_norm.ravel().tolist() == [0.0, 1.0]
        assert test_norm.ravel().tolist() == [1.0]

    def test_bit_identical_to_the_masked_quotient(self):
        # degenerate, subnormal, ordinary and negative-valued columns, with
        # test values inside, on and beyond the fitted bounds
        train = np.array([[3.0, 0.0, 0.1, -7.0], [3.0, 5e-324, 0.7, 2.5]])
        test = np.array([[3.0, 1.0, 0.3, -9.0], [2.0, 0.0, 0.7, 1e-3],
                         [4.0, 5e-324, 0.6999999, 3.0]])
        lo, hi = minmax_fit(train, np.ones(len(train), dtype=bool))
        span = hi - lo
        with np.errstate(all="ignore"):
            expected = np.clip(np.where(
                span > 0, (test - lo) / np.where(span > 0, span, 1.0), 0.0),
                0.0, 1.0)
        assert minmax_apply(test, lo, hi).tobytes() == expected.tobytes()

    def test_masked_fit_is_the_fit_of_the_marked_rows(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(size=(500, 6))
        values[:, 2] = 7.0
        rows = rng.random(500) < 0.9
        lo, hi = minmax_fit(values, rows)
        assert lo.tobytes() == values[rows].min(axis=0).tobytes()
        assert hi.tobytes() == values[rows].max(axis=0).tobytes()

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=20),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_output_always_in_unit_interval(self, train, test):
        train_m = np.array(train).reshape(-1, 1)
        test_m = np.array(test).reshape(-1, 1)
        train_norm, test_norm = self.normalize(train_m, test_m)
        assert ((train_norm >= 0) & (train_norm <= 1)).all()
        assert ((test_norm >= 0) & (test_norm <= 1)).all()


def golden_stream(boundary=None):
    """The golden stream's bytes. With a ``boundary``, one line is padded
    with trailing blanks so that the first ``boundary`` bytes end on a line
    end: a reader that lost its first buffer would then drop whole records
    instead of failing on a cut line."""
    text = "".join(f"{line}\n" for line in golden_lines())
    if boundary is not None:
        end = text.rindex("\n", 0, boundary - 1)
        text = text[:end] + " " * (boundary - 1 - end) + text[end:]
    return text.encode()


class TestFileIo:
    @needs_dev_fd
    @pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("boundary", [None, 4096, 8192],
                             ids=["golden", "aligned-4096", "aligned-8192"])
    def test_pipe_reads_as_the_file(self, tmp_path, boundary, packed):
        data = golden_stream(boundary)
        if packed:
            data = gzip.compress(data)
        path = tmp_path / "data.kdd"
        path.write_bytes(data)
        expected = read_kdd_file(path)
        assert len(expected) == len(golden_lines())
        with pipe_path(data) as piped:
            table = read_kdd_file(piped)
        assert table.values.tobytes() == expected.values.tobytes()
        assert table.anomalous.tobytes() == expected.anomalous.tobytes()
        assert table.vocabularies == expected.vocabularies

    @pytest.mark.parametrize("source", ["file",
                                        pytest.param("pipe", marks=needs_dev_fd)])
    @pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
    def test_sha256_is_the_digest_of_the_bytes(self, tmp_path, packed,
                                               source):
        data = golden_stream()
        if packed:
            data = gzip.compress(data)
        path = tmp_path / "data.kdd"
        path.write_bytes(data)
        with (pipe_path(data) if source == "pipe"
              else contextlib.nullcontext(path)) as data_path:
            table = read_kdd_file(data_path, ["count"])
        assert table.sha256 == hashlib.sha256(data).hexdigest()

    def test_plain_file(self, tmp_path):
        path = tmp_path / "data.kdd"
        path.write_text(make_line() + "\n" + make_line(label="smurf.") + "\n")
        assert read_kdd_file(path).anomalous.tolist() == [False, True]

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "data.kdd.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(make_line() + "\n")
        assert len(read_kdd_file(path)) == 1

    def test_gzip_recognised_without_suffix(self, tmp_path):
        path = tmp_path / "data.kdd"
        with gzip.open(path, "wt") as handle:
            handle.write(make_line() + "\n" + make_line() + "\n")
        assert len(read_kdd_file(path)) == 2

    def test_plain_file_named_gz(self, tmp_path):
        path = tmp_path / "data.kdd.gz"
        path.write_text(make_line() + "\n")
        assert len(read_kdd_file(path)) == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.kdd"
        path.write_text(make_line() + "\n\n" + make_line() + "\n")
        assert len(read_kdd_file(path)) == 2

    def test_undecodable_bytes_name_the_line(self, tmp_path):
        path = tmp_path / "data.kdd"
        path.write_bytes(make_line().encode() + b"\n"
                         + make_line(service="ht\udcfftp").encode(
                             "utf-8", "surrogateescape") + b"\n")
        with pytest.raises(ParseError, match="line 2: undecodable bytes"):
            read_kdd_file(path)

    def test_truncated_gzip_names_the_line(self, tmp_path):
        path = tmp_path / "data.kdd.gz"
        text = "".join(make_line(count=i) + "\n" for i in range(2000))
        path.write_bytes(gzip.compress(text.encode())[:2000])
        with pytest.raises(ParseError, match="corrupt gzip data"):
            read_kdd_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.kdd"
        path.write_text("\n")
        table = read_kdd_file(path)
        assert len(table) == 0
        assert table.values.shape == (0, 41)
