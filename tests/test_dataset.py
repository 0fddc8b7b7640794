import gzip
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dca_ids.dataset import (
    ANOMALOUS,
    ATTRIBUTE_NAMES,
    BINARY_ATTRIBUTES,
    CODED_ATTRIBUTES,
    NORMAL,
    binarize_label,
    kfold_split,
    minmax_apply,
    minmax_fit,
    parse_kdd_lines,
    read_kdd_file,
)
from dca_ids.errors import ConfigurationError, ParseError

from conftest import make_line, one_record


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
            parse_kdd_lines([""] * 16 + [line])

    def test_error_names_line_number(self):
        with pytest.raises(ParseError, match="line 17"):
            parse_kdd_lines([make_line()] * 16 + ["0,0"])

    def test_non_numeric_continuous_names_column(self):
        with pytest.raises(ParseError, match="duration"):
            parse_kdd_lines([make_line(duration="abc")])

    def test_negative_continuous_rejected(self):
        with pytest.raises(ParseError, match="non-negative"):
            parse_kdd_lines([make_line(src_bytes="-4")])

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_continuous_rejected(self, raw):
        with pytest.raises(ParseError, match="line 1: continuous column 23 "
                           r"\(count\) must be finite"):
            parse_kdd_lines([make_line(count=raw)])

    @pytest.mark.parametrize("raw", ["x", "2", "0.0", " 1"])
    def test_binary_nominal_must_be_0_or_1(self, raw):
        with pytest.raises(ParseError, match="line 1: binary column 12 "
                           r"\(logged_in\) must be 0 or 1"):
            parse_kdd_lines([make_line(logged_in=raw)])

    def test_first_malformed_line_reported_past_a_chunk(self):
        lines = [make_line()] * 5000
        lines[2999] = make_line(land="x")
        lines[4000] = "1,2,3"
        with pytest.raises(ParseError, match="line 3000: binary column 7"):
            parse_kdd_lines(lines)

    def test_codes_shared_across_chunks(self):
        services = ["http", "smtp", "private"]
        lines = [make_line(service=services[i % 3]) for i in range(5000)]
        table = parse_kdd_lines(lines)
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
        again = parse_kdd_lines([line])
        assert np.array_equal(again.values, table.values)
        assert again.anomalous.tolist() == [True]

    def test_attribute_count(self):
        assert len(ATTRIBUTE_NAMES) == 41
        assert one_record().values.shape == (1, 41)


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

    def test_k_too_small(self):
        with pytest.raises(ConfigurationError):
            kfold_split(5, 1, seed=1)

    @given(st.integers(2, 12), st.integers(0, 1000))
    def test_sizes_differ_by_at_most_one(self, k, seed):
        folds = kfold_split(37, min(k, 37), seed)
        counts = np.bincount(folds)
        assert counts.max() - counts.min() <= 1


class TestMinMax:
    @staticmethod
    def normalize(train, test):
        lo, hi = minmax_fit(train)
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
        lo, hi = minmax_fit(train)
        span = hi - lo
        with np.errstate(all="ignore"):
            expected = np.clip(np.where(
                span > 0, (test - lo) / np.where(span > 0, span, 1.0), 0.0),
                0.0, 1.0)
        assert minmax_apply(test, lo, hi).tobytes() == expected.tobytes()

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=20),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_output_always_in_unit_interval(self, train, test):
        train_m = np.array(train).reshape(-1, 1)
        test_m = np.array(test).reshape(-1, 1)
        train_norm, test_norm = self.normalize(train_m, test_m)
        assert ((train_norm >= 0) & (train_norm <= 1)).all()
        assert ((test_norm >= 0) & (test_norm <= 1)).all()


class TestFileIo:
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
