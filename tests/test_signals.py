import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dca_ids.dataset import ATTRIBUTE_NAMES, CODED_ATTRIBUTES, parse_kdd_lines
from dca_ids.dca import DcaConfig, run_dca_with_log
from dca_ids.errors import ConfigurationError
from dca_ids.signals import (
    AttributeRange,
    SignalConfig,
    antigen_stream,
    antigen_type_names,
    apply_time_window,
    attribute_gains,
    default_signal_config,
    entropy2,
    load_signal_config,
    normalize_signal,
    signal_stream,
)

from conftest import make_line, one_record


def brute_entropy(labels):
    """Independent oracle: direct -sum(p log2 p) over label counts."""
    n = len(labels)
    total = 0.0
    for label in set(labels):
        p = labels.count(label) / n
        total -= p * math.log2(p)
    return total


def brute_gain(values, labels):
    """Independent oracle: literal entropy difference over value subsets."""
    gain = brute_entropy(labels)
    n = len(labels)
    for value in set(values):
        subset = [l for v, l in zip(values, labels) if v == value]
        gain -= len(subset) / n * brute_entropy(subset)
    return gain


class TestEntropy:
    def test_symmetric_maximum(self):
        assert entropy2(0.5, 0.5) == 1.0

    def test_zero_entropy_convention(self):
        assert entropy2(1.0, 0.0) == 0.0

    def test_direct_evaluation(self):
        assert entropy2(0.8, 0.2) == pytest.approx(0.7219280948873623)

    def test_bad_proportions(self):
        with pytest.raises(ValueError):
            entropy2(0.6, 0.6)

    @given(st.floats(0, 1))
    def test_symmetry(self, p):
        assert entropy2(p, 1 - p) == pytest.approx(entropy2(1 - p, p))


def gains_of(columns, labels):
    """``attribute_gains`` by name of a table in which each attribute named
    in ``columns`` holds its values, every other attribute is constant, and
    each label is 'normal' or 'anomalous' as the brute-force oracle takes
    them."""
    lines = [
        make_line(label="normal." if label == "normal" else "smurf.",
                  **{name: values[i] for name, values in columns.items()})
        for i, label in enumerate(labels)
    ]
    return dict(attribute_gains(parse_kdd_lines(lines)))


def label_gain(values, labels):
    """Gain of one attribute read through ``attribute_gains``: strings fill
    the nominal ``service`` column, numbers the continuous ``duration``
    column of an otherwise constant table."""
    numeric = all(isinstance(v, (int, float)) for v in values)
    name = "duration" if numeric else "service"
    return gains_of({name: values}, labels)[name]


@functools.cache
def small_gain_cases(max_n=8):
    """Every labelled set of 1..max_n elements over a two-valued attribute,
    as (values, labels, gain read through ``attribute_gains``). The value
    lists of one labelling share tables, one list per attribute; outside
    the coded nominals 'a' and 'b' are written as 0 and 1, which any
    attribute's binning keeps apart. Cached: criterion 5e checks the same
    cases."""
    cases = []
    for n in range(1, max_n + 1):
        all_values = [list(v) for v in itertools.product("ab", repeat=n)]
        for label_bits in itertools.product(["normal", "anomalous"],
                                            repeat=n):
            labels = list(label_bits)
            for start in range(0, len(all_values), len(ATTRIBUTE_NAMES)):
                chunk = dict(zip(ATTRIBUTE_NAMES, all_values[start:]))
                gains = gains_of(
                    {name: values if name in CODED_ATTRIBUTES
                     else ["ab".index(v) for v in values]
                     for name, values in chunk.items()},
                    labels,
                )
                for name, values in chunk.items():
                    cases.append((tuple(values), tuple(labels), gains[name]))
    return tuple(cases)


class TestInfoGain:
    def test_perfect_separation(self):
        values = ["a", "a", "b", "b"]
        labels = ["normal", "normal", "anomalous", "anomalous"]
        assert label_gain(values, labels) == pytest.approx(1.0)
        assert brute_gain(values, labels) == pytest.approx(1.0)

    def test_constant_attribute(self):
        assert label_gain(["a"] * 6, ["normal", "anomalous"] * 3) == 0.0

    def test_pure_labels(self):
        assert label_gain(["a", "b", "a"], ["normal"] * 3) == 0.0

    def test_exhaustive_small_sets(self):
        # every labeled set of <= 8 elements over a 2-valued attribute
        for values, labels, gain in small_gain_cases():
            assert gain == pytest.approx(
                max(brute_gain(values, labels), 0.0), abs=1e-12
            )

    def test_numeric_discretization(self):
        values = [0.0, 0.1, 0.9, 1.0]
        labels = ["normal", "normal", "anomalous", "anomalous"]
        assert label_gain(values, labels) == pytest.approx(1.0)

    @given(
        st.lists(
            st.tuples(st.sampled_from("ab"),
                      st.sampled_from(["normal", "anomalous"])),
            min_size=1, max_size=30,
        )
    )
    def test_bounded_by_label_entropy(self, pairs):
        values = [p[0] for p in pairs]
        labels = [p[1] for p in pairs]
        gain = label_gain(values, labels)
        assert -1e-12 <= gain <= brute_entropy(labels) + 1e-12


def selected(table, cutoff):
    """Attributes whose information gain reaches the cutoff, best first."""
    return [name for name, gain in attribute_gains(table) if gain >= cutoff]


class TestSelectAttributes:
    def test_cutoff_zero_keeps_everything(self):
        table = parse_kdd_lines([make_line(label="normal."),
                                 make_line(label="smurf.", count=100)])
        assert len(selected(table, 0.0)) == 41

    def test_cutoff_above_max_removes_everything(self):
        table = parse_kdd_lines([make_line(label="normal."),
                                 make_line(label="smurf.", count=100)])
        assert selected(table, 2.0) == []

    def test_discriminating_attribute_wins(self):
        table = parse_kdd_lines(
            [make_line(label="normal.", service="http")] * 2
            + [make_line(label="smurf.", service="private")] * 2
        )
        chosen = selected(table, 0.5)
        assert "service" in chosen
        assert "duration" not in chosen

    def test_gains_sorted_descending(self):
        table = parse_kdd_lines(
            [make_line(label="normal.", service="http")] * 3
            + [make_line(label="smurf.", service="private", count=9)] * 3
        )
        gains = attribute_gains(table)
        values = [g for _, g in gains]
        assert values == sorted(values, reverse=True)

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError):
            attribute_gains(parse_kdd_lines([]))


class TestNormalizeSignal:
    def test_below_range(self):
        assert normalize_signal(5, 10, 20) == 0.0

    def test_above_range(self):
        assert normalize_signal(25, 10, 20) == 100.0

    def test_in_range(self):
        assert normalize_signal(15, 10, 20) == 50.0

    def test_continuous_at_bounds(self):
        assert normalize_signal(10, 10, 20) == 0.0
        assert normalize_signal(20, 10, 20) == 100.0

    def test_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            normalize_signal(5, 20, 10)

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        scores = [normalize_signal(x, -101, 101) for x in (lo, hi)]
        assert scores[0] <= scores[1]


def triple(table, config):
    """The (PAMP, danger, safe) scores of a one-record table."""
    return tuple(signal_stream(table, config)[0].tolist())


class TestSignalTriple:
    def config(self):
        return SignalConfig((
            AttributeRange("serror_rate", "PAMP", 0, 1),
            AttributeRange("srv_serror_rate", "PAMP", 0, 1),
            AttributeRange("same_srv_rate", "PAMP", 0, 1),
            AttributeRange("dst_host_serror_rate", "PAMP", 0, 1),
            AttributeRange("dst_host_srv_serror_rate", "PAMP", 0, 1),
            AttributeRange("count", "DS", 0, 100),
            AttributeRange("srv_count", "DS", 0, 100),
            AttributeRange("logged_in", "SS", 0, 1),
            AttributeRange("srv_diff_host_rate", "SS", 0, 1),
            AttributeRange("dst_host_count", "SS", 0, 255),
        ))

    def test_category_mean(self):
        record = one_record(count=40, srv_count=60)
        assert triple(record, self.config())[1] == pytest.approx(50.0)

    def test_all_lower_bounds(self):
        assert triple(one_record(), self.config()) == (0, 0, 0)

    def test_saturated_pamp_only(self):
        record = one_record(
            serror_rate=1, srv_serror_rate=1, same_srv_rate=1,
            dst_host_serror_rate=1, dst_host_srv_serror_rate=1,
        )
        assert triple(record, self.config()) == (100.0, 0.0, 0.0)

    def test_direction_flip(self):
        config = SignalConfig((
            AttributeRange("serror_rate", "PAMP", 0, 1, "-"),
            AttributeRange("count", "DS", 0, 100),
            AttributeRange("logged_in", "SS", 0, 1),
        ))
        assert triple(one_record(), config)[0] == 100.0

    def test_empty_category_rejected(self):
        config = SignalConfig((AttributeRange("count", "DS", 0, 100),))
        with pytest.raises(ConfigurationError):
            signal_stream(one_record(), config)

    def test_components_bounded(self):
        record = one_record(count=1e6, serror_rate=1, logged_in="1")
        scores = triple(record, self.config())
        assert all(0 <= v <= 100 for v in scores)

    def test_stream_rows_follow_records(self):
        table = parse_kdd_lines([make_line(count=40), make_line(count=60)])
        stream = signal_stream(table, self.config())
        assert stream.shape == (2, 3)
        assert stream[:, 1].tolist() == [20.0, 30.0]


class TestDefaultConfig:
    def test_covers_ten_attributes(self):
        config = default_signal_config()
        assert len(config.ranges) == 10
        assert len(config.by_category("PAMP")) == 5
        assert len(config.by_category("DS")) == 2
        assert len(config.by_category("SS")) == 3

    def test_percentile_bounds_from_records(self):
        table = parse_kdd_lines([make_line(count=i) for i in range(101)])
        config = default_signal_config(table)
        count_range = next(r for r in config.ranges if r.name == "count")
        assert count_range.lower == pytest.approx(5.0)
        assert count_range.upper == pytest.approx(95.0)

    def test_roundtrip_through_file(self, tmp_path):
        config = default_signal_config()
        path = tmp_path / "ranges.conf"
        path.write_text("".join(
            f"{r.name} {r.category} {r.lower!r} {r.upper!r} {r.direction}\n"
            for r in config.ranges
        ))
        assert load_signal_config(path) == config

    @pytest.mark.parametrize("line", [
        "count DS -inf 1 +", "serror_rate PAMP 0 inf +",
        "count DS -inf inf -",
    ], ids=["infinite-lower", "infinite-upper", "both-infinite"])
    def test_infinite_bound_rejected(self, tmp_path, line):
        path = tmp_path / "ranges.conf"
        path.write_text(line + "\n")
        with pytest.raises(ConfigurationError, match="bounds must be finite"):
            load_signal_config(path)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "ranges.conf"
        path.write_text("count DS 0\n")
        with pytest.raises(ConfigurationError):
            load_signal_config(path)


class TestTimeWindow:
    def test_forward_mean(self):
        stream = np.array([[10.0], [20.0], [30.0]])
        out = apply_time_window(np.repeat(stream, 3, axis=1), 2)
        assert out[0, 0] == pytest.approx(15.0)

    def test_identity_window(self):
        stream = np.random.default_rng(1).random((20, 3)) * 100
        assert (apply_time_window(stream, 1) == stream).all()

    def test_shrunk_tail_window(self):
        stream = np.repeat(np.array([[10.0], [20.0], [30.0]]), 3, axis=1)
        out = apply_time_window(stream, 2)
        assert out[2, 0] == pytest.approx(30.0)

    def test_constant_stream_fixed_point(self):
        stream = np.full((50, 3), 42.0)
        for w in (1, 2, 7, 50, 1000):
            assert apply_time_window(stream, w) == pytest.approx(stream)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            apply_time_window(np.zeros((3, 3)), 0)

    @given(st.integers(1, 12), st.integers(1, 40))
    def test_window_mean_bounded_by_window_extremes(self, w, n):
        rng = np.random.default_rng(w * 100 + n)
        stream = rng.random((n, 3)) * 100
        out = apply_time_window(stream, w)
        for i in range(n):
            window = stream[i:min(i + w, n)]
            assert (out[i] >= window.min(axis=0) - 1e-9).all()
            assert (out[i] <= window.max(axis=0) + 1e-9).all()


def antigen_names(table):
    names = antigen_type_names(table)
    return [names[code] for code in antigen_stream(table).tolist()]


class TestAntigens:
    def test_join(self):
        assert antigen_stream(one_record()).tolist() == [0]
        assert antigen_names(one_record()) == ["tcp:http:SF"]

    def test_deterministic(self):
        table = parse_kdd_lines([make_line(), make_line()])
        assert antigen_stream(table).tolist() == [0, 0]
        assert antigen_names(table) == antigen_names(one_record()) * 2

    def test_distinct_triples_distinct_ids(self):
        a, b = antigen_stream(parse_kdd_lines([
            make_line(protocol_type="udp"), make_line(protocol_type="tcp"),
        ]))
        assert a != b

    def test_stream_order_preserved(self):
        table = parse_kdd_lines([make_line(service="http"),
                                 make_line(service="smtp")])
        assert antigen_names(table) == ["tcp:http:SF", "tcp:smtp:SF"]

    # The antigen multiplier is applied by the cell population, which deals
    # ``multiplier`` copies of each record's antigen.
    @staticmethod
    def presented(k):
        table = one_record()
        _, log = run_dca_with_log(antigen_stream(table), np.zeros((1, 3)),
                                  DcaConfig(multiplier=k), seed=1)
        return log.totals.tolist()

    def test_multiplier_identity(self):
        assert self.presented(1) == [1]

    @pytest.mark.parametrize("k", [5, 100])
    def test_multiplier_counts(self, k):
        assert self.presented(k) == [k]

    def test_multiplier_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            DcaConfig(multiplier=0)
