"""The columnar table path against the object-per-record path it replaced.

``records_reference`` keeps the earlier record code verbatim. Every derived
stream must come out exactly equal (no tolerance) on the same lines: signal
streams, antigen streams, the default signal configuration, attribute
matrices, information gains and labels. The streams and configuration an E1
run derives must also come out the same from the table of only the columns
it reads as from the full table.
"""
import dataclasses

import numpy as np
import pytest

import records_reference as ref
from dca_ids.dataset import (
    ANOMALOUS,
    ATTRIBUTE_NAMES,
    CODED_ATTRIBUTES,
    attribute_matrix,
    binarize_label,
)
from dca_ids.signals import (
    DEFAULT_SIGNAL_ATTRIBUTES,
    SCORABLE_ATTRIBUTES,
    AttributeRange,
    SignalConfig,
    antigen_stream,
    antigen_type_names,
    attribute_gains,
    default_signal_config,
    signal_stream,
)

from conftest import anomalous_line, make_line, normal_line, parse_lines

PROTOCOLS = ("tcp", "udp", "icmp")
# More services than info-gain bins, so binning codes would merge some.
SERVICES = ("http", "smtp", "private", "ecr_i", "ftp_data", "domain_u",
            "telnet", "ftp", "eco_i", "finger", "auth", "pop_3", "urp_i",
            "other")
FLAGS = ("SF", "S0", "REJ", "RSTO")
LABELS = ("normal.", "normal", "smurf.", "neptune.", "teardrop", "normal..")
BINARY = ("land", "logged_in", "is_host_login", "is_guest_login")
# Ways of writing a number that Python's float() and np.loadtxt both read.
FORMATS = (
    lambda v: f"{int(v)}",
    lambda v: f"{v:.2f}",
    lambda v: f"{v:.3e}",
    lambda v: f"{v:E}",
    lambda v: f"{v:g}",
    lambda v: repr(float(v)),
    lambda v: f"{v:.4f}".lstrip("0") or "0",
    lambda v: f"+{v:.1f}",
    lambda v: f" {v:.3f} ",
)


def random_lines(n, seed):
    """Seeded KDD-format lines with mixed number formats and a label that
    depends on a few attributes, so the gains are not all zero."""
    rng = np.random.default_rng(seed)
    constant = {"num_outbound_cmds", "urgent"}
    lines = []
    for _ in range(n):
        attack = rng.random() < 0.6
        fields = []
        for name in ATTRIBUTE_NAMES:
            if name == "protocol_type":
                fields.append(PROTOCOLS[rng.integers(len(PROTOCOLS))])
            elif name == "service":
                mostly_few = attack and rng.random() < 0.7
                fields.append(SERVICES[rng.integers(3 if mostly_few else 14)])
            elif name == "flag":
                fields.append(FLAGS[rng.integers(len(FLAGS))])
            elif name in BINARY:
                fields.append("1" if rng.random() < (0.2 if attack else 0.7)
                              else "0")
            elif name in constant:
                fields.append("0")
            else:
                if name.endswith("rate"):
                    value = rng.random() * (1.0 if attack else 0.4)
                elif name.endswith("count"):
                    value = float(rng.integers(0, 512 if attack else 200))
                else:
                    value = float(np.floor(rng.lognormal(3.0, 2.0)))
                fmt = FORMATS[rng.integers(len(FORMATS))]
                if fmt is FORMATS[0]:
                    value = float(np.floor(value))
                fields.append(fmt(value))
        label = (LABELS[2 + rng.integers(4)] if attack
                 else LABELS[rng.integers(2)])
        fields.append(label)
        lines.append(",".join(fields))
    return lines


def conftest_lines():
    rng = np.random.default_rng(7)
    lines = [anomalous_line() if rng.random() < 0.8 else normal_line()
             for _ in range(400)]
    return lines + [
        make_line(),
        make_line(label="smurf.", count=100, protocol_type="icmp"),
        anomalous_line(service="ecr_i", flag="SF"),
        normal_line(service="smtp", flag="REJ"),
        make_line(label="teardrop.", duration=12, src_bytes=1032,
                  serror_rate=0.25, count=511, land="1"),
    ]


CASES = {
    "conftest": conftest_lines,
    "random-seed1": lambda: random_lines(300, 1),
    "random-seed2": lambda: random_lines(300, 2),
    # Crosses the parser's chunk boundary, so codes span chunks.
    "random-seed3-chunks": lambda: random_lines(2500, 3),
}

CUSTOM_CONFIG = SignalConfig((
    AttributeRange("serror_rate", "PAMP", 0.1, 0.6),
    AttributeRange("land", "PAMP", 0, 1, "-"),
    AttributeRange("src_bytes", "DS", 10, 1000),
    AttributeRange("count", "DS", 0, 100, "-"),
    AttributeRange("srv_count", "DS", 3, 7),
    AttributeRange("duration", "SS", 0.5, 3),
    AttributeRange("logged_in", "SS", 0, 1),
))


@pytest.fixture(scope="module", params=sorted(CASES))
def both(request):
    """The records, the full table and, for the default and the custom
    signal attributes, the table of the columns an E1 run reads."""
    lines = CASES[request.param]()
    records = [ref.parse_kdd_record(line, number)
               for number, line in enumerate(lines, start=1)]
    e1_tables = {
        which: parse_lines(lines, attributes + CODED_ATTRIBUTES)
        for which, attributes in (
            ("default", DEFAULT_SIGNAL_ATTRIBUTES),
            ("custom", CUSTOM_CONFIG.attribute_names))
    }
    return records, parse_lines(lines), e1_tables


def test_labels(both):
    records, table, e1_tables = both
    assert table.anomalous.tolist() == [
        binarize_label(r.label) == ANOMALOUS for r in records
    ]
    for subset in e1_tables.values():
        assert subset.anomalous.tobytes() == table.anomalous.tobytes()


def test_default_signal_config(both):
    records, table, e1_tables = both
    assert default_signal_config(table) == ref.default_signal_config(records)
    assert default_signal_config(e1_tables["default"]) == (
        default_signal_config(table))


@pytest.mark.parametrize("which", ["default", "custom"])
def test_signal_stream(both, which):
    records, table, e1_tables = both
    config = (ref.default_signal_config(records) if which == "default"
              else CUSTOM_CONFIG)
    stream = signal_stream(table, config)
    assert np.array_equal(stream, ref.signal_stream(records, config))
    assert signal_stream(e1_tables[which], config).tobytes() == (
        stream.tobytes())


def test_antigen_stream(both):
    records, table, e1_tables = both
    codes = antigen_stream(table)
    names = antigen_type_names(table, codes)
    assert [names[code] for code in codes.tolist()] == (
        ref.antigen_stream(records))
    for subset in e1_tables.values():
        assert antigen_stream(subset).tobytes() == codes.tobytes()
        assert antigen_type_names(subset, codes) == names


@pytest.mark.parametrize("attributes", [
    DEFAULT_SIGNAL_ATTRIBUTES,
    ("logged_in", "count"),
    tuple(sorted(SCORABLE_ATTRIBUTES)),
])
def test_attribute_matrix(both, attributes):
    records, table, _ = both
    assert np.array_equal(attribute_matrix(table, attributes),
                          ref.attribute_matrix(records, attributes))


def test_attribute_gains(both):
    records, table, _ = both
    assert attribute_gains(table) == ref.attribute_gains(records)


def test_info_gain_on_plain_lists(both):
    # Each attribute alone: in a table where every other column is constant
    # its gain is the reference gain of its plain list of values, and every
    # other gain is 0.
    records, table, _ = both
    labels = [binarize_label(r.label) for r in records]
    for j, name in enumerate(ATTRIBUTE_NAMES):
        values = np.zeros_like(table.values)
        values[:, j] = table.values[:, j]
        gains = dict(attribute_gains(dataclasses.replace(table, values=values)))
        want = ref.info_gain([r.attribute(name) for r in records], labels)
        assert gains.pop(name) == want, name
        assert set(gains.values()) == {0.0}, name
