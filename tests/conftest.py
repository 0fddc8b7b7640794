import numpy as np
import pytest

from dca_ids.dataset import ATTRIBUTE_NAMES, NOMINAL_ATTRIBUTES, parse_kdd_lines

_DEFAULTS = {
    "protocol_type": "tcp",
    "service": "http",
    "flag": "SF",
    "land": "0",
    "logged_in": "0",
    "is_host_login": "0",
    "is_guest_login": "0",
}


def make_line(label="normal.", **overrides):
    """One KDD-format line with zeroed continuous attributes by default."""
    fields = []
    for name in ATTRIBUTE_NAMES:
        if name in overrides:
            fields.append(str(overrides[name]))
        elif name in NOMINAL_ATTRIBUTES:
            fields.append(_DEFAULTS[name])
        else:
            fields.append("0")
    fields.append(label)
    return ",".join(fields)


def one_record(label="normal.", **overrides):
    """A one-row KddTable parsed from ``make_line(label, **overrides)``."""
    return parse_kdd_lines([make_line(label=label, **overrides)])


def anomalous_line(service="private", flag="S0"):
    """A connection whose signal attributes scream anomaly."""
    return make_line(
        label="neptune.",
        service=service,
        flag=flag,
        serror_rate=1.0,
        srv_serror_rate=1.0,
        same_srv_rate=1.0,
        dst_host_serror_rate=1.0,
        dst_host_srv_serror_rate=1.0,
        count=400,
        srv_count=400,
    )


def normal_line(service="http", flag="SF"):
    """A quiet, logged-in connection."""
    return make_line(
        label="normal.",
        service=service,
        flag=flag,
        logged_in="1",
        srv_diff_host_rate=0.9,
        dst_host_count=250,
    )


@pytest.fixture
def synthetic_dataset(tmp_path):
    """Small stream, ~80% anomalous, two cleanly separated antigen types."""
    rng = np.random.default_rng(7)
    lines = [
        anomalous_line() if rng.random() < 0.8 else normal_line()
        for _ in range(400)
    ]
    path = tmp_path / "synthetic.kdd"
    path.write_text("\n".join(lines) + "\n")
    return path
