import os

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


# On Python 3.12 and later, os.fork() in a process that has threads (numpy's
# BLAS threads count) emits this DeprecationWarning, which the test settings
# turn into an error. Only the tests that fork E1 seed workers ignore it.
forks = pytest.mark.filterwarnings(
    r"ignore:This process .*is multi-threaded, use of fork\(\) may lead to "
    r"deadlocks:DeprecationWarning")


def usable_cpus(monkeypatch, cpus):
    """Make ``os.sched_getaffinity`` report ``cpus`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


@pytest.fixture(autouse=True)
def one_cpu(monkeypatch):
    """One usable CPU, so that an E1 run takes its in-process path on any
    host unless a test asks for ``two_cpus``."""
    usable_cpus(monkeypatch, 1)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that an E1 run of two or more seeds forks two
    workers on any host. A test using it needs the ``forks`` mark."""
    usable_cpus(monkeypatch, 2)


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
