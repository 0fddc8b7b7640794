"""Seeded synthetic KDD-99-format connection stream.

A stand-in for the real 10% file, which the repository does not ship. The
records are split between the KDD-99 classes in the proportions of the real
10% file (``CLASS_COUNTS``). Each class's records are cut into bursts, as
attack floods and sessions are in the real data, and the bursts of all
classes are shuffled together. Each
attack class is one protocol:service:flag antigen type; normal records are
spread over many types with Zipf-skewed frequencies. Attack records carry
the signal pattern of ``anomalous_line`` in ``tests/conftest.py`` (high
SYN-error rates, high connection counts, not logged in) and normal records
that of ``normal_line`` (logged in, high srv_diff_host_rate and
dst_host_count), each with jitter, so the DCA has separable contexts to find.
Normal records spread over the whole range of the first two NSA
attributes, so at dimension 2 the self set covers the detector space.

The same (records, seed) always gives the same bytes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# KDD-99 attribute schema, in file order.
ATTRIBUTES = (
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins",
    "logged_in", "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files",
    "num_outbound_cmds", "is_host_login", "is_guest_login", "count",
    "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
    "srv_rerror_rate", "same_srv_rate", "diff_srv_rate",
    "srv_diff_host_rate", "dst_host_count", "dst_host_srv_count",
    "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate",
    "dst_host_rerror_rate", "dst_host_srv_rerror_rate",
)
RATE_ATTRIBUTES = frozenset(name for name in ATTRIBUTES if name.endswith("_rate"))

PROTOCOLS = ("tcp", "udp", "icmp")
SERVICES = (
    "http", "smtp", "ftp", "ftp_data", "telnet", "private", "domain_u",
    "ecr_i", "eco_i", "finger", "auth", "pop_3", "imap4", "other", "urp_i",
    "ntp_u", "ssh", "whois", "link", "netbios_ns", "sunrpc", "uucp",
    "gopher", "time", "echo", "discard", "systat", "daytime", "netstat",
    "X11",
)
FLAGS = ("SF", "S0", "REJ", "RSTO", "RSTR", "SH", "S1", "S2", "S3", "OTH",
         "RSTOS0")

# Records per class in kddcup.data_10_percent, the 494,021-record KDD-99 10%
# training file, from its label column (see METRICS.md).
CLASS_COUNTS = {
    "smurf": 280_790, "neptune": 107_201, "normal": 97_278, "back": 2_203,
    "satan": 1_589, "ipsweep": 1_247, "portsweep": 1_040,
    "warezclient": 1_020, "teardrop": 979, "pod": 264, "nmap": 231,
    "guess_passwd": 53, "buffer_overflow": 30, "land": 21,
    "warezmaster": 20, "imap": 12, "rootkit": 10, "loadmodule": 9,
    "ftp_write": 8, "multihop": 7, "phf": 4, "perl": 3, "spy": 2,
}

# Layout choices not taken from the real file (unverified, see METRICS.md).
NORMAL_TYPES = 60
NORMAL_ZIPF_EXPONENT = 1.2
FLOOD_CLASSES = ("smurf", "neptune")
MEAN_FLOOD = 250
MEAN_BURST = 25
# PAMP attributes on which normal records spread over [0, 1]; the rest stay
# near 0. These are the first NSA attributes (DEFAULT_SIGNAL_ATTRIBUTES order).
NSA_SPREAD = ("serror_rate", "srv_serror_rate")


@dataclass(frozen=True)
class GeneratedStream:
    text: str
    records: int
    anomalous: int
    types_present: int


def class_sizes(records: int) -> dict[str, int]:
    """Records per class in the real file's proportions, rounded by largest
    remainder so that they sum to ``records``."""
    total = sum(CLASS_COUNTS.values())
    exact = {name: records * count / total
             for name, count in CLASS_COUNTS.items()}
    sizes = {name: int(share) for name, share in exact.items()}
    by_remainder = sorted(exact, key=lambda name: sizes[name] - exact[name])
    for name in by_remainder[:records - sum(sizes.values())]:
        sizes[name] += 1
    return sizes


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def _burst_lengths(size: int, mean: int, rng: np.random.Generator):
    """Geometric burst lengths of the given mean that sum to ``size``."""
    lengths = []
    while size > 0:
        length = min(int(rng.geometric(1.0 / mean)), size)
        lengths.append(length)
        size -= length
    return lengths


def _burst_plan(records: int, rng: np.random.Generator):
    """Per-record (type index, class name) arrays laid out in bursts.

    Types ``0 .. NORMAL_TYPES - 1`` are normal; each attack class then has
    one type, in ``CLASS_COUNTS`` order.
    """
    attack_type = {name: NORMAL_TYPES + i for i, name in
                   enumerate(n for n in CLASS_COUNTS if n != "normal")}
    weights = _zipf_weights(NORMAL_TYPES, NORMAL_ZIPF_EXPONENT)
    bursts = []
    for name, size in class_sizes(records).items():
        mean = MEAN_FLOOD if name in FLOOD_CLASSES else MEAN_BURST
        for length in _burst_lengths(size, mean, rng):
            kind = (int(rng.choice(NORMAL_TYPES, p=weights))
                    if name == "normal" else attack_type[name])
            bursts.append((kind, name, length))
    order = rng.permutation(len(bursts))
    type_index = np.repeat([bursts[i][0] for i in order],
                           [bursts[i][2] for i in order])
    classes = np.repeat([bursts[i][1] for i in order],
                        [bursts[i][2] for i in order])
    return type_index, classes


def _columns(anomalous: np.ndarray, rng: np.random.Generator) -> dict:
    """Continuous attribute columns for the planted signal patterns."""
    n = len(anomalous)
    normal = ~anomalous
    cols = {name: np.zeros(n) for name in ATTRIBUTES}

    def jitter(lo, hi):
        return rng.uniform(lo, hi, n)

    def counts(lo, hi):
        return rng.integers(lo, hi + 1, n).astype(float)

    high_rate = jitter(0.85, 1.0)
    for name in ("serror_rate", "srv_serror_rate", "same_srv_rate",
                 "dst_host_serror_rate", "dst_host_srv_serror_rate"):
        normal_top = 1.0 if name in NSA_SPREAD else 0.1
        cols[name] = np.where(anomalous,
                              np.minimum(high_rate + jitter(-0.05, 0.05), 1.0),
                              jitter(0.0, normal_top))
    cols["count"] = np.where(anomalous, counts(300, 511), counts(1, 150))
    cols["srv_count"] = np.where(anomalous, counts(300, 511), counts(1, 150))
    cols["srv_diff_host_rate"] = np.where(normal, jitter(0.7, 1.0), 0.0)
    cols["dst_host_count"] = np.where(normal, counts(200, 255), counts(0, 20))
    cols["logged_in"] = normal.astype(float)

    # Attributes outside the signal set, for parsing and info-gain variety.
    cols["duration"] = np.where(rng.random(n) < 0.1,
                                np.floor(rng.lognormal(2.0, 1.5, n)), 0.0)
    cols["src_bytes"] = np.floor(np.where(anomalous, rng.lognormal(3.0, 1.0, n),
                                          rng.lognormal(6.0, 1.2, n)))
    cols["dst_bytes"] = np.floor(np.where(anomalous, 0.0,
                                          rng.lognormal(7.0, 1.5, n)))
    cols["hot"] = np.where(rng.random(n) < 0.05, counts(1, 5), 0.0)
    cols["dst_host_srv_count"] = counts(0, 255)
    cols["dst_host_same_srv_rate"] = jitter(0.0, 1.0)
    cols["dst_host_diff_srv_rate"] = jitter(0.0, 0.2)
    cols["rerror_rate"] = np.where(rng.random(n) < 0.05, jitter(0.0, 1.0), 0.0)
    return cols


def generate(records: int, seed: int) -> GeneratedStream:
    rng = np.random.default_rng(seed)
    types = NORMAL_TYPES + len(CLASS_COUNTS) - 1
    combos = rng.choice(len(PROTOCOLS) * len(SERVICES) * len(FLAGS), types,
                        replace=False)
    type_names = []
    for combo in combos:
        rest, flag = divmod(int(combo), len(FLAGS))
        protocol, service = divmod(rest, len(SERVICES))
        type_names.append((PROTOCOLS[protocol], SERVICES[service], FLAGS[flag]))

    type_index, classes = _burst_plan(records, rng)
    anomalous = classes != "normal"
    cols = _columns(anomalous, rng)
    text_cols = []
    for name in ATTRIBUTES:
        if name in ("protocol_type", "service", "flag"):
            position = ("protocol_type", "service", "flag").index(name)
            names = [t[position] for t in type_names]
            text_cols.append([names[i] for i in type_index])
        elif name in RATE_ATTRIBUTES:
            text_cols.append([f"{v:.2f}" for v in cols[name]])
        else:
            text_cols.append([f"{int(v)}" for v in cols[name]])
    text_cols.append([f"{name}." for name in classes])
    text = "".join(",".join(row) + "\n" for row in zip(*text_cols))
    return GeneratedStream(
        text=text,
        records=records,
        anomalous=int(anomalous.sum()),
        types_present=len(set(type_index.tolist())),
    )
