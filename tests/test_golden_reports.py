"""Regression check, not a reproduction: SHA-256 digests of the report bodies.

Small E1.1, E1.2, E1.3, custom and E2 runs (two seeds each) on a seeded
stream built from ``conftest`` lines. The digests were recorded from the
program as it stood, so any change to a report body fails here; a change
that alters outputs on purpose must say so and re-record them. They say
nothing about agreement with the published tables.

The stream has seven protocol:service:flag antigen types: one purely
anomalous, one purely normal, and five mixed, two of them with an anomalous
share above the 0.8 truth cut, two below it and one exactly on it.
"""
import hashlib

import numpy as np
import pytest

from dca_ids.cli import EXIT_OK, main

from conftest import make_line

# (protocol, service, flag, records, anomalous records)
TYPES = (
    ("tcp", "private", "S0", 60, 60),
    ("udp", "domain_u", "SF", 40, 0),
    ("icmp", "ecr_i", "SF", 50, 45),   # 0.9: anomalous by truth
    ("tcp", "smtp", "SF", 40, 34),     # 0.85: anomalous by truth
    ("tcp", "http", "SF", 60, 18),     # 0.3: normal by truth
    ("tcp", "ftp", "REJ", 40, 31),     # 0.775: normal by truth
    ("udp", "private", "SF", 50, 40),  # exactly 0.8: normal by truth
)
PAMP_ATTRIBUTES = ("serror_rate", "srv_serror_rate", "same_srv_rate",
                   "dst_host_serror_rate", "dst_host_srv_serror_rate")


def golden_lines(seed=2024):
    """Lines whose signal attributes lean towards each record's label but
    overlap, so per-seed results differ. Records come in shuffled bursts of
    ten of one type and label, as attacks do in the real data."""
    rng = np.random.default_rng(seed)

    def rate(centre):
        return f"{min(max(rng.normal(centre, 0.2), 0.0), 1.0):.2f}"

    bursts = []
    for protocol, service, flag, records, anomalous in TYPES:
        lines = []
        for i in range(records):
            attack = i < anomalous
            danger = 0.9 if attack else 0.2
            lines.append(make_line(
                label="smurf." if attack else "normal.",
                protocol_type=protocol, service=service, flag=flag,
                logged_in=str(int(rng.random() > danger)),
                count=int(rng.integers(0, 500) * danger),
                srv_count=int(rng.integers(0, 500) * danger),
                dst_host_count=int(rng.integers(0, 256) * (1 - danger)),
                srv_diff_host_rate=rate(1 - danger),
                **{name: rate(danger) for name in PAMP_ATTRIBUTES},
            ))
        bursts += [lines[i:i + 10] for i in range(0, records, 10)]
    return [line for i in rng.permutation(len(bursts)) for line in bursts[i]]


RUNS = {
    "e1.1": [],
    "e1.2": ["--multipliers", "5,10"],
    "e1.3": ["--windows", "2,5"],
    "custom": ["--multiplier", "3", "--window", "2"],
    "e2": ["--dimensions", "2,3", "--folds", "4", "--detectors", "100"],
}

EXPECTED = {
    "custom": {
        "results.tsv":
            "7925608c30630fc16263f33cc0338050eccd3bc793cd2b033464d93dcab6adc6",
        "per_seed.tsv":
            "66fdc7983dc16e4028b587b14c13293c317f56f0a66f15b0807cf92a71e8f644",
        "roc_points.tsv":
            "202a545fe938675676184a55cc504c4df0ba8a8b52fbad5fde87dc9e455b170b",
        "mannwhitney.tsv":
            "160e575d24cf2dcc94e322095ca2c0c6d1b48c5d412d8d86c3395a2f4ea6552c",
        "mcav/mcav_E1.1_-_seed1.tsv":
            "4c977f3a5780cdfc860fddeb12d4f0f6a9bfd38ec35186cd9d2c880ce5787a88",
        "mcav/mcav_E1.1_-_seed2.tsv":
            "4132b7a8573e8840b72ef4453e92047ef238b03e2a4789a4aa1a966f03c3f5d9",
        "mcav/mcav_custom_k_3,w_2_seed1.tsv":
            "3c30f05d0f0a7b1e64e4c13898b0141b714d6503750695c82a310ec816ff62ed",
        "mcav/mcav_custom_k_3,w_2_seed2.tsv":
            "7de1b2582c3622326cab4c8e7ab1f6e12ec8500bd10d07982f8f67bfbcb5b159",
    },
    "e1.1": {
        "results.tsv":
            "b665757c17cfc7bc4c1e939e35e82096dafb5c8e2b1acbad413de03247b57d1c",
        "per_seed.tsv":
            "02a4571d06bec2ff93cf4a996930ae37e36c14cf5a5e3588a072bf2ac73b05ee",
        "roc_points.tsv":
            "e6f95874800e392c9dfd37fab17d41acd1f6e89c8415c4ce5aa3fd40a419b06e",
        "mcav/mcav_E1.1_-_seed1.tsv":
            "4c977f3a5780cdfc860fddeb12d4f0f6a9bfd38ec35186cd9d2c880ce5787a88",
        "mcav/mcav_E1.1_-_seed2.tsv":
            "4132b7a8573e8840b72ef4453e92047ef238b03e2a4789a4aa1a966f03c3f5d9",
    },
    "e1.2": {
        "results.tsv":
            "c75aa4f72b7cbddd791a239f0144392acc25385cb467896a0d0bacd5d92eea21",
        "per_seed.tsv":
            "4ae3167a46020308dab16dcfc4a92a806cc2f34f8a5de1afea494e1accf1fc7b",
        "roc_points.tsv":
            "08e2587eacfb907b7d10c42533817474a5c1ff30e7ad8bdfd96c03e0ec7b4b93",
        "mannwhitney.tsv":
            "4ee9bd330380836fbc00445828a6f6a64e2c8655945916f08b55251fc916c61f",
        "mcav/mcav_E1.1_-_seed1.tsv":
            "4c977f3a5780cdfc860fddeb12d4f0f6a9bfd38ec35186cd9d2c880ce5787a88",
        "mcav/mcav_E1.1_-_seed2.tsv":
            "4132b7a8573e8840b72ef4453e92047ef238b03e2a4789a4aa1a966f03c3f5d9",
        "mcav/mcav_E1.2_10_seed1.tsv":
            "6bf5e821d49f3b6068f9f293c2b6f60d186813c33030b3ebe5bd2dc132171b81",
        "mcav/mcav_E1.2_10_seed2.tsv":
            "9eea9e3913806c5fc9d5d67fdeb55d3b17de21f21e4e19ee5b99265b597c3596",
        "mcav/mcav_E1.2_5_seed1.tsv":
            "ca19eee1a8aa697125cea4316aa5858819163992643e585c85ca0183c35c127f",
        "mcav/mcav_E1.2_5_seed2.tsv":
            "caf1b5061cacc11ffba65edf2ce5464ff833ec3a52aa835580c5546a3565b257",
    },
    "e1.3": {
        "results.tsv":
            "b9be4395a9972e6d3b27de63f99f0c83c72842e99cda0312e826948453d6c41c",
        "per_seed.tsv":
            "33a1c46a2b520a08befdadb7b11d7576a91126334bee717f352bd45e4cecbd1f",
        "roc_points.tsv":
            "69b68139c56fa49b95b5c68637e1c54acd22208b43a70ea41dfe6570de650caa",
        "mannwhitney.tsv":
            "a4cf7ecbb97f9b438b1b7e91e33be36dc23145a530405006af1551d22134ee0f",
        "mcav/mcav_E1.1_-_seed1.tsv":
            "4c977f3a5780cdfc860fddeb12d4f0f6a9bfd38ec35186cd9d2c880ce5787a88",
        "mcav/mcav_E1.1_-_seed2.tsv":
            "4132b7a8573e8840b72ef4453e92047ef238b03e2a4789a4aa1a966f03c3f5d9",
        "mcav/mcav_E1.3_2_seed1.tsv":
            "9a552d7e8c34967811203563f50df4594e8ce0d0083eef821f6eb34dde08477b",
        "mcav/mcav_E1.3_2_seed2.tsv":
            "ce6b7b396fd9a312061935771092bbf9a41665aa238dfd8c05f1e37ab6742dcb",
        "mcav/mcav_E1.3_5_seed1.tsv":
            "cd3fecba1f23a1c1945b8c4e1c53504275fb249d02b40659f2d1a7456d661a7c",
        "mcav/mcav_E1.3_5_seed2.tsv":
            "31e22553c35cea10cfdb706f2547bde37afa2451fb3ee27d7041a051f3901a19",
    },
    "e2": {
        "results.tsv":
            "2364c2213663e01ab3c42f031dd60dc5e1eb33e3b48e760146ec987b082d0b56",
        "per_seed.tsv":
            "5e48db472082656a16e94683bea59d65ae3c2ed79f7c2ab6f96da92c74b40f16",
        "roc_points.tsv":
            "f7eeee4a426a462da81b167ccf31515c047eacda162ea001d42e2e8339f61746",
    },
}


def report_digests(out):
    names = ["results.tsv", "per_seed.tsv", "roc_points.tsv",
             "mannwhitney.tsv"]
    paths = [out / name for name in names if (out / name).exists()]
    paths += sorted((out / "mcav").glob("*.tsv"))
    return {str(path.relative_to(out)):
            hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.kdd"
    path.write_text("\n".join(golden_lines()) + "\n")
    return path


@pytest.mark.parametrize("command", sorted(RUNS))
def test_report_bodies_match_recorded_digests(command, data_file, tmp_path):
    out = tmp_path / "out"
    code = main([command, str(data_file), "--out", str(out),
                 "--seeds", "1,2", *RUNS[command]])
    assert code == EXIT_OK
    assert report_digests(out) == EXPECTED[command]
