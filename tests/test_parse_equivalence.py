"""The chunk-level loadtxt parser against the parser it replaced.

``parse_reference`` keeps the earlier parse path verbatim. On the same input
both must give bit-identical values, the same anomalous mask and the same
vocabularies, and on malformed input the same ParseError message.
"""
import gzip
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import parse_reference as ref
from dca_ids.dataset import read_kdd_file
from dca_ids.errors import ParseError

from conftest import make_line, parse_lines
from test_golden_reports import golden_lines
from test_records_equivalence import conftest_lines, random_lines

KDDGEN = Path(__file__).resolve().parents[1] / "bench" / "kddgen.py"


def kddgen_text(records, seed):
    spec = importlib.util.spec_from_file_location("bench_kddgen", KDDGEN)
    kddgen = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = kddgen
    try:
        spec.loader.exec_module(kddgen)
        return kddgen.generate(records, seed).text
    finally:
        del sys.modules[spec.name]


def assert_same_table(got, want):
    assert got.values.dtype == want.values.dtype
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.anomalous.dtype == want.anomalous.dtype
    assert np.array_equal(got.anomalous, want.anomalous)
    assert got.vocabularies == want.vocabularies


def whitespace_lines():
    """Blank lines, surrounding whitespace and carriage returns inside a
    line, which a nominal field keeps and a number reads as a space, across
    a chunk boundary. A line read from a file holds no line feed."""
    return (["", "  ", make_line(service="ht\rtp"),
             " \t" + make_line() + " \r",
             make_line(duration="1\r", count=" 2 "), "\r"]
            + [make_line(label=f"x{i}.") for i in range(2100)] + ["", "\xa0"])


CASES = {
    "kddgen-12000-seed1": lambda: kddgen_text(12_000, 1).splitlines(),
    "golden": golden_lines,
    "conftest": conftest_lines,
    "random-seed1": lambda: random_lines(300, 1),
    "random-seed3-chunks": lambda: random_lines(2500, 3),
    "whitespace": whitespace_lines,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lines_parse_identically(case):
    lines = CASES[case]()
    assert_same_table(parse_lines(lines), ref.parse_kdd_lines(lines))


@pytest.mark.parametrize("packing", ["plain", "gzip"])
def test_files_parse_identically(tmp_path, packing):
    body = kddgen_text(12_000, 1).encode()
    path = tmp_path / "data.kdd"
    path.write_bytes(gzip.compress(body) if packing == "gzip" else body)
    assert_same_table(read_kdd_file(path), ref.read_kdd_file(path))


def error_message(parse, source):
    with pytest.raises(ParseError) as info:
        parse(source)
    return str(info.value)


MALFORMED = {
    "short line": "1,2,3",
    "long line": make_line() + ",0",
    "non-numeric": make_line(src_bytes="abc"),
    "empty number": make_line(count=""),
    "blank number": make_line(count=" "),
    "negative": make_line(src_bytes="-4"),
    "nan": make_line(serror_rate="nan"),
    "infinite": make_line(count="-inf"),
    "overflow": make_line(dst_bytes="1e400"),
    "hash": make_line(hot="1#2"),
    "binary": make_line(logged_in="1.0"),
    "binary spaced": make_line(land=" 0"),
    "binary nan": make_line(is_guest_login="nan"),
    "number with a break": make_line(duration="1\r2"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("row", [0, 2047, 2048, 4100])
def test_malformed_lines_give_the_same_message(name, row):
    lines = [make_line()] * 4200
    lines[row] = MALFORMED[name]
    lines[row + 50] = "0,0"
    assert (error_message(parse_lines, lines)
            == error_message(ref.parse_kdd_lines, lines))


# Bad bytes in a line, the decode error they give, and whether that line ends
# the file: a truncated character is one only at the end of the data.
UNDECODABLE = [
    ({"service": "ht\udcfftp"}, "invalid start byte", False),
    ({"service": "ht\udce2(tp"}, "invalid continuation byte", False),
    ({"label": "normal.\udce2\udc82"}, "unexpected end of data", True),
]


# An invalid start byte keeps the bare row number as its id.
@pytest.mark.parametrize("fields,reason,last,row", [
    pytest.param(fields, reason, last, row,
                 id=str(row) if case == 0 else f"{row}-{reason}")
    for case, (fields, reason, last) in enumerate(UNDECODABLE)
    for row in (0, 2047, 2048, 3000)
])
def test_undecodable_bytes_give_the_same_message(tmp_path, fields, reason,
                                                 last, row):
    lines = [make_line().encode()] * 3100
    lines[row] = make_line(**fields).encode("utf-8", "surrogateescape")
    if last:
        del lines[row + 1:]
    path = tmp_path / "data.kdd"
    path.write_bytes(b"\n".join(lines))
    message = error_message(read_kdd_file, path)
    assert message.startswith(f"line {row + 1}: undecodable bytes ({reason} ")
    assert message == error_message(ref.read_kdd_file, path)


@pytest.mark.parametrize("cut", [600, 2000, 9000, -6])
def test_corrupt_gzip_gives_the_same_message(tmp_path, cut):
    body = "".join(make_line(count=i) + "\n" for i in range(6000)).encode()
    path = tmp_path / "data.kdd.gz"
    path.write_bytes(gzip.compress(body)[:cut])
    message = error_message(read_kdd_file, path)
    assert "corrupt gzip data" in message
    assert message == error_message(ref.read_kdd_file, path)
