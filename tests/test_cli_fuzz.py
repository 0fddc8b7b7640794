"""In-process fuzz of every subcommand: a malformed input maps to its exit
code, never to a traceback.

Each example writes a small KDD stream built from ``conftest`` lines, at
most one of them mutated, and for the experiment commands an optional
range file (non-UTF-8 bytes, extreme finite bounds and malformed lines
included), then calls ``main`` with edge-case flags. The exit code must be
0, 2, 3 or 4 and nothing may print a traceback; pytest turns runtime
warnings into errors. A range file a run accepts must map each attribute's
window onto [0, 100], its upper bound scoring 100. Population, detector
count, folds and list lengths are bounded, so no example allocates more
than a few MB.
"""
import contextlib
import gzip
import io
import tempfile
from pathlib import Path

from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from dca_ids.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_PARSE, main
from dca_ids.signals import load_signal_config, normalize_signal

from conftest import anomalous_line, make_line, normal_line

EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_PARSE, EXIT_IO}
COMMANDS = ("e1.1", "e1.2", "e1.3", "e2", "custom", "infogain")
CLEAN_LINES = (normal_line(), anomalous_line(),
               make_line(protocol_type="udp", count=3),
               make_line(label="smurf.", serror_rate=0.7))
# "1_0" and the non-ASCII digits are numbers to float() but not to loadtxt.
FIELD_VALUES = ("", "x", "-1", "nan", "inf", "1e308", "0.5", "2", "\udcff",
                "1_0", "\u0661\u0662", "\uff11")
LABELS = ("normal.", "smurf.", "weird", "")
# (lower, upper) of a range line or of the migration thresholds: ordinary,
# extreme but finite, spans that overflow, and malformed
BOUNDS = (("0", "1"), ("100", "300"), ("0", "1.7e308"), ("5e-324", "1e-323"),
          ("-1e308", "1e308"), ("-1.7e308", "1.7e308"), ("-inf", "1"),
          ("0", "inf"), ("nan", "1"), ("1", "0"), ("x", "1"))
RANGE_JUNK = (b"# comment", b"", b"count DS 0", b"bogus DS 0 1 +",
              b"service DS 0 1 +", b"count XX 0 1 +", b"count DS 0 1 *",
              b"\xff\xfe bad", b"count DS 0 1 + # note")
VALID_RANGES = (b"serror_rate PAMP 0 1 +", b"count DS 0 511 +",
                b"logged_in SS 0 1 +")


@st.composite
def mutated_line(draw):
    """A valid line with a field replaced, a field dropped or the label
    changed."""
    fields = draw(st.sampled_from(CLEAN_LINES)).split(",")
    mutation = draw(st.sampled_from(["field", "drop", "label"]))
    if mutation == "field":
        index = draw(st.integers(0, len(fields) - 1))
        fields[index] = draw(st.sampled_from(FIELD_VALUES))
    elif mutation == "drop":
        fields.pop(draw(st.integers(0, len(fields) - 1)))
    else:
        fields[-1] = draw(st.sampled_from(LABELS))
    return ",".join(fields)


@st.composite
def data_file(draw):
    """Up to 20 valid lines, perhaps with one mutated line among them,
    plain, gzipped or truncated after gzip."""
    lines = draw(st.lists(st.sampled_from(CLEAN_LINES), max_size=20))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(mutated_line()))
    # surrogateescape writes the "\udcff" field value as the one
    # non-UTF-8 byte 0xff
    body = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
    packing = draw(st.sampled_from(["plain", "plain", "plain", "gzip",
                                    "truncated-gzip"]))
    if packing == "gzip":
        return gzip.compress(body)
    if packing == "truncated-gzip":
        return gzip.compress(body)[:-6]
    return body


@st.composite
def range_line(draw):
    name = draw(st.sampled_from(["count", "srv_count", "serror_rate",
                                 "dst_host_count", "logged_in"]))
    category = draw(st.sampled_from(["PAMP", "DS", "SS"]))
    lower, upper = draw(st.sampled_from(BOUNDS))
    direction = draw(st.sampled_from(["+", "-"]))
    return f"{name} {category} {lower} {upper} {direction}".encode()


@st.composite
def range_file(draw):
    """A file covering the three categories, or not, plus up to two lines
    with random bounds or malformed, comments and non-UTF-8 bytes among
    them."""
    lines = list(VALID_RANGES) if draw(st.integers(0, 2)) else []
    lines += draw(st.lists(st.one_of(range_line(),
                                     st.sampled_from(RANGE_JUNK)),
                           max_size=2))
    return b"\n".join(draw(st.permutations(lines))) + b"\n"


def pick(valid, edge):
    """A valid value nine times in ten, else an edge value."""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(edge if i == 9 else valid))


def flag(name, valid, edge):
    """Absent half the time, else set by ``pick``."""
    return st.one_of(st.just([]), pick(valid, edge).map(
        lambda value: [f"--{name}={value}"]))


def thresholds(bounds):
    return [f"--threshold-low={bounds[0]}", f"--threshold-high={bounds[1]}"]


DCA_FLAGS = (
    flag("population", [5, 20, 1], [0, 2]),
    flag("cells-per-step", [1, 3], [0, 25]),
    flag("mcav-threshold", [0.8, 0, 1], [2, -0.5, "nan"]),
    st.one_of(st.just([]), pick(BOUNDS[1:4], BOUNDS[4:]).map(thresholds)),
)
EXTRA_FLAGS = {
    "e1.1": (),
    "e1.2": (flag("multipliers", ["1", "3,20"], ["0", "2,2", ","]),),
    "e1.3": (flag("windows", ["1", "2,50"],
                  ["0", "3,3", "a", str(2**63 - 1), str(10**20)]),),
    "custom": (flag("multiplier", [1, 4], [0]),
               flag("window", [1, 5], [0, 2**63 - 1, 10**20])),
    "e2": (flag("self-radius", [0.1, 0, 2], [-0.1, "inf", "nan"]),
           flag("detector-radius", [0.1, 0.05], [0, "inf", "nan"]),
           flag("fold-seed", [0, 3], [-1]),
           flag("dimensions", ["2,3", "1", "10"], ["0", "11", "3,3"])),
}


@st.composite
def experiment_flags(draw, command):
    """Flags of one experiment command. Seeds, and for E2 the detector count
    and the folds, are always given, valid or not, since their defaults
    would make an example slow."""
    argv = [f"--seeds={draw(pick(['1', '1,2', '3'], ['-1', '2,2']))}"]
    groups = EXTRA_FLAGS[command]
    if command == "e2":
        argv.append(f"--detectors={draw(pick([20, 1, 5], [0]))}")
        argv.append(f"--folds={draw(pick([2, 3, 5], [1, 40]))}")
    else:
        groups = DCA_FLAGS + groups
    for group in groups:
        argv += draw(group)
    return argv


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(COMMANDS))
    files = {"data.kdd": draw(data_file())}
    argv = [command, "data.kdd"]
    if command == "infogain":
        argv += ["--out", draw(st.sampled_from(["gain.tsv", "data.kdd",
                                                "missing/gain.tsv"]))]
    else:
        argv += ["--out", draw(st.sampled_from(["out", "out", "data.kdd"]))]
        argv += draw(experiment_flags(command))
        ranges = draw(st.sampled_from(["none", "none", "file", "file",
                                      "missing"]))
        if ranges != "none":
            argv += ["--ranges", "ranges.txt"]
        if ranges == "file":
            files["ranges.txt"] = draw(range_file())
    if draw(st.booleans()):
        argv.append("-v")
    return files, argv


def e1_run(ranges=None, *options):
    """An E1.1 invocation on a clean stream, with a range file if given."""
    data = "\n".join([normal_line()] * 5 + [anomalous_line()] * 5) + "\n"
    files, argv = {"data.kdd": data.encode()}, ["e1.1", "data.kdd",
                                                 "--out", "out", "--seeds=1"]
    if ranges is not None:
        files["ranges.txt"] = ranges
        argv += ["--ranges", "ranges.txt"]
    return files, argv + list(options)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(invocations())
@example(e1_run(b"serror_rate PAMP 0 1 +\n\xff\xfe bad\n"))
@example(e1_run(b"serror_rate PAMP 0 1 +\ncount DS -1e308 1e308 +\n"
                b"logged_in SS 0 1 +\n"))
@example(e1_run(None, "--threshold-low=-1e308", "--threshold-high=1e308"))
def test_every_input_maps_to_an_exit_code(invocation):
    files, argv = invocation
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for name, body in files.items():
            (root / name).write_bytes(body)
        argv = [str(root / arg) if arg in ("data.kdd", "ranges.txt", "out",
                                           "gain.tsv", "missing/gain.tsv")
                else arg for arg in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flag
                code = exc.code
        assert code in EXIT_CODES, (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if code == EXIT_OK and "ranges.txt" in files:
            for window in load_signal_config(root / "ranges.txt").ranges:
                assert normalize_signal(window.upper, window.lower,
                                        window.upper) == 100.0, window
