"""Metamorphic relations over the whole pipeline: how the reports must move
when the input moves.

Each relation transforms a 3,000-record ``bench/kddgen.py`` stream, runs
``e1.1``, ``e1.3 --windows 2,10``, ``e2 --dimensions 2,3,5,10`` (seeds 1
and 2) and ``infogain`` on it, and compares every report body with the
runs on the unchanged stream.

- Rename: every protocol_type, service and flag value mapped through a
  drawn bijection leaves every report body byte-identical, and each MCAV
  table holds the same rows up to the names, in the order of the new names.
  The cell population never sees the antigen codes, and every rate sums
  integer counts.
- Scale: every numeric field that is neither a ``*_rate`` nor a binary
  nominal multiplied by 2**j leaves every report body byte-identical.
  Percentile bounds, min-max scaling and equal-width bins all scale exactly
  by a power of two, as long as no count attribute falls back to
  ``_FALLBACK_COUNT_BOUNDS``, which do not scale. E2's dimension 10 takes
  the three count attributes among its columns.
"""
import functools
import tempfile
from pathlib import Path

from hypothesis import Phase, example, given, settings, strategies as st

from dca_ids.cli import EXIT_OK, main
from dca_ids.dataset import (ATTRIBUTE_NAMES, CODED_ATTRIBUTES,
                             CONTINUOUS_ATTRIBUTES)
from dca_ids.signals import _FALLBACK_COUNT_BOUNDS, default_signal_config

from conftest import parse_lines
from test_parse_equivalence import kddgen_text

RUNS = {
    "e1.1": [],
    "e1.3": ["--windows", "2,10"],
    "e2": ["--dimensions", "2,3,5,10"],
}
CODED = [ATTRIBUTE_NAMES.index(name) for name in CODED_ATTRIBUTES]
SCALED = [i for i, name in enumerate(ATTRIBUTE_NAMES)
          if name in CONTINUOUS_ATTRIBUTES and not name.endswith("_rate")]
NAME = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1,
               max_size=6)
# Each example runs the whole pipeline twice over, so a failing one is
# reported as drawn: shrinking it would rerun the pipeline hundreds of times.
RELATION = settings(max_examples=3, deadline=None, derandomize=True,
                    phases=[Phase.explicit, Phase.generate])


def reports(lines):
    """Every ``.tsv`` report body of the ``RUNS`` and of ``infogain`` on
    ``lines``, keyed by its path under the runs' directory."""
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        data = directory / "data.kdd"
        data.write_text("".join(line + "\n" for line in lines))
        for command, options in RUNS.items():
            assert main([command, str(data), "--out", str(directory / command),
                         "--seeds", "1,2", *options]) == EXIT_OK
        assert main(["infogain", str(data), "--out",
                     str(directory / "infogain.tsv")]) == EXIT_OK
        return {str(path.relative_to(directory)): path.read_text()
                for path in directory.rglob("*.tsv")}


@functools.cache
def unchanged():
    """The unchanged stream's lines and report bodies, run once. A test
    calls it, not a fixture, so a failing example does not print them."""
    lines = kddgen_text(3_000, 7).splitlines()
    return lines, reports(lines)


@RELATION
@given(data=st.data())
def test_renaming_the_nominals_leaves_every_report(data):
    lines, base = unchanged()
    rows = [line.split(",") for line in lines]
    names = {}
    for i in CODED:
        values = sorted({row[i] for row in rows})
        drawn = data.draw(st.lists(NAME, min_size=len(values),
                                   max_size=len(values), unique=True),
                          label=ATTRIBUTE_NAMES[i])
        names[i] = dict(zip(values, drawn))
    for row in rows:
        for i in CODED:
            row[i] = names[i][row[i]]

    def renamed(table):
        """An MCAV table's rows with their antigen types renamed, in the
        order of the new names."""
        header, *entries = table.splitlines()
        renamed_rows = []
        for entry in entries:
            antigen, rest = entry.split("\t", 1)
            triple = (names[i][value]
                      for i, value in zip(CODED, antigen.split(":")))
            renamed_rows.append(":".join(triple) + "\t" + rest)
        return "".join(f"{line}\n"
                       for line in [header, *sorted(renamed_rows)])

    assert any(path.startswith("e1.1/mcav/") for path in base)
    assert reports(map(",".join, rows)) == {
        path: renamed(body) if "/mcav/" in path else body
        for path, body in base.items()}


@RELATION
@given(j=st.integers(-12, 12).filter(bool))
@example(j=1)
@example(j=-3)
def test_scaling_counts_and_sizes_leaves_every_report(j):
    lines, base = unchanged()
    rows = [line.split(",") for line in lines]
    for row in rows:
        for i in SCALED:
            row[i] = repr(float(row[i]) * 2.0**j)
    scaled = list(map(",".join, rows))
    config = default_signal_config(parse_lines(scaled))
    for r in config.ranges:
        if r.name in _FALLBACK_COUNT_BOUNDS:
            assert (r.lower, r.upper) != _FALLBACK_COUNT_BOUNDS[r.name]
    assert reports(scaled) == base
