"""Checks on the report bodies one CLI invocation wrote.

``check_reports`` returns a list of problems (empty when the reports pass):
the sweep's row counts, every rate in [0, 1] or ``NA``, and every p-value
and info-gain in [0, 1]. ``digests`` hashes every report body, so runs can
be compared byte for byte; ``provenance.txt`` is left out because it echoes
the input path.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

REPORT_GLOBS = ("results.tsv", "per_seed.tsv", "roc_points.tsv",
                "mannwhitney.tsv", "mcav/*.tsv", "infogain.tsv")

# Columns holding a rate or a probability, by report.
UNIT_COLUMNS = {
    "results.tsv": ("tp_rate", "tn_rate", "fp_rate", "fn_rate"),
    "per_seed.tsv": ("tp_rate", "tn_rate", "fp_rate", "fn_rate"),
    "roc_points.tsv": ("fp_rate", "tp_rate"),
    "mannwhitney.tsv": ("p_value",),
    "infogain.tsv": ("gain",),
    "mcav": ("mcav",),
}


@dataclass(frozen=True)
class Sweep:
    """What one invocation is asked to run. Its CLI arguments and the row
    counts its reports must have both come from here."""

    command: str                         # "infogain", "e1.2" or "e2"
    seeds: tuple[int, ...] = ()
    multipliers: tuple[int, ...] = ()    # the e1.2 sweep points
    dimensions: tuple[int, ...] = ()     # the e2 sweep points

    @property
    def points(self) -> int:
        """Sweep points besides the E1.1 base run."""
        return len(self.multipliers) + len(self.dimensions)

    @property
    def runs(self) -> int:
        """Passes over the input: one parse, one DCA run or one
        (dimension, seed) NSA run."""
        if self.command == "infogain":
            return 1
        base = 1 if self.command.startswith("e1") else 0
        return (self.points + base) * len(self.seeds)

    def argv(self, data: Path, out_dir: Path) -> list[str]:
        if self.command == "infogain":
            return ["infogain", str(data), "--out", str(out_dir / "infogain.tsv")]
        argv = [self.command, str(data), "--out", str(out_dir)]
        for option, values in (("--seeds", self.seeds),
                               ("--multipliers", self.multipliers),
                               ("--dimensions", self.dimensions)):
            if values:
                argv += [option, ",".join(map(str, values))]
        return argv


def digests(out_dir: Path) -> dict[str, str]:
    found = {}
    for pattern in REPORT_GLOBS:
        for path in sorted(out_dir.glob(pattern)):
            key = path.relative_to(out_dir).as_posix()
            found[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def _rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split("\t") if lines else []
    return header, [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _unit_interval_problems(name: str, header, rows) -> list[str]:
    problems = []
    for column in UNIT_COLUMNS[name]:
        if column not in header:
            problems.append(f"{name}: no column {column}")
            continue
        for row in rows:
            text = row.get(column, "")
            if text == "NA":
                continue
            try:
                value = float(text)
            except ValueError:
                problems.append(f"{name}: {column}={text!r} is not a number")
                continue
            if math.isnan(value) or not 0.0 <= value <= 1.0:
                problems.append(f"{name}: {column}={text} outside [0, 1]")
    return problems


def check_reports(out_dir: Path, sweep: Sweep) -> list[str]:
    if sweep.command == "infogain":
        expected = {"infogain.tsv": 41}
    else:
        rows = sweep.points + (1 if sweep.command.startswith("e1") else 0)
        expected = {"results.tsv": rows,
                    "per_seed.tsv": rows * len(sweep.seeds),
                    "roc_points.tsv": rows}
        if sweep.command.startswith("e1"):
            expected["mannwhitney.tsv"] = sweep.points
    problems = []
    for name, count in expected.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        header, rows = _rows(path)
        if len(rows) != count:
            problems.append(f"{name}: {len(rows)} rows, expected {count}")
        problems += _unit_interval_problems(name, header, rows)
    if sweep.command.startswith("e1"):
        tables = sorted((out_dir / "mcav").glob("*.tsv"))
        expected_tables = (sweep.points + 1) * len(sweep.seeds)
        if len(tables) != expected_tables:
            problems.append(f"mcav: {len(tables)} tables, "
                            f"expected {expected_tables}")
        for table in tables:
            header, rows = _rows(table)
            problems += _unit_interval_problems("mcav", header, rows)
    return problems
