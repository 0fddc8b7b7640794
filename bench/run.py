"""Benchmark of the dca-ids CLI on seeded synthetic KDD-format streams.

    python3 bench/run.py --workload e1-sweep --seed 3 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 10

Each workload generates its input from ``--seed`` (untimed), measures the
set-up cost of a fresh interpreter, then runs the real CLI as a child
process in a closed loop with one client, one invocation at a time, for
``--seconds``. With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` every untraced child is followed
by a traced ``dca_ids.cli.main(argv)`` call in this process, and the JSON
holds the per-layer metrics from its spans (see bench/METRICS.md).
``--workload all`` prints the end-to-end table of every workload instead.

Every invocation's reports are checked; a failed check counts the
invocation as failed and makes ``correct`` false.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kddgen import generate
from outputs import Sweep, check_reports, digests
from spans import LAYER_METRICS, Instrumented, Recorder, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"

DEFAULT_SEED = 1
MIN_INVOCATIONS = 3
SETUP_CODE = "import dca_ids.cli as cli; cli.build_parser(); print(cli.__file__)"

END_TO_END_UNITS = {"wall_s": "s", "records_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    sweep: Sweep


# Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
WORKLOADS = {
    "ingest": Workload("ingest", 12_000, Sweep("infogain")),
    "e1-sweep": Workload("e1-sweep", 3_000,
                         Sweep("e1.2", seeds=(1, 2), multipliers=(100,))),
    "e2-nsa": Workload("e2-nsa", 3_000,
                       Sweep("e2", seeds=(1, 2, 3),
                             dimensions=tuple(range(2, 11)))),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or the wrong one)."""


@dataclass
class Invocation:
    wall_s: float
    problems: list[str]
    digests: dict[str, str] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its
    parser: what every invocation pays before it reads any data."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"cannot import dca_ids.cli:\n{proc.stderr}")
    loaded = Path(proc.stdout.strip()).resolve()
    if SRC.resolve() not in loaded.parents:
        raise BenchError(f"dca_ids.cli loaded from {loaded}, not {SRC}")
    return elapsed


def run_child(workload: Workload, data: Path, out_dir: Path) -> Invocation:
    """One untraced CLI invocation, timed from spawn to reap."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    stderr_path = out_dir.parent / (out_dir.name + ".stderr")
    with open(os.devnull, "wb") as devnull, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dca_ids.cli",
             *workload.sweep.argv(data, out_dir)],
            cwd=ROOT, env=child_env(), stdout=devnull, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if "Traceback (most recent call last)" in stderr_path.read_text():
        problems.append(f"traceback in {stderr_path}")
    problems += check_reports(out_dir, workload.sweep)
    return Invocation(wall, problems, digests(out_dir),
                      peak_rss_mb=usage.ru_maxrss / 1024.0,
                      cpu_s=usage.ru_utime + usage.ru_stime)


def run_traced(workload: Workload, data: Path, out_dir: Path):
    """One in-process ``main(argv)`` call with every wrap target installed.

    Returns the invocation and its per-layer metrics.
    """
    import dca_ids.cli

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    recorder = Recorder()
    problems = []
    with Instrumented(recorder) as instrumented:
        start = time.perf_counter()
        try:
            code = dca_ids.cli.main(workload.sweep.argv(data, out_dir))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            problems.append(traceback.format_exc())
        wall = time.perf_counter() - start
    if code != 0:
        problems.append(f"main returned {code}")
    problems += check_reports(out_dir, workload.sweep)
    multipliers = workload.sweep.multipliers
    metrics = layer_metrics(recorder.spans, wall, instrumented.missing,
                            multipliers[-1] if multipliers else None)
    return Invocation(wall, problems, digests(out_dir)), metrics


def expected_digests(workload: str, seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED or not EXPECTED_DIGESTS.is_file():
        return None
    return json.loads(EXPECTED_DIGESTS.read_text()).get(workload)


def median_metrics(samples: list[dict]) -> dict:
    merged = {}
    for name in samples[0]:
        values = [s[name] for s in samples if s[name] is not None]
        merged[name] = statistics.median(values) if values else None
    return merged


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dca_ids").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: Workload, seed: int, data: Path, stream) -> dict:
    import scipy

    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": workload.name,
        "seed": seed,
        "files": [{"name": data.name, "records": stream.records,
                   "bytes": data.stat().st_size,
                   "anomalous": stream.anomalous,
                   "types_present": stream.types_present}],
        "data": "synthetic stand-in (bench/kddgen.py), not the KDD-99 file",
    }


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stream = generate(workload.records, seed)
    data = work / "stream.kdd"
    data.write_text(stream.text)
    if trace:
        sys.path.insert(0, str(SRC))

    time_setup()  # untimed: writes the bytecode caches
    golden = expected_digests(workload.name, seed)
    setups: list[float] = []
    children: list[Invocation] = []
    traced: list[Invocation] = []
    layer_samples: list[dict] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(children) < MIN_INVOCATIONS:
        setups.append(time_setup())
        child = run_child(workload, data, work / "out")
        reference = golden or (children[0].digests if children else None)
        if reference is not None and child.digests != reference:
            child.problems.append("report bodies differ from the reference")
        children.append(child)
        if trace:
            invocation, layers = run_traced(workload, data, work / "traced")
            if invocation.digests != child.digests:
                invocation.problems.append(
                    "traced report bodies differ from the untraced run")
            traced.append(invocation)
            layer_samples.append(layers)

    invocations = children + traced
    failed = sum(1 for inv in invocations if inv.problems)
    walls = sorted(c.wall_s for c in children)
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    end_to_end = {
        "wall_s": wall_s,
        "records_per_s": workload.records * workload.sweep.runs / wall_s,
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        "setup_s": setup_s,
    }
    result = {
        "workload": workload.name,
        "invocations": len(invocations),
        "failed": failed,
        "problems": sorted({p for inv in invocations for p in inv.problems}),
        "end_to_end": end_to_end,
        "wall_range": (walls[0], walls[-1]),
        "provenance": provenance(workload, seed, data, stream),
    }
    if trace:
        layers = median_metrics(layer_samples)
        layers["cli.cpu_s"] = statistics.median(c.cpu_s for c in children)
        layers["trace.overhead_s"] = (statistics.median(t.wall_s
                                                        for t in traced)
                                      - (wall_s - setup_s))
        result["layers"] = layers
    return result


def _json_metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values.get(name), "unit": unit}
            for name, unit in units.items()}


def _print_table(results: list[dict]) -> None:
    print(f"{'workload':<10} {'wall_s (s)':>11} {'records_per_s (1/s)':>20} "
          f"{'peak_rss_mb (MB)':>17} {'setup_s (s)':>12} {'error_rate':>11} "
          f"{'n':>3} {'wall min/max (s)':>17}")
    for r in results:
        e = r["end_to_end"]
        fastest, slowest = r["wall_range"]
        print(f"{r['workload']:<10} {e['wall_s']:>11.4f} "
              f"{e['records_per_s']:>20.1f} {e['peak_rss_mb']:>17.1f} "
              f"{e['setup_s']:>12.4f} "
              f"{r['failed'] / r['invocations']:>11.4f} "
              f"{r['invocations']:>3} {fastest:>9.4f}/{slowest:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the report digests of the default seed "
                             "as the expected ones")
    args = parser.parse_args(argv)

    if not (SRC / "dca_ids" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'dca_ids'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) and args.workload != "all"
    try:
        results = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                                trace) for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for r in results:
        for problem in r["problems"]:
            print(f"{r['workload']}: FAILED CHECK: {problem}", file=sys.stderr)
    if args.write_digests:
        _write_digests(names, args.seed)
    _print_table(results)
    for r in results:
        print("provenance: " + json.dumps(r["provenance"], sort_keys=True))
    if args.workload == "all":
        return 1 if any(r["failed"] for r in results) else 0

    r = results[0]
    if trace:
        for name, unit in LAYER_METRICS.items():
            value = r["layers"][name]
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {name:<30} {shown:>14} {unit}")
        metrics = _json_metrics(r["layers"], LAYER_METRICS)
    else:
        metrics = _json_metrics(r["end_to_end"], END_TO_END_UNITS)
    print(json.dumps({"correct": r["failed"] == 0,
                      "attempted": r["invocations"],
                      "failed": r["failed"],
                      "metrics": metrics}))
    return 0


def _write_digests(names: list[str], seed: int) -> None:
    if seed != DEFAULT_SEED:
        raise SystemExit(f"--write-digests needs --seed {DEFAULT_SEED}")
    recorded = (json.loads(EXPECTED_DIGESTS.read_text())
                if EXPECTED_DIGESTS.is_file() else {})
    for name in names:
        recorded[name] = digests(WORK / name / "out")
    EXPECTED_DIGESTS.write_text(json.dumps(recorded, indent=2,
                                           sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
