"""Spans recorded from outside the program, and the per-layer metrics.

The traced run replaces public ``dca_ids`` functions in the module where
their caller looks them up (``dca_ids.experiments.run_dca_with_log``, not
``dca_ids.dca.run_dca_with_log``) with a wrapper that records one span per
call: name, start, end, parent and a few counts read from the arguments and
the result. Nothing under ``src/`` changes. A target that no longer exists is
listed as missing, and the metrics built from it read ``None``.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The program is single-threaded, so children of one span never overlap.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


class Recorder:
    """Keeps spans in memory, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable,
             describe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if describe is not None:
                try:
                    span.counts = describe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span.counts = {}
            return result
        return traced


# ---------------------------------------------------------------------------
# Wrap targets: (module, attribute, span name, counts from the call)
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _records(args, kwargs, result):
    return {"records": len(result)}


def _antigens(args, kwargs, result):
    return {"antigen_types": len(set(result))}


def _dca_run(args, kwargs, result):
    mcav, log = result
    steps = len(_arg(args, kwargs, 0, "antigens"))
    multiplier = _arg(args, kwargs, 2, "config").multiplier
    return {"steps": steps, "multiplier": multiplier,
            "copies": steps * multiplier,
            "presentations": log.total_presentations,
            "presented_types": len(mcav)}


def _detectors(args, kwargs, result):
    return {"requested": _arg(args, kwargs, 1, "count"),
            "returned": len(result)}


def _classified(args, kwargs, result):
    return {"points": len(result)}


WRAP_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("dca_ids.cli", "read_kdd_file", "dataset.read_kdd_file", _records),
    ("dca_ids.experiments", "read_kdd_file", "dataset.read_kdd_file", _records),
    ("dca_ids.experiments", "kfold_split", "dataset.kfold_split", None),
    ("dca_ids.nsa", "attribute_matrix", "dataset.attribute_matrix", None),
    ("dca_ids.nsa", "minmax_fit", "dataset.minmax", None),
    ("dca_ids.nsa", "minmax_apply", "dataset.minmax", None),
    ("dca_ids.experiments", "attribute_gains", "signals.attribute_gains", None),
    ("dca_ids.experiments", "default_signal_config", "signals.config", None),
    ("dca_ids.experiments", "load_signal_config", "signals.config", None),
    ("dca_ids.experiments", "antigen_stream", "signals.streams", _antigens),
    ("dca_ids.experiments", "signal_stream", "signals.streams", None),
    ("dca_ids.dca", "apply_time_window", "signals.time_window", None),
    ("dca_ids.experiments", "run_dca_with_log", "dca.run", _dca_run),
    ("dca_ids.experiments", "classify_types", "dca.classify_types", None),
    ("dca_ids.experiments", "write_mcav_table", "dca.write_mcav_table", None),
    ("dca_ids.experiments", "run_nsa", "nsa.run", None),
    ("dca_ids.nsa", "generate_detectors", "nsa.generate_detectors", _detectors),
    ("dca_ids.nsa", "classify_points", "nsa.classify_points", _classified),
    ("dca_ids.experiments", "perfect_mcav", "evaluation.perfect_mcav", None),
    ("dca_ids.experiments", "type_instance_counts",
     "evaluation.type_instance_counts", None),
    ("dca_ids.experiments", "confusion_from_types",
     "evaluation.confusion", None),
    ("dca_ids.evaluation", "confusion_from_instances",
     "evaluation.confusion", None),
    ("dca_ids.experiments", "average_runs", "evaluation.average", None),
    ("dca_ids.evaluation", "average_rates", "evaluation.average", None),
    ("dca_ids.experiments", "mann_whitney_two_sided",
     "evaluation.mann_whitney", None),
    ("dca_ids.cli", "run_experiment", "experiments.run_experiment", None),
    ("dca_ids.experiments", "emit_report", "experiments.emit_report", None),
    ("dca_ids.cli", "emit_infogain", "experiments.emit_infogain", None),
)


class Instrumented:
    """Context manager that installs the wrappers and restores the originals.

    ``missing`` lists the span names whose every target is gone.
    """

    def __init__(self, recorder: Recorder, targets=WRAP_TARGETS):
        self.recorder = recorder
        self.targets = targets
        self.missing: frozenset[str] = frozenset()
        self._saved: list[tuple[object, str, Callable]] = []

    def __enter__(self):
        found = set()
        for module_name, attribute, name, describe in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attribute, None)
            if not callable(original):
                continue
            self._saved.append((module, attribute, original))
            setattr(module, attribute,
                    self.recorder.wrap(name, original, describe))
            found.add(name)
        self.missing = frozenset(t[2] for t in self.targets) - found
        return self

    def __exit__(self, *exc):
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced invocation
# ---------------------------------------------------------------------------

LAYERS = ("dataset", "signals", "dca", "nsa", "evaluation", "experiments")
EVALUATION_SPANS = ("evaluation.perfect_mcav", "evaluation.type_instance_counts",
                    "evaluation.confusion", "evaluation.average",
                    "evaluation.mann_whitney")

# Every per-layer metric and its unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "dataset.read_s": "s",
    "dataset.read_us_per_record": "us",
    "dataset.records": "count",
    "dataset.attribute_matrix_s": "s",
    "dataset.attribute_matrix_calls": "count",
    "dataset.minmax_s": "s",
    "dataset.share": "frac",
    "signals.attribute_gains_s": "s",
    "signals.config_s": "s",
    "signals.streams_s": "s",
    "signals.time_window_s": "s",
    "signals.antigen_types": "count",
    "signals.share": "frac",
    "dca.run_s": "s",
    "dca.runs": "count",
    "dca.steps_per_s": "1/s",
    "dca.run_k1_s": "s",
    "dca.run_k100_s": "s",
    "dca.antigen_copies_per_s": "1/s",
    "dca.presentations": "count",
    "dca.presented_type_frac": "frac",
    "dca.write_mcav_table_s": "s",
    "dca.share": "frac",
    "nsa.run_s": "s",
    "nsa.generate_detectors_s": "s",
    "nsa.classify_points_s": "s",
    "nsa.folds": "count",
    "nsa.test_points_per_s": "1/s",
    "nsa.detector_fill_frac": "frac",
    "nsa.share": "frac",
    "evaluation.s": "s",
    "evaluation.mann_whitney_s": "s",
    "evaluation.share": "frac",
    "experiments.self_s": "s",
    "experiments.emit_s": "s",
    "experiments.share": "frac",
    "cli.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans: list[Span], wall_s: float,
                  missing: frozenset[str] = frozenset(),
                  multiplier: int | None = None) -> dict:
    """Per-layer numbers of one traced invocation lasting ``wall_s``.

    ``missing`` holds the span names whose wrap targets no longer exist; a
    number read only from those spans is None, and None carries through the
    ratios built on it. ``multiplier`` is the swept E1.2 multiplier, whose
    runs ``dca.run_k100_s`` times. Layer-wide numbers (``<layer>.share``,
    ``evaluation.s``) use self time, so that no second is counted in two
    layers. A layer the workload does not exercise reads 0. ``cli.cpu_s``
    and ``trace.overhead_s`` need the untraced child and are filled in by
    the caller.
    """
    own = self_times(spans)

    def pick(*names):
        return [(s, t) for s, t in zip(spans, own) if s.name in names]

    def gone(names):
        return set(names) <= missing

    def total(*names):
        return None if gone(names) else sum(s.duration for s, _ in pick(*names))

    def self_total(*names):
        return None if gone(names) else sum(t for _, t in pick(*names))

    def calls(name):
        return None if gone((name,)) else len(pick(name))

    def count(name, key):
        if gone((name,)):
            return None
        return sum(s.counts.get(key, 0) for s, _ in pick(name))

    def run_median(k):
        if gone(("dca.run",)):
            return None
        times = [s.duration for s, _ in pick("dca.run")
                 if k is not None and s.counts.get("multiplier") == k]
        return statistics.median(times) if times else 0.0

    layer_self = {layer: sum(t for s, t in zip(spans, own)
                             if s.name.split(".")[0] == layer)
                  for layer in LAYERS}
    runs = calls("dca.run")
    run_time = total("dca.run")
    read_s = total("dataset.read_kdd_file")
    records = count("dataset.read_kdd_file", "records")
    per_record = _ratio(read_s, records)
    antigen_types = None if gone(("signals.streams",)) else max(
        (s.counts.get("antigen_types", 0) for s, _ in pick("signals.streams")),
        default=0)
    metrics = {
        "dataset.read_s": read_s,
        "dataset.read_us_per_record":
            None if per_record is None else 1e6 * per_record,
        "dataset.records": records,
        "dataset.attribute_matrix_s": total("dataset.attribute_matrix"),
        "dataset.attribute_matrix_calls": calls("dataset.attribute_matrix"),
        "dataset.minmax_s": total("dataset.minmax"),
        "signals.attribute_gains_s": total("signals.attribute_gains"),
        "signals.config_s": total("signals.config"),
        "signals.streams_s": total("signals.streams"),
        "signals.time_window_s": total("signals.time_window"),
        "signals.antigen_types": antigen_types,
        "dca.run_s": self_total("dca.run"),
        "dca.runs": runs,
        "dca.steps_per_s": _ratio(count("dca.run", "steps"), run_time),
        "dca.run_k1_s": run_median(1),
        "dca.run_k100_s": run_median(multiplier),
        "dca.antigen_copies_per_s": _ratio(count("dca.run", "copies"),
                                           run_time),
        "dca.presentations": count("dca.run", "presentations"),
        "dca.presented_type_frac": _ratio(
            count("dca.run", "presented_types"),
            None if runs is None or antigen_types is None
            else runs * antigen_types),
        "dca.write_mcav_table_s": total("dca.write_mcav_table"),
        "nsa.run_s": self_total("nsa.run"),
        "nsa.generate_detectors_s": total("nsa.generate_detectors"),
        "nsa.classify_points_s": total("nsa.classify_points"),
        "nsa.folds": calls("nsa.generate_detectors"),
        "nsa.test_points_per_s": _ratio(
            count("nsa.classify_points", "points"), total("nsa.run")),
        "nsa.detector_fill_frac": _ratio(
            count("nsa.generate_detectors", "returned"),
            count("nsa.generate_detectors", "requested")),
        "evaluation.s": self_total(*EVALUATION_SPANS),
        "evaluation.mann_whitney_s": total("evaluation.mann_whitney"),
        "experiments.self_s": self_total("experiments.run_experiment"),
        "experiments.emit_s": self_total("experiments.emit_report",
                                         "experiments.emit_infogain"),
        "trace.wall_s": wall_s,
        "trace.unattributed_s":
            wall_s - sum(s.duration for s in spans if s.parent is None),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = _ratio(layer_self[layer], wall_s)
    return metrics
