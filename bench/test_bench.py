"""Tests of the benchmark's own parts: generator, span arithmetic, wrapping."""
import sys
import types
from pathlib import Path

import pytest

from kddgen import ATTRIBUTES, CLASS_COUNTS, class_sizes, generate
from outputs import Sweep, check_reports
from spans import (Instrumented, LAYER_METRICS, WRAP_TARGETS, Recorder, Span,
                   layer_metrics, self_times)


def test_generator_is_deterministic_per_seed():
    first = generate(500, 3)
    assert first.text == generate(500, 3).text
    assert first.text != generate(500, 4).text


def test_generator_plants_the_signal_patterns():
    stream = generate(2000, 5)
    lines = stream.text.splitlines()
    assert len(lines) == stream.records == 2000
    column = {name: i for i, name in enumerate(ATTRIBUTES)}
    anomalous = 0
    for line in lines:
        fields = line.split(",")
        assert len(fields) == 42
        if fields[-1] == "normal.":
            assert fields[column["logged_in"]] == "1"
            assert float(fields[column["srv_diff_host_rate"]]) >= 0.7
        else:
            anomalous += 1
            assert fields[column["logged_in"]] == "0"
            assert float(fields[column["serror_rate"]]) >= 0.8
            assert int(fields[column["count"]]) >= 300
    assert anomalous == stream.anomalous == 2000 - class_sizes(2000)["normal"]
    assert stream.types_present > 15


@pytest.mark.parametrize("records", [1, 3000, 12000, 494_021])
def test_class_sizes_follow_the_real_file(records):
    sizes = class_sizes(records)
    assert sum(sizes.values()) == records
    total = sum(CLASS_COUNTS.values())
    for name, count in CLASS_COUNTS.items():
        assert abs(sizes[name] - records * count / total) < 1
    if records == total:
        assert sizes == CLASS_COUNTS


def _nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  c [10, 12]
    return [
        Span("experiments.run_experiment", 0.0, 10.0, None),
        Span("dca.run", 1.0, 4.0, 0, {"steps": 30, "multiplier": 1,
                                      "copies": 30, "presented_types": 2}),
        Span("signals.time_window", 2.0, 3.0, 1),
        Span("nsa.run", 5.0, 9.0, 0),
        Span("experiments.emit_report", 10.0, 12.0, None),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_nested_spans()) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_layer_metrics_from_nested_spans():
    metrics = layer_metrics(_nested_spans(), wall_s=13.0)
    assert metrics["dca.run_s"] == 2.0
    assert metrics["dca.run_k1_s"] == 3.0
    assert metrics["dca.steps_per_s"] == 10.0
    assert metrics["nsa.run_s"] == 4.0
    assert metrics["experiments.self_s"] == 3.0
    assert metrics["experiments.emit_s"] == 2.0
    assert metrics["experiments.share"] == 5.0 / 13.0
    assert metrics["trace.unattributed_s"] == 1.0
    # No antigen stream span: the ratio has no base and reads 0.
    assert metrics["dca.presented_type_frac"] == 0.0
    assert set(metrics) | {"cli.cpu_s", "trace.overhead_s"} == set(LAYER_METRICS)


def test_recorder_links_parents_and_survives_bad_counts():
    recorder = Recorder()

    def broken_counts(args, kwargs, result):
        return {"length": len(result)}

    inner = recorder.wrap("inner", lambda: None, broken_counts)
    outer = recorder.wrap("outer", lambda: inner() or 7)
    assert outer() == 7
    assert [(s.name, s.parent) for s in recorder.spans] == [("outer", None),
                                                            ("inner", 0)]
    assert recorder.spans[1].counts == {}


def test_missing_wrap_targets_are_reported_not_fatal(monkeypatch):
    module = types.ModuleType("bench_fake_layer")
    module.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "bench_fake_layer", module)
    original = module.present
    targets = (
        ("bench_fake_layer", "present", "dca.run", None),
        ("bench_fake_layer", "deleted", "nsa.run", None),
        ("bench_no_such_module", "anything", "dataset.attribute_matrix", None),
    )
    recorder = Recorder()
    with Instrumented(recorder, targets) as instrumented:
        assert module.present(1) == 2
    assert module.present is original
    assert instrumented.missing == {"nsa.run", "dataset.attribute_matrix"}
    assert [s.name for s in recorder.spans] == ["dca.run"]
    metrics = layer_metrics(recorder.spans, 1.0, instrumented.missing)
    missing = {name for name, value in metrics.items() if value is None}
    assert missing == {"nsa.run_s", "nsa.test_points_per_s",
                       "dataset.attribute_matrix_s",
                       "dataset.attribute_matrix_calls"}
    # A metric summed over several spans survives while one of them exists.
    metrics = layer_metrics(_nested_spans(), 13.0,
                            frozenset({"experiments.emit_infogain"}))
    assert metrics["experiments.emit_s"] == 2.0
    # With every target gone, every metric read from spans is missing.
    metrics = layer_metrics([], 1.0, frozenset(t[2] for t in WRAP_TARGETS))
    assert [name for name, value in metrics.items() if value is not None] == [
        "trace.wall_s", "trace.unattributed_s", "dataset.share",
        "signals.share", "dca.share", "nsa.share", "evaluation.share",
        "experiments.share"]
    # With every target gone, every metric read from spans is missing.
    metrics = layer_metrics([], 1.0, frozenset(t[2] for t in WRAP_TARGETS))
    assert [name for name, value in metrics.items() if value is not None] == [
        "trace.wall_s", "trace.unattributed_s", "dataset.share",
        "signals.share", "dca.share", "nsa.share", "evaluation.share",
        "experiments.share"]


def test_sweep_gives_argv_row_counts_and_passes():
    sweep = Sweep("e1.2", seeds=(1, 2), multipliers=(100,))
    assert sweep.argv(Path("in.kdd"), Path("out")) == [
        "e1.2", "in.kdd", "--out", "out", "--seeds", "1,2",
        "--multipliers", "100"]
    assert (sweep.points, sweep.runs) == (1, 4)
    e2 = Sweep("e2", seeds=(1, 2, 3), dimensions=tuple(range(2, 11)))
    assert (e2.points, e2.runs) == (9, 27)
    assert Sweep("infogain").runs == 1


@pytest.mark.parametrize("rate, problem", [("0.5", False), ("NA", False),
                                           ("1.5", True), ("nan", True)])
def test_report_check_flags_rates_outside_the_unit_interval(tmp_path, rate,
                                                           problem):
    header = "category\tparameter\ttp_rate\ttn_rate\tfp_rate\tfn_rate\n"
    (tmp_path / "results.tsv").write_text(header + f"E2\t2\t{rate}\t1\t0\t0\n")
    (tmp_path / "per_seed.tsv").write_text(
        "category\tparameter\tseed\ttp_rate\ttn_rate\tfp_rate\tfn_rate\n"
        "E2\t2\t1\t0.5\t1\t0\t0\n")
    (tmp_path / "roc_points.tsv").write_text("fp_rate\ttp_rate\tlabel\n"
                                             "0\t0.5\tE2(2)\n")
    problems = check_reports(tmp_path, Sweep("e2", seeds=(1,), dimensions=(2,)))
    assert bool(problems) == problem
