"""Acceptance gate.

Criteria 1-4 and 6 reproduce the reference experiment tables on the KDD-99
10% subset and need the real data file: set the DCA_IDS_KDD99 environment
variable to its path (plain or gzipped). Without it they skip. Criterion 5
is the data-free property suite and always runs.

Each check prints one "ACCEPTANCE <id>: PASS/FAIL" line (visible with -s or
on failure).
"""
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from dca_ids.dataset import kfold_split, read_kdd_file
from dca_ids.dca import DcaConfig, run_dca_with_log
from dca_ids.evaluation import confusion_from_instances, mann_whitney_two_sided
from dca_ids.experiments import AntigenTypes
from dca_ids.nsa import NsaParams, run_nsa
from dca_ids.signals import (
    default_signal_config,
    entropy2,
    signal_stream,
)

from test_dca import transform_signals
from test_evaluation import brute_mann_whitney_p
from test_signals import brute_entropy, brute_gain, small_gain_cases

DATA_ENV = "DCA_IDS_KDD99"
SEEDS = tuple(range(1, 11))

requires_data = pytest.mark.skipif(
    DATA_ENV not in os.environ,
    reason=f"set {DATA_ENV} to the KDD-99 10% data file to run this criterion",
)


def check(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared real-data machinery (criteria 1-4, 6)
# ---------------------------------------------------------------------------

class KddRuns:
    """Loads the data once and caches per-configuration sweep results."""

    def __init__(self, path):
        self.table = read_kdd_file(path)
        self.ranges = default_signal_config(self.table)
        self.types = AntigenTypes.of(self.table)
        self.signals = signal_stream(self.table, self.ranges)
        self._cache = {}

    def dca_rates(self, multiplier=1, window=1, seeds=SEEDS):
        key = (multiplier, window, seeds)
        if key not in self._cache:
            config = DcaConfig(multiplier=multiplier, window=window)
            truth = self.types.anomalous_share > config.mcav_threshold
            per_seed = []
            for seed in seeds:
                mcav, _ = run_dca_with_log(self.types.codes, self.signals,
                                           config, seed)
                per_seed.append(confusion_from_instances(
                    mcav > config.mcav_threshold, truth, self.types.counts
                ))
            self._cache[key] = per_seed
        return self._cache[key]

    @staticmethod
    def mean(rates, field):
        return float(np.mean([getattr(r, field) for r in rates]))


@pytest.fixture(scope="module")
def kdd():
    runs = KddRuns(os.environ[DATA_ENV])
    assert len(runs.table) == 494021, (
        f"expected the 494021-record 10% subset, got {len(runs.table)}"
    )
    return runs


@requires_data
def test_criterion_1_base_run_reproduction(kdd):
    rates = kdd.dca_rates()
    tp = kdd.mean(rates, "tp_rate")
    tn = kdd.mean(rates, "tn_rate")
    fp = kdd.mean(rates, "fp_rate")
    check(
        "1 (base run, Table-2 row E1.1)",
        abs(tp - 0.7375) <= 0.07 and tn >= 0.96 and fp <= 0.04,
        f"tp={tp:.4f} tn={tn:.4f} fp={fp:.4f}",
    )


@requires_data
def test_criterion_2_parameter_insensitivity(kdd):
    base_tp = [r.tp_rate for r in kdd.dca_rates()]
    failures = []
    for k in (5, 10, 50, 100):
        sample = [r.tp_rate for r in kdd.dca_rates(multiplier=k)]
        if mann_whitney_two_sided(sample, base_tp).reject:
            failures.append(f"k={k}")
    for w in (2, 3, 5, 7, 10):
        sample = [r.tp_rate for r in kdd.dca_rates(window=w)]
        if mann_whitney_two_sided(sample, base_tp).reject:
            failures.append(f"w={w}")
    check("2 (multiplier/window insensitivity)", not failures,
          f"rejected: {failures or 'none'}")


@requires_data
def test_criterion_3_large_window_degradation(kdd):
    tn_10 = kdd.mean(kdd.dca_rates(window=10), "tn_rate")
    tn_100 = kdd.mean(kdd.dca_rates(window=100), "tn_rate")
    tn_1000 = kdd.mean(kdd.dca_rates(window=1000), "tn_rate")
    check(
        "3 (large-window degradation)",
        tn_1000 <= tn_100 < tn_10 + 0.01,
        f"tn(w=10)={tn_10:.4f} tn(w=100)={tn_100:.4f} tn(w=1000)={tn_1000:.4f}",
    )


@requires_data
def test_criterion_4_negative_selection_collapse(kdd):
    attributes = kdd.ranges.attribute_names
    folds = kfold_split(len(kdd.table), 10, seed=1)
    dimensions = range(2, 11)
    by_dimension = {
        d: (float(np.mean([r.tp_rate for r in per_seed])),
            float(np.mean([r.fp_rate for r in per_seed])))
        for d, per_seed in zip(dimensions, run_nsa(
            kdd.table, attributes, dimensions, folds, NsaParams(), SEEDS))
    }
    tp2, fp2 = by_dimension[2]
    low_d_ok = tp2 >= 0.90 and abs(fp2 - 0.37) <= 0.12
    high_d_ok = all(by_dimension[d] == (0.0, 0.0) for d in range(6, 11))
    tps = [by_dimension[d][0] for d in (2, 3, 4, 5, 6)]
    monotone_ok = all(a >= b for a, b in zip(tps, tps[1:]))
    check(
        "4 (detector-space dimensionality sweep)",
        low_d_ok and high_d_ok and monotone_ok,
        f"d=2 tp={tp2:.4f} fp={fp2:.4f}; tp(2..6)={tps}",
    )


@requires_data
def test_criterion_6_determinism(kdd, tmp_path):
    from dca_ids.experiments import ExperimentConfig, run_experiment

    bodies = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(ExperimentConfig(
            experiment="E1.1",
            data_path=Path(os.environ[DATA_ENV]),
            output_dir=out,
            seeds=SEEDS,
            write_mcav_tables=False,
        ))
        bodies.append(
            (out / "results.tsv").read_text()
            + (out / "per_seed.tsv").read_text()
            + (out / "roc_points.tsv").read_text()
        )
    check("6 (report determinism)", bodies[0] == bodies[1])


# ---------------------------------------------------------------------------
# Criterion 5: data-free property suite
# ---------------------------------------------------------------------------

class TestCriterion5:
    def test_signal_transform_examples(self):
        ok = (
            transform_signals((0, 0, 0)) == (0.0, 0.0, 0.0)
            and transform_signals((100, 0, 0)) == (200.0, 0.0, 200.0)
            and transform_signals((0, 0, 100)) == (300.0, 300.0, -300.0)
        )
        check("5a (signal transform examples)", ok)

    def _synthetic(self, n=300):
        """Type codes of a stream cycling through five types."""
        return [i % 5 for i in range(n)]

    def test_pure_streams(self):
        antigens = self._synthetic()
        safe = np.tile((0.0, 0.0, 100.0), (len(antigens), 1))
        pamp = np.tile((100.0, 0.0, 0.0), (len(antigens), 1))
        config = DcaConfig()
        mcav_safe, _ = run_dca_with_log(antigens, safe, config, seed=1)
        mcav_pamp, _ = run_dca_with_log(antigens, pamp, config, seed=1)
        ok = (mcav_safe.tolist() == [0.0] * 5
              and mcav_pamp.tolist() == [1.0] * 5)
        check("5b (all-safe MCAV 0 / all-pamp MCAV 1)", ok)

    def test_identity_transforms(self):
        antigens = self._synthetic()
        signals = np.random.default_rng(0).random((len(antigens), 3)) * 100
        base, _ = run_dca_with_log(antigens, signals, DcaConfig(), seed=2)
        explicit, _ = run_dca_with_log(
            antigens, signals, DcaConfig(multiplier=1, window=1), seed=2
        )
        check("5c (k=1/w=1 identical to base)",
              np.array_equal(base, explicit))

    def test_antigen_conservation(self):
        antigens = self._synthetic(200)
        signals = np.random.default_rng(1).random((len(antigens), 3)) * 100
        ok = True
        for k in (1, 4, 25):
            _, log = run_dca_with_log(
                antigens, signals, DcaConfig(multiplier=k), seed=3
            )
            ok = ok and log.total_presentations == k * len(antigens)
        check("5d (antigen conservation)", ok)

    def test_entropy_and_gain_against_brute_force(self):
        ok = True
        for values, labels, got in small_gain_cases():
            want = max(brute_gain(values, labels), 0.0)
            if not math.isclose(got, want, abs_tol=1e-12):
                ok = False
        # entropy itself against the oracle on a proportion sweep
        for i in range(0, 101):
            p = i / 100
            labels = ["normal"] * i + ["anomalous"] * (100 - i)
            if not math.isclose(entropy2(p, 1 - p), brute_entropy(labels),
                                abs_tol=1e-12):
                ok = False
        check("5e (entropy/info-gain brute-force oracle)", ok)

    def test_mann_whitney_against_enumeration(self):
        ok = True
        for n_x in range(1, 8):
            for n_y in range(1, 8):
                pool = [float(i + 1) for i in range(n_x + n_y)]
                for split in itertools.combinations(range(n_x + n_y), n_x):
                    x = [pool[i] for i in split]
                    y = [pool[i] for i in range(n_x + n_y)
                         if i not in split]
                    got = mann_whitney_two_sided(x, y).p_value
                    want = brute_mann_whitney_p(x, y)
                    if not math.isclose(got, want, abs_tol=1e-12):
                        ok = False
        check("5f (Mann-Whitney exact enumeration, n<=7)", ok)

    def test_nsa_censoring_and_monotonicity(self):
        from dca_ids.nsa import Censor, classify_points, generate_detectors

        rng = np.random.default_rng(5)
        self_points = rng.random((30, 3))
        detectors = generate_detectors(Censor(self_points, 0.1, 0.1), 40,
                                       seed=6, max_attempts=5000)
        censored_ok = all(
            np.linalg.norm(center - point) >= 0.2
            for center in detectors for point in self_points
        )
        points = rng.random((100, 3))
        small = classify_points(points, detectors[:10])
        large = classify_points(points, detectors)
        monotone_ok = bool(large[small].all())
        check("5g (detector censoring and monotone classification)",
              censored_ok and monotone_ok)
