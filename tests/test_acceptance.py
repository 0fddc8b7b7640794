"""Acceptance gate.

Criteria 1-4 and 6 reproduce the reference experiment tables on the KDD-99
10% subset and need the real data file: set the DCA_IDS_KDD99 environment
variable to its path (plain or gzipped). Without it they skip. Criteria 1-4
read the sweep points that ``run_experiment`` returns for E1.2, E1.3 and E2
at the default configuration, as ``dca-ids e1.2 DATA`` and its siblings run
them. Criterion 5 is the data-free property suite and always runs.

Each check prints one "ACCEPTANCE <id>: PASS/FAIL" line (visible with -s or
on failure).
"""
import itertools
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from dca_ids.dataset import read_kdd_file
from dca_ids.dca import DcaConfig, run_dca_with_log
from dca_ids.evaluation import mann_whitney_two_sided
from dca_ids.experiments import ExperimentConfig, run_experiment
from dca_ids.signals import entropy2

from conftest import forks
from test_dca import transform_signals
from test_evaluation import brute_mann_whitney_p
from test_golden_reports import golden_lines
from test_signals import brute_entropy, brute_gain, small_gain_cases

DATA_ENV = "DCA_IDS_KDD99"

requires_data = pytest.mark.skipif(
    DATA_ENV not in os.environ,
    reason=f"set {DATA_ENV} to the KDD-99 10% data file to run this criterion",
)


def check(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1-4: the program's own sweeps
# ---------------------------------------------------------------------------

def run_sweeps(data_path, out_dir, **config):
    """The E1.2, E1.3 and E2 runs of ``data_path``, each as its sweep points
    by parameter (``"-"`` for the E1 base run). Prints each run's worker
    count."""
    sweeps = {}
    for experiment in ("E1.2", "E1.3", "E2"):
        out = out_dir / experiment
        points = run_experiment(ExperimentConfig(
            experiment=experiment, data_path=data_path, output_dir=out,
            **config))
        provenance = (out / "provenance.txt").read_text()
        print(experiment, re.search("^workers: .*$", provenance, re.M)[0])
        sweeps[experiment] = {p.parameter: p for p in points}
    return sweeps


def criterion_1(sweeps):
    base = sweeps["E1.2"]["-"].mean
    return (abs(base.tp_rate - 0.7375) <= 0.07 and base.tn_rate >= 0.96
            and base.fp_rate <= 0.04,
            f"tp={base.tp_rate:.4f} tn={base.tn_rate:.4f} "
            f"fp={base.fp_rate:.4f}")


def criterion_2(sweeps):
    tests = [(f"k={k}", sweeps["E1.2"][str(k)]) for k in (5, 10, 50, 100)]
    tests += [(f"w={w}", sweeps["E1.3"][str(w)]) for w in (2, 3, 5, 7, 10)]
    failures = [name for name, point in tests if point.mann_whitney.reject]
    return not failures, f"rejected: {failures or 'none'}"


def criterion_3(sweeps):
    tn_10, tn_100, tn_1000 = (sweeps["E1.3"][w].mean.tn_rate
                              for w in ("10", "100", "1000"))
    return (tn_1000 <= tn_100 < tn_10 + 0.01,
            f"tn(w=10)={tn_10:.4f} tn(w=100)={tn_100:.4f} "
            f"tn(w=1000)={tn_1000:.4f}")


def criterion_4(sweeps):
    by_dimension = {d: sweeps["E2"][str(d)].mean for d in range(2, 11)}
    tp2, fp2 = by_dimension[2].tp_rate, by_dimension[2].fp_rate
    low_d_ok = tp2 >= 0.90 and abs(fp2 - 0.37) <= 0.12
    high_d_ok = all((by_dimension[d].tp_rate, by_dimension[d].fp_rate)
                    == (0.0, 0.0) for d in range(6, 11))
    tps = [by_dimension[d].tp_rate for d in (2, 3, 4, 5, 6)]
    monotone_ok = all(a >= b for a, b in zip(tps, tps[1:]))
    return (low_d_ok and high_d_ok and monotone_ok,
            f"d=2 tp={tp2:.4f} fp={fp2:.4f}; "
            f"tp(2..6)={','.join(f'{tp:.4f}' for tp in tps)}")


@pytest.fixture(scope="module")
def kdd_path():
    path = Path(os.environ[DATA_ENV])
    records = len(read_kdd_file(path))
    assert records == 494021, (
        f"expected the 494021-record 10% subset, got {records}"
    )
    return path


@pytest.fixture(scope="module")
def sweeps(kdd_path, tmp_path_factory):
    """Set up before the autouse ``one_cpu``, so the E1 runs fork one seed
    worker per usable CPU."""
    return run_sweeps(kdd_path, tmp_path_factory.mktemp("sweeps"))


@forks
@requires_data
def test_criterion_1_base_run_reproduction(sweeps):
    check("1 (base run, Table-2 row E1.1)", *criterion_1(sweeps))


@forks
@requires_data
def test_criterion_2_parameter_insensitivity(sweeps):
    check("2 (multiplier/window insensitivity)", *criterion_2(sweeps))


@forks
@requires_data
def test_criterion_3_large_window_degradation(sweeps):
    check("3 (large-window degradation)", *criterion_3(sweeps))


@forks
@requires_data
def test_criterion_4_negative_selection_collapse(sweeps):
    check("4 (detector-space dimensionality sweep)", *criterion_4(sweeps))


@requires_data
def test_criterion_6_determinism(kdd_path, tmp_path):
    bodies = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(ExperimentConfig(
            experiment="E1.1",
            data_path=kdd_path,
            output_dir=out,
            seeds=tuple(range(1, 11)),
            write_mcav_tables=False,
        ))
        bodies.append(
            (out / "results.tsv").read_text()
            + (out / "per_seed.tsv").read_text()
            + (out / "roc_points.tsv").read_text()
        )
    check("6 (report determinism)", bodies[0] == bodies[1])


def test_every_criterion_runs_on_small_sweeps(tmp_path):
    # no verdict: a small synthetic stream says nothing about the paper
    path = tmp_path / "golden.kdd"
    path.write_text("\n".join(golden_lines()) + "\n")
    sweeps = run_sweeps(path, tmp_path, seeds=(1, 2))
    for criterion in (criterion_1, criterion_2, criterion_3, criterion_4):
        passed, detail = criterion(sweeps)
        assert type(passed) is bool and isinstance(detail, str) and detail


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
