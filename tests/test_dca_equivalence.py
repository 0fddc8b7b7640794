"""The array-backed engine against the object-per-cell engine it replaced.

``dca_reference`` holds the earlier engine verbatim. Both consume the same
random draws in the same order, so for every configuration and seed they must
give identical per-type tallies and MCAV tables, not merely close ones. The
reference engine takes antigen names and the package engine type codes; the
comparison maps codes to names.
"""
import itertools

import numpy as np
import pytest

import dca_reference
from dca_ids.dca import DcaConfig, run_dca_with_log

STEPS = 200
_rng = np.random.default_rng(2024)
# Eight recurring types plus two that occur once, in a random order.
ANTIGENS = [f"t{int(i)}" for i in _rng.integers(0, 8, STEPS - 2)]
ANTIGENS[17:17] = ["once-a"]
ANTIGENS[150:150] = ["once-b"]
STREAMS = {
    "random": _rng.random((STEPS, 3)) * 100,
    "all-pamp": np.tile((100.0, 0.0, 0.0), (STEPS, 1)),
    "all-safe": np.tile((0.0, 0.0, 100.0), (STEPS, 1)),
    "all-zero": np.zeros((STEPS, 3)),
    "pamp-or-safe": np.where(_rng.random((STEPS, 1)) < 0.5,
                             [100.0, 0.0, 0.0], [0.0, 0.0, 100.0]),
}


def assert_same_run(config, signals, seed, antigens=ANTIGENS):
    names = sorted(set(antigens))
    codes = [names.index(antigen) for antigen in antigens]
    mcav, log = run_dca_with_log(codes, signals, config, seed)
    ref_mcav, ref_log = dca_reference.run_dca_with_log(
        antigens, signals, config, seed
    )
    tallies = zip(log.totals.tolist(), log.matures.tolist())
    assert dict(zip(names, tallies)) == {
        t: (ref_log.total_count(t), ref_log.mature_count(t))
        for t in ref_log.types()
    }
    assert dict(zip(names, mcav.tolist())) == ref_mcav
    assert log.total_presentations == ref_log.total_presentations


@pytest.mark.parametrize("multiplier", [1, 2, 5, 100])
@pytest.mark.parametrize("population,per_step",
                         [(1, 1), (10, 10), (20, 5), (100, 10)])
def test_matches_object_engine(population, per_step, multiplier):
    for window, seed, signals in itertools.product(
        [1, 3, 1000], [1, 2, 3], STREAMS.values()
    ):
        config = DcaConfig(population_size=population,
                           cells_per_step=per_step,
                           multiplier=multiplier, window=window)
        assert_same_run(config, signals, seed)


@pytest.mark.parametrize("multiplier", [1, 2, 5, 100])
def test_matches_object_engine_with_a_fixed_threshold(multiplier):
    # A PAMP step adds csm 200, so cells sit exactly on this threshold and
    # the next step decides their context.
    for seed, signals in itertools.product([1, 2, 3], STREAMS.values()):
        config = DcaConfig(threshold_low=200.0, threshold_high=200.0,
                           cells_per_step=5, population_size=20,
                           multiplier=multiplier)
        assert_same_run(config, signals, seed)


@pytest.mark.parametrize("multiplier", [1, 100])
@pytest.mark.parametrize("steps", [6_543, 6_550])
def test_lifetime_ids_fit_their_dtype(steps, multiplier):
    # Every PAMP step adds csm 200, so each of the 10 cells selected per step
    # crosses the threshold of 100 and migrates: a run makes 100 + 10 x steps
    # lifetime ids, 65,530 at 6,543 steps, which uint16 holds, and 65,600 at
    # 6,550, which it does not.
    antigens = [f"t{i % 8}" for i in range(steps)]
    config = DcaConfig(threshold_low=100.0, threshold_high=100.0,
                       multiplier=multiplier)
    assert_same_run(config, np.tile((100.0, 0.0, 0.0), (steps, 1)), 1,
                    antigens)
