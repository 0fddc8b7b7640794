import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dca_ids.evaluation import (
    ALPHA,
    ConfusionRates,
    MannWhitneyResult,
    _exact_u_distribution,
    average_rates,
    confusion_from_instances,
    mann_whitney_two_sided,
)
from dca_ids.experiments import AntigenTypes

from conftest import make_line, parse_lines


def brute_mann_whitney_p(x, y):
    """Independent oracle: enumerate every assignment of the pooled ranks.

    Assumes no ties. Two-sided p = 2 * Pr(U <= min(Ux, Uy)), capped at 1.
    """
    n_x = len(x)
    pooled = sorted(x + y)
    ranks_of_x = [pooled.index(v) + 1 for v in x]
    u_x = sum(ranks_of_x) - n_x * (n_x + 1) / 2
    u_min = min(u_x, n_x * len(y) - u_x)

    universe = range(1, len(pooled) + 1)
    total = 0
    tail = 0
    for combo in itertools.combinations(universe, n_x):
        u = sum(combo) - n_x * (n_x + 1) / 2
        total += 1
        if u <= u_min + 1e-9:
            tail += 1
    return min(1.0, 2.0 * tail / total)


# Few distinct values, so most samples tie and take the normal branch.
TIE_RICH = (0.0, 0.1, 0.5, 0.9, 1.0)


def antigen_types(services, anomalous):
    """``AntigenTypes`` of one record per (service, anomalous) pair."""
    return AntigenTypes.of(parse_lines([
        make_line(label="smurf." if flag else "normal.", service=service)
        for service, flag in zip(services, anomalous)
    ]))


def by_name(types, values):
    return dict(zip(types.names, values.tolist()))


class TestPerfectMcav:
    def test_mixed_type(self):
        types = antigen_types(["http"] * 10, [True] * 8 + [False] * 2)
        assert by_name(types, types.anomalous_share) == {"tcp:http:SF": 0.8}

    def test_pure_types(self):
        types = antigen_types(["smtp"] * 3 + ["http"] * 3,
                              [False] * 3 + [True] * 3)
        assert by_name(types, types.anomalous_share) == {
            "tcp:smtp:SF": 0.0, "tcp:http:SF": 1.0}

    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    def test_values_in_unit_interval(self, flags):
        services = [("http", "smtp", "ftp")[i % 3] for i in range(len(flags))]
        mcav = antigen_types(services, flags).anomalous_share
        assert ((0 <= mcav) & (mcav <= 1)).all()


class TestConfusion:
    def test_perfect_agreement(self):
        truth = [True, False]
        rates = confusion_from_instances(truth, truth, [5, 5])
        assert rates.as_tuple() == (1.0, 1.0, 0.0, 0.0)

    def test_degenerate_truth_marks_undefined(self):
        rates = confusion_from_instances([False, False], [True, True], [1, 1])
        assert rates.tp_rate == 0.0
        assert rates.fn_rate == 1.0
        assert math.isnan(rates.tn_rate)
        assert math.isnan(rates.fp_rate)

    def test_instance_weighting(self):
        rates = confusion_from_instances([True, False], [True, True],
                                         [10, 10])
        assert rates.tp_rate == 0.5
        assert rates.fn_rate == 0.5

    def test_per_type_flag(self):
        # unweighted, each antigen type is one vote whatever its size
        predicted, truth = [True, False], [True, True]
        assert confusion_from_instances(predicted, truth).tp_rate == 0.5
        assert confusion_from_instances(predicted, truth,
                                        [30, 10]).tp_rate == 0.75

    def test_instance_level(self):
        predicted = [True, False, True, False]
        truth = [True, True, False, False]
        rates = confusion_from_instances(predicted, truth)
        assert rates.as_tuple() == (0.5, 0.5, 0.5, 0.5)

    def test_rate_pairs_sum_to_one(self):
        predicted = [True, True, False, True, False]
        truth = [True, False, False, True, True]
        rates = confusion_from_instances(predicted, truth)
        assert rates.tp_rate + rates.fn_rate == pytest.approx(1.0)
        assert rates.fp_rate + rates.tn_rate == pytest.approx(1.0)


class TestAverage:
    def test_mean_of_constants(self):
        r = ConfusionRates(0.7, 1.0, 0.0, 0.3)
        assert average_rates([r] * 10).as_tuple() == pytest.approx(
            r.as_tuple())

    def test_mean(self):
        rates = [
            ConfusionRates(0.7, 1.0, 0.0, 0.3),
            ConfusionRates(0.8, 1.0, 0.0, 0.2),
        ]
        assert average_rates(rates).tp_rate == pytest.approx(0.75)

    def test_permutation_invariant(self):
        rates = [ConfusionRates(0.1 * s, 1.0, 0.0, 1 - 0.1 * s)
                 for s in range(5)]
        forward = average_rates(rates).as_tuple()
        backward = average_rates(rates[::-1]).as_tuple()
        assert forward == pytest.approx(backward)

    def test_nan_propagates(self):
        rates = [
            ConfusionRates(0.5, math.nan, math.nan, 0.5),
            ConfusionRates(0.7, 1.0, 0.0, 0.3),
        ]
        assert math.isnan(average_rates(rates).tn_rate)


class TestMannWhitney:
    def test_identical_samples_fail_to_reject(self):
        sample = [0.7, 0.71, 0.72, 0.73, 0.74, 0.75, 0.76, 0.77, 0.78, 0.79]
        result = mann_whitney_two_sided(sample, list(sample))
        assert not result.reject

    def test_disjoint_samples_reject(self):
        x = list(range(1, 11))
        y = list(range(11, 21))
        result = mann_whitney_two_sided(x, y)
        assert result.u_statistic == 0.0
        assert result.reject

    def test_u_identity(self):
        x = [3.0, 1.5, 9.0, 4.0, 12.0, 0.5, 7.0, 6.0, 11.0, 2.5]
        y = [5.0, 8.0, 10.0, 13.0, 0.25, 1.0, 2.0, 3.5, 4.5, 6.5]
        u_x = mann_whitney_two_sided(x, y).u_statistic
        u_y = mann_whitney_two_sided(y, x).u_statistic
        assert u_x + u_y == 100.0

    def test_decision_symmetric(self):
        x = [0.1, 0.5, 0.9, 1.4, 2.0]
        y = [0.3, 0.8, 1.1, 1.9, 2.5]
        assert (mann_whitney_two_sided(x, y).reject
                == mann_whitney_two_sided(y, x).reject)

    def test_exact_matches_enumeration_small_pairs(self):
        # all sample-size pairs up to 4x4 against the combination oracle
        value = 0
        for n_x in range(1, 5):
            for n_y in range(1, 5):
                for split in itertools.combinations(range(n_x + n_y), n_x):
                    pool = [float(i + 1) for i in range(n_x + n_y)]
                    x = [pool[i] for i in split]
                    y = [pool[i] for i in range(n_x + n_y) if i not in split]
                    got = mann_whitney_two_sided(x, y).p_value
                    want = brute_mann_whitney_p(x, y)
                    assert got == pytest.approx(want), (x, y)
                    value += 1
        assert value > 0

    def test_normal_approximation_close_to_exact(self):
        # tie-free 11 x 11 sample, past the exact path's size limit: the
        # approximation is within 0.02 of the exact p value
        x = [1.0, 2.5, 3.0, 4.5, 7.0, 8.5, 10.0, 12.5, 15.0, 17.5, 19.0]
        y = [2.0, 3.5, 5.0, 6.5, 7.5, 9.0, 11.0, 13.5, 16.0, 18.5, 20.0]
        result = mann_whitney_two_sided(x, y)
        distribution = _exact_u_distribution(len(x), len(y))
        u_min = int(min(result.u_statistic,
                        len(x) * len(y) - result.u_statistic))
        exact = min(1.0, 2 * sum(distribution[:u_min + 1])
                    / sum(distribution))
        assert result.p_value != exact
        assert abs(exact - result.p_value) < 0.02

    def test_ties_handled(self):
        x = [1.0, 1.0, 2.0, 3.0]
        y = [1.0, 2.0, 2.0, 4.0]
        result = mann_whitney_two_sided(x, y)
        assert 0.0 <= result.p_value <= 1.0

    def test_nan_dropped_wherever_it_sits(self):
        y = [0.4, 0.6, 0.8]
        first = mann_whitney_two_sided([math.nan, 0.5, 0.7], y)
        middle = mann_whitney_two_sided([0.5, math.nan, 0.7], y)
        assert first == middle == mann_whitney_two_sided([0.5, 0.7], y)
        assert (mann_whitney_two_sided(y, [0.5, 0.7, math.nan])
                == mann_whitney_two_sided(y, [0.5, 0.7]))

    def test_all_nan_sample_gives_nan_and_no_rejection(self):
        result = mann_whitney_two_sided([math.nan, math.nan], [0.1, 0.2])
        assert math.isnan(result.u_statistic)
        assert math.isnan(result.p_value)
        assert not result.reject

    def test_exact_counts_match_enumeration(self):
        for n in range(15):
            for m in range(15 - n):
                by_u = Counter(sum(combo) - n * (n + 1) // 2 for combo
                               in itertools.combinations(range(1, n + m + 1),
                                                         n))
                assert _exact_u_distribution(n, m) == [
                    by_u[u] for u in range(n * m + 1)], (n, m)

    @pytest.mark.parametrize("n", range(11))
    def test_exact_counts_total_and_symmetry(self, n):
        for m in [*range(20), *range(20, 300, 7), 300]:
            counts = _exact_u_distribution(n, m)
            assert len(counts) == n * m + 1
            assert sum(counts) == math.comb(n + m, n)
            assert counts == counts[::-1], (n, m)

    def test_tie_term_of_a_huge_tie_block_does_not_wrap(self):
        # 2,097,152 tied zeros: t**3 is 2**63, past int64
        zeros = [0.0] * 1_048_576
        result = mann_whitney_two_sided(zeros + [1.0] * 10_000,
                                        zeros + [2.0] * 10_000)
        assert result.p_value == pytest.approx(0.502, abs=1e-3)

    @pytest.mark.parametrize("x,y,u,p,reject", [
        ([1, 1, 2, 3], [1, 2, 2, 4], 6.0, 0.6489418131874136, False),
        ([0.5] * 6 + [0.7] * 5, [0.5] * 3 + [0.9] * 8, 24.0,
         0.011428972091760414, True),
    ], ids=["small-ties", "tie-blocks-rejected"])
    def test_tied_samples_pinned(self, x, y, u, p, reject):
        assert mann_whitney_two_sided(x, y) == MannWhitneyResult(u, p, reject)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(TIE_RICH), min_size=1, max_size=14),
           st.lists(st.sampled_from(TIE_RICH), min_size=1, max_size=14))
    def test_tie_rich_samples_match_a_direct_computation(self, x, y):
        result = mann_whitney_two_sided(x, y)
        n_x, n_y = len(x), len(y)
        u = sum(1.0 if a > b else 0.5 if a == b else 0.0
                for a in x for b in y)
        assert result.u_statistic == u
        counts = Counter(x + y)
        n = n_x + n_y
        if len(counts) == n and min(n_x, n_y) <= 10:
            assert result.p_value == pytest.approx(brute_mann_whitney_p(x, y))
        else:
            tie_term = sum(t ** 3 - t for t in counts.values())
            variance = n_x * n_y / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
            if variance == 0:
                p = 1.0
            else:
                z = ((abs(max(u, n_x * n_y - u) - n_x * n_y / 2.0) - 0.5)
                     / math.sqrt(variance))
                p = min(1.0, 2.0 * (1.0 - 0.5 * (
                    1.0 + math.erf(z / math.sqrt(2.0)))))
            assert result.p_value == p
        assert result.reject == (result.p_value < ALPHA)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8),
    )
    def test_p_value_in_unit_interval(self, x, y):
        result = mann_whitney_two_sided(x, y)
        assert 0.0 <= result.p_value <= 1.0


def test_type_instance_counts():
    types = antigen_types(["http", "smtp", "http"], [False] * 3)
    assert by_name(types, types.counts) == {"tcp:http:SF": 2,
                                            "tcp:smtp:SF": 1}


def test_average_rates_plain():
    rates = [ConfusionRates(0.2, 0.8, 0.2, 0.8),
             ConfusionRates(0.4, 0.6, 0.4, 0.6)]
    mean = average_rates(rates)
    assert mean.tp_rate == pytest.approx(0.3)
