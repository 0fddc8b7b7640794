import itertools

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings, strategies as st

from dca_ids.dataset import kfold_split
from dca_ids.errors import ConfigurationError
from dca_ids import nsa
from dca_ids.nsa import (
    Censor,
    NsaParams,
    classify_points,
    generate_detectors,
    run_nsa,
)

from conftest import anomalous_line, make_line, normal_line, parse_lines


def classify_point(point, detectors, radius=0.1):
    """True iff the point is classified anomalous."""
    return classify_points(np.array([point], dtype=float),
                           np.array(detectors, dtype=float), radius)[0]


class TestEuclideanMatch:
    def test_zero_distance(self):
        assert classify_point([0.5, 0.5], [[0.5, 0.5]])

    def test_within_radius(self):
        assert classify_point([0.0, 0.0], [[0.05, 0.0]])

    def test_boundary_is_strict(self):
        assert not classify_point([0.0, 0.0], [[0.1, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify_point([0.0], [[0.0, 0.0]])


class TestGenerateDetectors:
    def test_empty_self_accepts_first_candidates(self):
        detectors = generate_detectors(Censor(np.empty((0, 3)), 0.1, 0.1), 50,
                                       seed=1)
        assert detectors.shape == (50, 3)

    def test_censoring_rule(self):
        # candidate at distance 0.15 from self: rejected under 0.1 + 0.1
        self_points = np.array([[0.5, 0.5]])
        detectors = generate_detectors(Censor(self_points, 0.1, 0.1), 200,
                                       seed=2)
        distances = np.linalg.norm(detectors - self_points[0], axis=1)
        assert (distances >= 0.2).all()

    def test_deterministic(self):
        censor = Censor(np.random.default_rng(0).random((40, 4)), 0.1, 0.1)
        a = generate_detectors(censor, 30, seed=7)
        b = generate_detectors(censor, 30, seed=7)
        assert (a == b).all()

    def test_total_censoring_yields_empty_set(self):
        # dense self grid over the unit square leaves nowhere to place
        grid = np.linspace(0, 1, 12)
        self_points = np.array([[x, y] for x in grid for y in grid])
        detectors = generate_detectors(Censor(self_points, 0.1, 0.1), 10,
                                       seed=3, max_attempts=500)
        assert len(detectors) == 0

    def test_budget_limits_attempts(self):
        detectors = generate_detectors(Censor(np.empty((0, 2)), 0.1, 0.1),
                                       100, seed=1, max_attempts=10)
        assert len(detectors) == 10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_no_detector_matches_any_self_point(self, seed):
        rng = np.random.default_rng(seed)
        self_points = rng.random((25, 3))
        detectors = generate_detectors(Censor(self_points, 0.1, 0.1), 20,
                                       seed=seed, max_attempts=2000)
        for center in detectors:
            for point in self_points:
                assert np.linalg.norm(center - point) >= 0.2


class TestCoveredCells:
    @pytest.mark.parametrize("dimension,count,censor", [
        (2, 1000, 0.2), (2, 50, 0.3), (3, 1000, 0.2), (3, 1000, 0.45),
    ])
    def test_every_point_of_a_covered_cell_is_censored(
        self, dimension, count, censor
    ):
        rng = np.random.default_rng(dimension * count)
        self_points = rng.random((30, dimension))
        tree = scipy.spatial.cKDTree(self_points)
        cells_per_axis = nsa._grid_size(count, dimension)
        margin = censor - np.sqrt(dimension) / (2 * cells_per_axis) - 1e-9
        covered = nsa._covered_cells(tree, cells_per_axis, dimension, margin)
        assert covered.shape == (cells_per_axis,) * dimension
        assert 0 < covered.sum() < covered.size
        corners = np.array(list(itertools.product([0, 1], repeat=dimension)))
        for low in np.argwhere(covered):
            inside = np.concatenate([
                low + corners, low + rng.random((20, dimension)),
            ]) / cells_per_axis
            nearest = np.array([
                np.linalg.norm(self_points - point, axis=1).min()
                for point in inside
            ])
            assert (nearest < censor).all(), low

    @staticmethod
    def record_query_sizes(monkeypatch):
        queried = []

        class CountingTree(scipy.spatial.cKDTree):
            def query(self, x, *args, **kwargs):
                queried.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        return queried

    def test_covered_square_sends_no_candidate_to_the_tree_after_the_grid(
        self, monkeypatch
    ):
        queried = self.record_query_sizes(monkeypatch)
        axis = np.linspace(0, 1, 21)
        lattice = np.array(list(itertools.product(axis, axis)))
        censor = Censor(lattice, 0.1, 0.1)
        # one query for the 32 x 32 cell centres, which all come out covered
        assert queried == [32 * 32] and censor.covers_cube

        def no_generator(seed):
            raise AssertionError("a covered cube needs no candidate")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for seed in (1, 2):
            detectors = generate_detectors(censor, 1000, seed)
            assert detectors.shape == (0, 2)
        assert queried == [32 * 32]

    def test_uncovered_cube_sends_every_candidate_to_the_tree(
        self, monkeypatch
    ):
        # Self points packed near one corner reject about 3% of the square.
        # The grid costs one query of 32 x 32 centres; after it, each batch
        # of candidates goes to the tree whole, in one query.
        queried = self.record_query_sizes(monkeypatch)
        corner = np.random.default_rng(0).random((500, 2)) * 0.01
        censor = Censor(corner, 0.1, 0.1)
        assert queried == [32 * 32] and not censor.covers_cube
        detectors = generate_detectors(censor, 1000, seed=1)
        assert len(detectors) == 1000
        assert queried == [32 * 32, 1024, 1024]

    def test_no_margin_means_no_grid_and_no_covered_cube(self, monkeypatch):
        # At d = 4 the half diagonal of the 5^4 grid is the censor radius.
        queried = self.record_query_sizes(monkeypatch)
        censor = Censor(np.full((3, 4), 0.5), 0.1, 0.1)
        assert not censor.covers_cube
        assert queried == []


class TestKdtree:
    @pytest.mark.parametrize("dimension", range(1, 11))
    def test_build_choice_changes_no_answer(self, dimension):
        # Random points; points on a grid of step 1/8, so duplicates abound;
        # and queries a quarter from a grid point along one axis, exactly
        # the radius 0.25 away from it.
        rng = np.random.default_rng(dimension)
        random = rng.random((300, dimension))
        snapped = np.round(rng.random((300, dimension)) * 8) / 8
        axis = np.eye(dimension)[rng.integers(dimension, size=300)]
        at_radius = snapped + axis * rng.choice([-0.25, 0.25], size=(300, 1))
        queries = np.concatenate([rng.random((300, dimension)), snapped,
                                  at_radius])
        answers = []
        for points, radius in itertools.product((random, snapped),
                                                (0.1, 0.125, 0.25)):
            built = nsa._within(nsa._kdtree(points), queries, radius)
            default = nsa._within(scipy.spatial.cKDTree(points), queries,
                                  radius)
            assert (built == default).all(), radius
            answers.append(built)
        assert np.any(answers) and not np.all(answers)


class TestClassify:
    def test_empty_detector_set_is_all_normal(self):
        points = np.random.default_rng(0).random((10, 3))
        flagged = classify_points(points, np.empty((0, 3)))
        assert flagged.dtype == bool and flagged.tolist() == [False] * 10

    def test_point_on_detector_center(self):
        detectors = np.array([[0.3, 0.3]])
        assert classify_point([0.3, 0.3], detectors)

    def test_far_point_is_normal(self):
        detectors = np.array([[0.3, 0.3]])
        assert not classify_point([0.9, 0.9], detectors)

    def test_monotone_in_detector_set(self):
        rng = np.random.default_rng(4)
        points = rng.random((50, 2))
        detectors = rng.random((30, 2))
        small = classify_points(points, detectors[:10])
        large = classify_points(points, detectors)
        assert small.any()
        assert large[small].all()


class TestRunNsa:
    def records(self, n_normal=40, n_anomalous=40):
        return parse_lines([normal_line()] * n_normal
                               + [anomalous_line()] * n_anomalous)

    def attributes(self):
        return ["serror_rate", "srv_serror_rate", "count", "srv_count",
                "logged_in"]

    def test_no_detectors_means_all_normal(self):
        records = self.records()
        folds = kfold_split(len(records), 4, seed=1)
        params = NsaParams(detector_count=1, self_radius=2.0,
                           detector_radius=2.0)
        [[mean]] = run_nsa(records, self.attributes(), [5], folds, params,
                           seeds=(1,))
        assert mean.tp_rate == 0.0
        assert mean.tn_rate == 1.0

    def test_separable_data_is_detected_in_low_dimension(self):
        records = self.records()
        folds = kfold_split(len(records), 4, seed=1)
        params = NsaParams(detector_count=1000)
        [[mean]] = run_nsa(records, ["serror_rate", "logged_in"], [2], folds,
                           params, seeds=(1,))
        assert mean.tp_rate > 0.5
        assert mean.fp_rate < 0.5

    def test_high_dimension_coverage_collapses(self):
        # same data, ten-dimensional space: detectors cannot reach the corner
        records = self.records()
        folds = kfold_split(len(records), 4, seed=1)
        params = NsaParams(detector_count=200)
        attributes = self.attributes() + [
            "same_srv_rate", "dst_host_serror_rate",
            "dst_host_srv_serror_rate", "srv_diff_host_rate",
            "dst_host_count",
        ]
        [[mean]] = run_nsa(records, attributes, [10], folds, params,
                           seeds=(1,))
        assert mean.tp_rate < 0.1

    def test_deterministic(self):
        records = self.records(20, 20)
        folds = kfold_split(len(records), 4, seed=2)
        params = NsaParams(detector_count=50)
        a = run_nsa(records, self.attributes(), [5], folds, params,
                    seeds=(9,))
        b = run_nsa(records, self.attributes(), [5], folds, params,
                    seeds=(9,))
        assert a == b

    @staticmethod
    def half_covered_square():
        """Normal records cover the left 40% of the square, so the self set
        rejects most candidates and the grid marks covered cells; attacks
        just right of the censored band are matched or not depending on
        where a seed's detectors fall."""
        return parse_lines(
            [make_line(serror_rate=i / 40, srv_serror_rate=j / 20)
             for i in range(17) for j in range(21)]
            + [anomalous_line()] * 10
            + [make_line(label="smurf.", serror_rate=0.5 + i / 200,
                         srv_serror_rate=j / 4)
               for i in range(5) for j in range(5)]
        )

    def test_seeds_are_independent(self, monkeypatch):
        records = self.half_covered_square()
        folds = kfold_split(len(records), 4, seed=1)
        params = NsaParams(detector_count=600)
        attributes = ["serror_rate", "srv_serror_rate"]
        grids = []
        covered_cells = nsa._covered_cells
        monkeypatch.setattr(nsa, "_covered_cells",
                            lambda *args: grids.append(covered_cells(*args))
                            or grids[-1])
        [together] = run_nsa(records, attributes, [2], folds, params,
                             seeds=(3, 1, 2))
        # one grid per fold, shared by the three seeds
        assert len(grids) == 4 and all(grid.any() for grid in grids)
        assert len({rates.tp_rate for rates in together}) == 3
        assert together == [
            run_nsa(records, attributes, [2], folds, params,
                    seeds=(seed,))[0][0]
            for seed in (3, 1, 2)
        ]

    @pytest.mark.parametrize("seeds", [(1,), (1, 2, 3)])
    def test_self_trees_built_once_per_fold_and_dimension(self, monkeypatch,
                                                          seeds):
        built, grids = [], []

        class RecordingTree(scipy.spatial.cKDTree):
            def __init__(self, data, *args, **kwargs):
                built.append(np.shape(data))
                super().__init__(data, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
        # classification builds a tree over each detector set; leave it out
        monkeypatch.setattr(nsa, "classify_points",
                            lambda points, *_: np.zeros(len(points), bool))
        covered_cells = nsa._covered_cells
        monkeypatch.setattr(nsa, "_covered_cells",
                            lambda *args: grids.append(args)
                            or covered_cells(*args))
        records = self.half_covered_square()
        folds = kfold_split(len(records), 4, seed=1)
        run_nsa(records, ["serror_rate", "srv_serror_rate", "count"], (2, 3),
                folds, NsaParams(detector_count=50), seeds)
        self_sizes = [int((~records.anomalous & (folds != fold)).sum())
                      for fold in range(4)]
        assert built == [(n, d) for n in self_sizes for d in (2, 3)]
        assert len(grids) <= 8

    def test_dimensions_together_equal_each_alone(self):
        records = self.half_covered_square()
        folds = kfold_split(len(records), 4, seed=1)
        params = NsaParams(detector_count=100)
        attributes = self.attributes()
        together = run_nsa(records, attributes, (4, 2, 5), folds, params,
                           seeds=(1, 2))
        assert together == [
            run_nsa(records, attributes, [d], folds, params, seeds=(1, 2))[0]
            for d in (4, 2, 5)
        ]

    def test_budget_exhaustion_warned_once_per_dimension(self, caplog,
                                                         monkeypatch):
        # Normal records fill the square, so at d = 2 the self set covers the
        # cube; the third attribute puts every attack at 1 and every normal
        # record at 0, which leaves room for detectors at d = 3, though not
        # for 100 of them in 100 attempts (one per detector).
        monkeypatch.setattr(nsa, "_ATTEMPTS_PER_DETECTOR", 1)
        records = parse_lines(
            [make_line(serror_rate=i / 20, srv_serror_rate=j / 20)
             for i in range(21) for j in range(21)]
            + [anomalous_line()] * 20
        )
        folds = kfold_split(len(records), 4, seed=1)
        params = NsaParams(detector_count=100)
        with caplog.at_level("WARNING", logger="dca_ids.nsa"):
            run_nsa(records, ["serror_rate", "srv_serror_rate", "count"],
                    (2, 3), folds, params, seeds=(1, 2, 3))
        assert [r.getMessage() for r in caplog.records] == [
            "dimension 2: 12 of 12 (fold, seed) runs returned fewer than 100 "
            "detectors, the fewest 0: 12 with a self set covering the cube, "
            "0 exhausting 1 attempts per detector",
            "dimension 3: 12 of 12 (fold, seed) runs returned fewer than 100 "
            "detectors, the fewest 77: 0 with a self set covering the cube, "
            "12 exhausting 1 attempts per detector",
        ]

    def test_fold_without_normal_training_is_skipped_once(self, caplog):
        # the only normal record is in one fold's test split
        records = self.records(n_normal=1, n_anomalous=19)
        folds = kfold_split(len(records), 4, seed=1)
        params = NsaParams(detector_count=50)
        with caplog.at_level("WARNING", logger="dca_ids.nsa"):
            [rates] = run_nsa(records, self.attributes(), [5], folds, params,
                              seeds=(1, 2, 3))
        skipped = [r for r in caplog.records
                   if "no normal training instances" in r.getMessage()]
        assert len(skipped) == 1
        assert f"fold {folds[0]} " in skipped[0].getMessage()
        assert len(rates) == 3

    def test_all_anomalous_table_rejected(self):
        records = self.records(n_normal=0, n_anomalous=20)
        folds = kfold_split(len(records), 4, seed=1)
        with pytest.raises(ConfigurationError,
                           match="every fold was skipped"):
            run_nsa(records, self.attributes(), [5], folds, NsaParams(),
                    seeds=(1, 2))
