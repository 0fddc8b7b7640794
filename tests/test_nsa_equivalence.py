"""Covered-cell detector generation against the generator it replaced.

``nsa_reference`` holds the earlier generator, which sends every candidate to
the kd-tree. Both draw the same candidates in the same order, and the cell
test may reject only candidates the tree would reject, so the detector arrays
must be identical, not merely close.
"""
import itertools
import logging

import numpy as np
import pytest
from scipy.spatial import cKDTree

import nsa_reference
from dca_ids import nsa

# (size, kind) of the self sets; the empty set is the same in every kind
SELF_SETS = [(0, "random")] + list(itertools.product(
    [1, 50, 800], ["random", "cell-corner", "cell-centre"]))
SEEDS = [1, 2, 3]
# Two batches: enough rejections in the first build the grid, which the
# second then uses.
SMALL_BUDGET = 1500


def self_set(rng, size, dimension, cells_per_axis, kind):
    """Random points, or the same snapped to grid-cell corners or centres."""
    points = rng.random((size, dimension))
    if kind == "cell-corner":
        return np.floor(points * cells_per_axis) / cells_per_axis
    if kind == "cell-centre":
        return (np.floor(points * cells_per_axis) + 0.5) / cells_per_axis
    return points


def censor_radii(dimension, cells_per_axis):
    """The default, one with the cell half diagonal just below it, one with
    the half diagonal just above it, and one that covers most of the cube."""
    half_diagonal = np.sqrt(dimension) / (2 * cells_per_axis)
    return [0.2, half_diagonal * (1 + 1e-6), half_diagonal * (1 - 1e-6), 0.45]


def runs_default_budget(dimension, count, cells_per_axis, censor, seed):
    """Whether a case runs at the default 100 x count budget as well as at
    the small one: only where a grid can exist, and at count 1000, where
    100,000 candidates per case are slow, for one seed and only where a self
    set can cover enough of the cube to keep the grid in use."""
    if cells_per_axis < 2:
        return False
    return count < 1000 or seed == 1 and (dimension <= 3 or censor == 0.45)


@pytest.fixture(autouse=True)
def quiet_budget_warnings():
    logging.disable(logging.WARNING)
    yield
    logging.disable(logging.NOTSET)


@pytest.mark.parametrize("count", [1, 5, 50, 1000])
@pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5, 6])
def test_matches_reference_generator(dimension, count, monkeypatch):
    grids = []

    def covered_cells(*args):
        grids.append(args)
        return covered_cells_before(*args)

    covered_cells_before = nsa._covered_cells
    monkeypatch.setattr(nsa, "_covered_cells", covered_cells)
    rng = np.random.default_rng(100 * dimension + count)
    cells_per_axis = nsa._grid_size(count, dimension)
    for size, kind in SELF_SETS:
        points = self_set(rng, size, dimension, cells_per_axis, kind)
        for censor, budget, seed in itertools.product(
            censor_radii(dimension, cells_per_axis), [None, SMALL_BUDGET],
            SEEDS,
        ):
            if budget is None and not runs_default_budget(
                    dimension, count, cells_per_axis, censor, seed):
                continue
            args = (points, count, dimension, seed, budget,
                    censor / 2, censor / 2)
            expected = nsa_reference.generate_detectors(*args)
            assert np.array_equal(nsa.generate_detectors(*args), expected), (
                size, kind, censor, budget, seed)
    # the cases above must exercise the grid wherever it can exist
    assert grids or cells_per_axis < 2


@pytest.mark.parametrize("count", [1, 1000])
@pytest.mark.parametrize("seed", SEEDS)
def test_candidate_exactly_at_the_censor_radius_is_kept(seed, count):
    # Place the only self point where the tree reports the first candidate
    # at exactly the censor radius: the rule keeps it (distance >= radius).
    censor = 0.2
    first = np.random.default_rng(seed).random(2)
    for angle in np.linspace(0.1, 6.2, 200):
        base = first + censor * np.array([np.cos(angle), np.sin(angle)])
        for step in itertools.product(range(-3, 4), repeat=2):
            point = base + np.array(step) * np.spacing(base)
            distance = cKDTree([point]).query(
                [first], distance_upper_bound=censor)[0][0]
            if distance == censor:
                break
        else:
            continue
        break
    else:
        pytest.fail("no self point at exactly the censor radius found")
    args = (np.array([point]), count, 2, seed, None, censor / 2, censor / 2)
    detectors = nsa.generate_detectors(*args)
    assert np.array_equal(detectors[0], first)
    assert np.array_equal(detectors, nsa_reference.generate_detectors(*args))


def test_cell_of_puts_the_upper_face_in_the_last_cell():
    # rng.random never draws 1.0, but [0,1]^d is closed: its upper face
    # belongs to the last cell on each axis.
    points = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.99]])
    cells = np.arange(16).reshape(4, 4)
    assert list(cells[nsa._cell_of(points, 4)]) == [12, 3, 15, 11]
