"""Real-valued negative selection with constant-sized detectors.

Detectors are random points in the unit hypercube censored against the
normal (self) set: a candidate survives only if its ball cannot intersect
any self ball. Test points matching any surviving detector are classified
anomalous.

Every geometric question the module asks is one: does a point of this set
lie strictly within r? One bounded kd-tree query, ``_within``, answers it
for censoring, classification and the covered-cube grid.
"""
from __future__ import annotations

import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import module_from_spec
from typing import ClassVar, Sequence

import numpy as np

from .dataset import KddTable, attribute_matrix, minmax_apply, minmax_fit
from .errors import ConfigurationError

logger = logging.getLogger(__name__)

DEFAULT_SELF_RADIUS = 0.1
DEFAULT_DETECTOR_RADIUS = 0.1
# Candidates drawn per batch, and the most cells the covered-cube grid has,
# so building the grid costs at most one batch of tree queries.
_BATCH = 1024
# Candidates drawn per detector asked for before a run gives up. The budget
# is this implementation's rule, not a parameter of the paper's algorithm,
# so no flag sets it.
_ATTEMPTS_PER_DETECTOR = 100


def _grid_size(count: int, dimension: int) -> int:
    """Largest g with g**dimension <= count, in exact integer arithmetic."""
    cells_per_axis = 1
    while (cells_per_axis + 1) ** dimension <= count:
        cells_per_axis += 1
    return cells_per_axis


def _kdtree_class() -> type:
    """scipy's ``cKDTree``, loaded from its compiled module
    ``scipy.spatial._ckdtree`` without running ``scipy/spatial/__init__``,
    which would also load qhull, ``scipy.linalg``, ``scipy.special`` and
    more that the NSA never uses. The module is registered in
    ``sys.modules`` under its own name before it runs, so a later
    ``import scipy.spatial`` reuses it and there is one class whatever the
    import order. Where scipy's layout has no such file, the package import
    gives the same class, only slower."""
    import scipy

    name = "scipy.spatial._ckdtree"
    module = sys.modules.get(name)
    if module is None:
        finder = FileFinder(os.path.join(scipy.__path__[0], "spatial"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            from scipy.spatial import cKDTree
            return cKDTree
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.cKDTree


def _kdtree(points: np.ndarray):
    """The one kd-tree builder: sliding-midpoint splits, no node compaction.
    It builds faster than the default tree and answers every bounded query
    as it does: the split rule shapes only the tree, and a bounded query
    returns the smallest of the same per-pair distances whatever the rule."""
    return _kdtree_class()(points, balanced_tree=False, compact_nodes=False)


def _within(tree, points: np.ndarray, radius: float) -> np.ndarray:
    """Bool mask over the points: True where a point of ``tree`` lies
    strictly closer than ``radius``. A miss comes back from the bounded
    query as inf, which fails the test as its true distance would."""
    distances, _ = tree.query(points, k=1, distance_upper_bound=radius)
    return distances < radius


def _covered_cells(tree, cells_per_axis: int, dimension: int,
                   margin: float) -> np.ndarray:
    """Bool array of shape ``(cells_per_axis,) * dimension`` marking the
    cells of a grid over [0,1]^d that have a self point closer than
    ``margin`` > 0 to their centre: one tree query per cell.

    With ``margin`` the censor radius less the cell's half diagonal (and
    less 1e-9, which absorbs float rounding in the distances), every point
    of a marked cell lies strictly within the censor radius of that self
    point, by the triangle inequality.
    """
    shape = (cells_per_axis,) * dimension
    centres = ((np.indices(shape).reshape(dimension, -1).T + 0.5)
               / cells_per_axis)
    return _within(tree, centres, margin).reshape(shape)


class Censor:
    """The censoring rule of one self set, an (n, d) float array with
    d >= 1, built once and shared by every seed: a candidate is rejected
    when a self point lies closer than self_radius + detector_radius, which
    one kd-tree query decides.

    ``covers_cube`` is True when every point of [0,1]^d lies strictly within
    the censor radius of a self point, so that no candidate can survive. It
    is decided on a grid of g^d cells, g the largest integer with
    g^d <= ``_BATCH``: the cube is covered when every cell is
    (``_covered_cells``). Where the half diagonal leaves no margin (d >= 4
    at the default radii) it is False.
    """

    def __init__(self, self_points: np.ndarray, self_radius: float,
                 detector_radius: float):
        self.dimension = d = self_points.shape[1]
        self.radius = self_radius + detector_radius
        self.tree = _kdtree(self_points)
        g = _grid_size(_BATCH, d)
        margin = self.radius - math.sqrt(d) / (2 * g) - 1e-9
        self.covers_cube = bool(
            margin > 0 and _covered_cells(self.tree, g, d, margin).all())


def generate_detectors(censor: Censor, count: int, seed: int,
                       max_attempts: int | None = None) -> np.ndarray:
    """Draw detector centres uniformly in [0,1]^d, keeping those with no
    self point closer than the censor radius.

    Stops at ``count`` detectors or after ``max_attempts`` candidates
    (default ``_ATTEMPTS_PER_DETECTOR`` x count), returning fewer. A run
    leaves ``max_attempts`` unset; the tests set it to drive the exhausted
    budget. Drawn in
    batches of ``_BATCH`` and committed in draw order, the result is
    deterministic per seed. A censor that covers the cube returns no
    detector without drawing, as drawing the whole budget would.
    """
    if censor.covers_cube:
        return np.empty((0, censor.dimension))
    if max_attempts is None:
        max_attempts = _ATTEMPTS_PER_DETECTOR * count
    rng = np.random.default_rng(seed)
    accepted = [np.empty((0, censor.dimension))]
    found = attempts = 0
    while found < count and attempts < max_attempts:
        size = min(_BATCH, max_attempts - attempts)
        candidates = rng.random((size, censor.dimension))
        attempts += size
        admitted = ~_within(censor.tree, candidates, censor.radius)
        accepted.append(candidates[admitted][:count - found])
        found += len(accepted[-1])
    return np.concatenate(accepted)


def classify_points(
    points: np.ndarray,
    detectors: np.ndarray,
    detector_radius: float = DEFAULT_DETECTOR_RADIUS,
) -> np.ndarray:
    """Bool mask over the points, True (anomalous) iff a point strictly
    matches at least one detector."""
    return _within(_kdtree(detectors), points, detector_radius)


@dataclass
class NsaParams:
    # The accepted detectors of a run are at most 2**20 x d floats (80 MB
    # at d = 10), drawn from at most 100 x that many candidates.
    MAX_DETECTORS: ClassVar[int] = 2**20

    self_radius: float = DEFAULT_SELF_RADIUS
    detector_radius: float = DEFAULT_DETECTOR_RADIUS
    detector_count: int = 1000

    def __post_init__(self):
        if not 0 <= self.self_radius < math.inf:
            raise ConfigurationError("self radius must be finite and >= 0")
        if not 0 < self.detector_radius < math.inf:
            raise ConfigurationError("detector radius must be finite and > 0")
        if self.detector_count < 1:
            raise ConfigurationError("detector count must be >= 1")
        if self.detector_count > self.MAX_DETECTORS:
            raise ConfigurationError(
                f"detector count must be <= {self.MAX_DETECTORS}")


def run_nsa(
    table: KddTable,
    attributes: Sequence[str],
    dimensions: Sequence[int],
    folds: np.ndarray,
    params: NsaParams,
    seeds: Sequence[int],
) -> list[list]:
    """Cross-validated runs over the first d attributes, for each dimension
    d and seed, looping fold, then dimension, then seed.

    Each piece of state is built once, at the level it depends on: the
    attribute matrix of the first max(dimensions) attributes once (the
    table's own array when it holds just those columns); per fold, min-max
    bounds fit on the training rows in place and applied to the normal
    training rows and the test rows (per column, so a dimension d takes the
    first d columns); per (fold, d),
    one ``Censor`` over the normal training rows. Returns, per dimension, one
    fold-averaged ConfusionRates per seed, in seed order. Each fold run logs
    one info line with its elapsed seconds. A fold without any
    normal training instance is skipped with one warning, and a run whose
    every fold is skipped raises ``ConfigurationError``; runs that return
    fewer detectors than asked get one warning per dimension, which counts
    those whose self set covers the cube and those that exhausted their
    attempt budget.
    """
    from .evaluation import average_rates, confusion_from_instances

    matrix = attribute_matrix(table, attributes[:max(dimensions)])
    per_dimension = [[[] for _ in seeds] for _ in dimensions]
    # (covers_cube, detector count) of each short (fold, seed) run
    short = [[] for _ in dimensions]
    fold_count = int(folds.max()) + 1
    for fold in range(fold_count):
        start = time.perf_counter()
        test_mask = folds == fold
        self_mask = ~test_mask & ~table.anomalous
        if not self_mask.any():
            logger.warning("fold %d has no normal training instances; skipped",
                           fold)
            continue
        lo, hi = minmax_fit(matrix, ~test_mask)
        self_points = minmax_apply(matrix[self_mask], lo, hi)
        test_points = minmax_apply(matrix[test_mask], lo, hi)
        truth = table.anomalous[test_mask]
        for d, per_seed, returned in zip(dimensions, per_dimension, short):
            censor = Censor(self_points[:, :d], params.self_radius,
                            params.detector_radius)
            for per_fold, seed in zip(per_seed, seeds):
                detectors = generate_detectors(censor, params.detector_count,
                                               seed)
                if len(detectors) < params.detector_count:
                    returned.append((censor.covers_cube, len(detectors)))
                predictions = classify_points(test_points[:, :d], detectors,
                                              params.detector_radius)
                per_fold.append(confusion_from_instances(predictions, truth))
        logger.info("E2 fold %d of %d elapsed=%.2fs", fold + 1, fold_count,
                    time.perf_counter() - start)
    if not per_dimension[0][0]:
        raise ConfigurationError("every fold was skipped; no results")
    for d, per_seed, returned in zip(dimensions, per_dimension, short):
        if returned:
            covered = sum(covers_cube for covers_cube, _ in returned)
            logger.warning(
                "dimension %d: %d of %d (fold, seed) runs returned fewer than "
                "%d detectors, the fewest %d: %d with a self set covering the "
                "cube, %d exhausting %d attempts per detector",
                d, len(returned), len(per_seed) * len(per_seed[0]),
                params.detector_count, min(n for _, n in returned), covered,
                len(returned) - covered, _ATTEMPTS_PER_DETECTOR,
            )
    return [[average_rates(per_fold) for per_fold in per_seed]
            for per_seed in per_dimension]
