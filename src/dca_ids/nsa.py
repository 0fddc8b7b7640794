"""Real-valued negative selection with constant-sized detectors.

Detectors are random points in the unit hypercube censored against the
normal (self) set: a candidate survives only if its ball cannot intersect
any self ball. Test points matching any surviving detector are classified
anomalous.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import (
    KddTable,
    attribute_matrix,
    minmax_fit,
    minmax_apply,
)
from .errors import ConfigurationError

logger = logging.getLogger(__name__)

DEFAULT_SELF_RADIUS = 0.1
DEFAULT_DETECTOR_RADIUS = 0.1


def _grid_size(count: int, dimension: int) -> int:
    """Largest g with g**dimension <= count, in exact integer arithmetic."""
    cells_per_axis = 1
    while (cells_per_axis + 1) ** dimension <= count:
        cells_per_axis += 1
    return cells_per_axis


def _cell_of(points: np.ndarray, cells_per_axis: int) -> tuple:
    """Index tuple of the grid cell holding each point of [0,1]^d, for an
    array of shape ``(cells_per_axis,) * d``. Points on the upper face of the
    cube belong to the last cell."""
    index = np.minimum((points * cells_per_axis).astype(np.intp),
                       cells_per_axis - 1)
    return tuple(index.T)


def _covered_cells(tree, cells_per_axis: int, dimension: int,
                   margin: float) -> np.ndarray:
    """Bool array of shape ``(cells_per_axis,) * dimension`` marking the
    cells of a grid over [0,1]^d that have a self point closer than
    ``margin`` to their centre: one tree query per cell.

    With ``margin`` the censor radius less the cell's half diagonal (and
    less 1e-9, which absorbs float rounding in the distances and in
    ``_cell_of``), every point of a marked cell lies strictly within the
    censor radius of that self point, by the triangle inequality.
    """
    shape = (cells_per_axis,) * dimension
    centres = ((np.indices(shape).reshape(dimension, -1).T + 0.5)
               / cells_per_axis)
    distances, _ = tree.query(centres, k=1, distance_upper_bound=margin)
    return (distances < margin).reshape(shape)


def generate_detectors(
    self_points: np.ndarray,
    count: int,
    dimension: int,
    seed: int,
    max_attempts: int | None = None,
    self_radius: float = DEFAULT_SELF_RADIUS,
    detector_radius: float = DEFAULT_DETECTOR_RADIUS,
) -> np.ndarray:
    """Draw detector centers uniformly in [0,1]^d, censored against self.

    A candidate is rejected when its distance to any self point falls below
    self_radius + detector_radius. Stops at ``count`` detectors or when the
    attempt budget (default 100 x count) runs out, returning fewer with a
    warning. Candidates are committed in draw order, so the result is
    deterministic per seed.

    Once the candidates rejected so far number at least g^d, where g is the
    largest integer with g^d <= ``count``, the call splits [0,1]^d into g^d
    cells and marks those the self set wholly covers (``_covered_cells``);
    later candidates in a covered cell are rejected without a kd-tree query.
    The grid costs one query per cell, so a call that builds it has already
    spent at least as many queries on rejected candidates, and a call whose
    self set rejects few candidates never builds it. It is skipped when the
    self set is empty, g < 2 or the cell half diagonal is at least the
    censor radius (d >= 4 at the defaults). The cell test rejects only
    candidates the query would reject, so the detectors are bit-identical to
    querying every candidate.
    """
    if count < 1:
        raise ConfigurationError(f"detector count must be >= 1, got {count}")
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    self_points = np.asarray(self_points, dtype=float)
    if self_points.ndim != 2 or self_points.shape[1] != dimension:
        raise ValueError(
            f"self points must have shape (n, {dimension}), "
            f"got {self_points.shape}"
        )
    if max_attempts is None:
        max_attempts = 100 * count
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    tree = cKDTree(self_points) if len(self_points) else None
    censor_radius = self_radius + detector_radius
    cells_per_axis = _grid_size(count, dimension)
    margin = (censor_radius - math.sqrt(dimension) / (2 * cells_per_axis)
              - 1e-9)
    # rejected candidates after which the covered-cell grid is built
    build_grid_after = (cells_per_axis ** dimension
                        if tree is not None and cells_per_axis >= 2
                        and margin > 0 else math.inf)
    covered = None

    accepted = [np.empty((0, dimension))]
    found = 0
    attempts = 0
    batch = 1024
    while found < count and attempts < max_attempts:
        if covered is None and attempts - found >= build_grid_after:
            covered = _covered_cells(tree, cells_per_axis, dimension, margin)
        size = min(batch, max_attempts - attempts)
        candidates = rng.random((size, dimension))
        attempts += size
        if tree is not None:
            keep = np.ones(size, dtype=bool)
            if covered is not None:
                keep = ~covered[_cell_of(candidates, cells_per_axis)]
            if keep.any():
                # Self points beyond the censor radius come back as inf,
                # which passes the test below exactly as their true distance
                # would.
                distances, _ = tree.query(candidates[keep], k=1,
                                          distance_upper_bound=censor_radius)
                # One mask over the whole batch keeps survivors in draw order.
                keep[keep] = distances >= censor_radius
            candidates = candidates[keep]
        accepted.append(candidates[:count - found])
        found += len(accepted[-1])
    if found < count:
        logger.warning(
            "detector generation exhausted %d attempts with %d/%d detectors "
            "(dimension %d)", max_attempts, found, count, dimension,
        )
    return np.concatenate(accepted)


def classify_points(
    points: np.ndarray,
    detectors: np.ndarray,
    detector_radius: float = DEFAULT_DETECTOR_RADIUS,
) -> np.ndarray:
    """Bool mask over the points, True (anomalous) iff a point strictly
    matches at least one detector."""
    points = np.asarray(points, dtype=float)
    if len(detectors) == 0:
        return np.zeros(len(points), dtype=bool)
    if points.shape[1] != detectors.shape[1]:
        raise ValueError(
            f"dimension mismatch: points {points.shape[1]}d, "
            f"detectors {detectors.shape[1]}d"
        )
    from scipy.spatial import cKDTree

    # Unmatched points come back as inf, which fails the strict test below.
    distances, _ = cKDTree(detectors).query(
        points, k=1, distance_upper_bound=detector_radius
    )
    return distances < detector_radius


@dataclass
class NsaParams:
    self_radius: float = DEFAULT_SELF_RADIUS
    detector_radius: float = DEFAULT_DETECTOR_RADIUS
    detector_count: int = 1000
    max_attempts: int | None = None

    def __post_init__(self):
        if not 0 <= self.self_radius < math.inf:
            raise ConfigurationError("self radius must be finite and >= 0")
        if not 0 < self.detector_radius < math.inf:
            raise ConfigurationError("detector radius must be finite and > 0")
        if self.detector_count < 1:
            raise ConfigurationError("detector count must be >= 1")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ConfigurationError("max attempts must be >= 1")


def run_nsa(
    table: KddTable,
    attributes: Sequence[str],
    folds: np.ndarray,
    params: NsaParams,
    seeds: Sequence[int],
):
    """Full cross-validated run over the given attribute subset, once per
    seed.

    Nothing before detector generation depends on the seed, so the
    attribute matrix is extracted once and each fold's state is built once
    for all seeds: min-max bounds fit on the fold's training rows and
    applied to the whole matrix, the normal training rows as the self set
    and the test rows to classify. Each seed then censors its own detectors
    against that self set and classifies the test rows. Returns one
    fold-averaged ConfusionRates per seed, in seed order. Folds without any
    normal training instance are skipped with one warning each.
    """
    from .evaluation import average_rates, confusion_from_instances

    if not attributes or not seeds:
        raise ConfigurationError("need at least one attribute and one seed")
    matrix = attribute_matrix(table, attributes)
    folds = np.asarray(folds)
    per_seed = [[] for _ in seeds]
    for fold in range(int(folds.max()) + 1):
        test_mask = folds == fold
        self_mask = ~test_mask & ~table.anomalous
        if not self_mask.any():
            logger.warning("fold %d has no normal training instances; skipped",
                           fold)
            continue
        lo, hi = minmax_fit(matrix[~test_mask])
        scaled = minmax_apply(matrix, lo, hi)
        self_points = scaled[self_mask]
        test_points = scaled[test_mask]
        truth = table.anomalous[test_mask]
        for per_fold, seed in zip(per_seed, seeds):
            detectors = generate_detectors(
                self_points,
                params.detector_count,
                len(attributes),
                seed,
                params.max_attempts,
                params.self_radius,
                params.detector_radius,
            )
            predictions = classify_points(test_points, detectors,
                                          params.detector_radius)
            per_fold.append(confusion_from_instances(predictions, truth))
    if not per_seed[0]:
        raise ConfigurationError("every fold was skipped; no results")
    return [average_rates(per_fold) for per_fold in per_seed]
