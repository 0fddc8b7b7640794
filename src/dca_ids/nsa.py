"""Real-valued negative selection with constant-sized detectors.

Detectors are random points in the unit hypercube censored against the
normal (self) set: a candidate survives only if its ball cannot intersect
any self ball. Test points matching any surviving detector are classified
anomalous.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import (
    ANOMALOUS,
    NORMAL,
    KddTable,
    attribute_matrix,
    minmax_fit,
    minmax_apply,
)
from .errors import ConfigurationError

logger = logging.getLogger(__name__)

DEFAULT_SELF_RADIUS = 0.1
DEFAULT_DETECTOR_RADIUS = 0.1
DEFAULT_DETECTOR_COUNT = 1000


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
    """
    if count < 1:
        raise ConfigurationError(f"detector count must be >= 1, got {count}")
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    if max_attempts is None:
        max_attempts = 100 * count
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    self_points = np.asarray(self_points, dtype=float).reshape(-1, dimension)
    tree = cKDTree(self_points) if len(self_points) else None
    censor_radius = self_radius + detector_radius

    accepted = [np.empty((0, dimension))]
    found = 0
    attempts = 0
    batch = 1024
    while found < count and attempts < max_attempts:
        size = min(batch, max_attempts - attempts)
        candidates = rng.random((size, dimension))
        attempts += size
        if tree is not None:
            # Self points beyond the censor radius come back as inf, which
            # passes the test below exactly as their true distance would.
            distances, _ = tree.query(candidates, k=1,
                                      distance_upper_bound=censor_radius)
            candidates = candidates[distances >= censor_radius]
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
) -> list[str]:
    """Anomalous iff a point strictly matches at least one detector."""
    points = np.asarray(points, dtype=float)
    if len(detectors) == 0:
        return [NORMAL] * len(points)
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
    return [ANOMALOUS if d < detector_radius else NORMAL for d in distances]


@dataclass
class NsaParams:
    self_radius: float = DEFAULT_SELF_RADIUS
    detector_radius: float = DEFAULT_DETECTOR_RADIUS
    detector_count: int = DEFAULT_DETECTOR_COUNT
    max_attempts: int | None = None


def run_nsa_fold(
    train_matrix: np.ndarray,
    train_normal: np.ndarray,
    test_matrix: np.ndarray,
    params: NsaParams,
    seed: int,
):
    """One cross-validation fold: fit bounds on training data, censor
    detectors against the normalized training instances marked in
    ``train_normal``, classify the normalized test instances. Returns
    (predicted labels, detectors)."""
    lo, hi = minmax_fit(train_matrix)
    train_norm = minmax_apply(train_matrix, lo, hi)
    test_norm = minmax_apply(test_matrix, lo, hi)
    detectors = generate_detectors(
        train_norm[train_normal],
        params.detector_count,
        train_matrix.shape[1],
        seed,
        params.max_attempts,
        params.self_radius,
        params.detector_radius,
    )
    predictions = classify_points(test_norm, detectors, params.detector_radius)
    return predictions, detectors


def run_nsa(
    table: KddTable,
    attributes: Sequence[str],
    folds: np.ndarray,
    params: NsaParams,
    seed: int,
):
    """Full cross-validated run over the given attribute subset.

    Returns (per-fold ConfusionRates list, averaged ConfusionRates). Folds
    without any normal training instance are skipped with a warning.
    """
    from .evaluation import average_rates, confusion_from_instances

    if not 1 <= len(attributes):
        raise ConfigurationError("need at least one attribute")
    matrix = attribute_matrix(table, attributes)
    normal = ~table.anomalous
    folds = np.asarray(folds)
    per_fold = []
    for fold in range(int(folds.max()) + 1):
        test_mask = folds == fold
        train_mask = ~test_mask
        if not normal[train_mask].any():
            logger.warning("fold %d has no normal training instances; skipped",
                           fold)
            continue
        predictions, _ = run_nsa_fold(
            matrix[train_mask], normal[train_mask], matrix[test_mask],
            params, seed,
        )
        truth = np.where(normal[test_mask], NORMAL, ANOMALOUS)
        per_fold.append(confusion_from_instances(predictions, truth))
    if not per_fold:
        raise ConfigurationError("every fold was skipped; no results")
    return per_fold, average_rates(per_fold)
