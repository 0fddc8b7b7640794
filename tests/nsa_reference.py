"""Test-only oracle: the detector generator that ``dca_ids.nsa`` replaced.

The function below is the earlier ``generate_detectors``, kept verbatim so the
covered-cell version can be checked against it detector for detector. It
sends every candidate to the kd-tree. Only the imports changed. Nothing in the
package imports this module.
"""
from __future__ import annotations

import logging

import numpy as np

from dca_ids.errors import ConfigurationError
from dca_ids.nsa import DEFAULT_DETECTOR_RADIUS, DEFAULT_SELF_RADIUS

logger = logging.getLogger(__name__)


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
