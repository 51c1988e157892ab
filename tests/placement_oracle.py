"""One-orbit-at-a-time placement and the dense all-pairs check, kept as
differential oracles.

``bipsym.geometry._Placer.place`` places one orbit at a time, and checks
each new point only against the points filed under its own cell of a grid.
``SequentialPlacer`` is the same loop with the dense check: each orbit is
drawn, written and checked against every point placed before it and against
itself, and a drawn orbit is redrawn until it is admitted.  The grid must
give the same draws, points, rows, final rng state and errors.
``too_close`` is that dense check: the full distance matrix of a point set
with the same ``< SEPARATION`` test, and ``validate`` adds unit norm per
point.  Nothing under ``src/`` calls this module.
"""

from __future__ import annotations

import numpy as np

from bipsym.errors import PlacementFailure, TooLarge
from bipsym.geometry import (
    MAX_PLACEMENT_ATTEMPTS,
    ORTHOGONALITY_TOL,
    SEPARATION,
    SpatialEmbedding,
)


def too_close(pts: np.ndarray, others: np.ndarray) -> bool:
    """Whether some point of ``pts`` (k x 4) lies closer than SEPARATION to
    another row of ``others``, whose first k rows are ``pts`` themselves."""
    d = np.linalg.norm(pts[:, None, :] - others[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)  # each point against itself
    return bool((d < SEPARATION).any())


class SequentialPlacer:
    """Places the steps ``(keys, seed[, avoid])`` of ``_Placer.place`` one
    orbit at a time, with the dense check, into ``points`` and ``rows``."""

    def __init__(self, M, shape, rng, subdivisions: int = 0) -> None:
        self.M, self.shape, self.rng = M, shape, rng
        self.points = np.empty((shape.size + subdivisions, 4))
        self.rows: dict = {}

    def _label(self, key) -> str:
        return key if isinstance(key, str) else self.shape.vertex_at(key).label

    def _try(self, keys, p) -> bool:
        """Write the orbit of p after the placed rows and keep it when the
        dense check admits it."""
        start, k = len(self.rows), len(keys)
        pts = self.points[start : start + k]
        pts[0] = p
        for i in range(1, k):
            pts[i] = self.M @ pts[i - 1]
        try:
            rejected = too_close(pts, np.concatenate([pts, self.points[:start]]))
        except MemoryError as exc:
            raise TooLarge(
                f"placing an orbit of {k} points needs more memory than is available"
            ) from exc
        if not rejected:
            self.rows.update(zip(keys, range(start, start + k)))
        return not rejected

    def put(self, keys, seed, avoid=()) -> None:
        if not callable(seed):
            if not self._try(keys, seed):
                raise PlacementFailure(
                    f"pinned orbit through {self._label(keys[0])} collides"
                )
            return
        for _ in range(MAX_PLACEMENT_ATTEMPTS):
            draws = (seed(self.rng) for _ in range(MAX_PLACEMENT_ATTEMPTS))
            p = next((p for p in draws if all(d(p) >= SEPARATION for d in avoid)), None)
            if p is None:
                raise PlacementFailure("could not sample a point off the landmark sets")
            if self._try(keys, p):
                return
        raise PlacementFailure(
            f"no admissible orbit through {self._label(keys[0])} "
            f"after {MAX_PLACEMENT_ATTEMPTS} attempts"
        )

    def place(self, steps) -> None:
        for step in steps:
            self.put(*step)


def validate(emb: SpatialEmbedding) -> None:
    """Raise ValueError unless every point of ``emb`` is a unit vector at
    least SEPARATION from every other."""
    arr = emb.points
    if (np.abs(np.linalg.norm(arr, axis=1) - 1.0) > ORTHOGONALITY_TOL).any():
        raise ValueError("embedded point is not on the unit sphere")
    if too_close(arr, arr):
        raise ValueError("two embedded vertices are closer than 1e-6")
