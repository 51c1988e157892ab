"""Dense all-pairs placement check, kept as a differential oracle.

``bipsym.geometry._Placer`` compares each new orbit, once, with the points
placed before it and with itself.  This is the check it replaced: the full
distance matrix of a point set with the same ``< SEPARATION`` test, and
unit norm per point.  Nothing under ``src/`` calls it; tests require that
the placer accepts exactly the orbits it accepts and that every realized
embedding passes it.
"""

from __future__ import annotations

import numpy as np

from bipsym.geometry import ORTHOGONALITY_TOL, SEPARATION, SpatialEmbedding


def too_close(pts: np.ndarray, others: np.ndarray) -> bool:
    """Whether some point of ``pts`` (k x 4) lies closer than SEPARATION to
    another row of ``others``, whose first k rows are ``pts`` themselves."""
    d = np.linalg.norm(pts[:, None, :] - others[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)  # each point against itself
    return bool((d < SEPARATION).any())


def validate(emb: SpatialEmbedding) -> None:
    """Raise ValueError unless every point of ``emb`` is a unit vector at
    least SEPARATION from every other."""
    arr = np.array(
        [*emb.coordinates.values(), *emb.subdivision_coordinates.values()]
    ).reshape(-1, 4)
    if (np.abs(np.linalg.norm(arr, axis=1) - 1.0) > ORTHOGONALITY_TOL).any():
        raise ValueError("embedded point is not on the unit sphere")
    if too_close(arr, arr):
        raise ValueError("two embedded vertices are closer than 1e-6")
