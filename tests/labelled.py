"""Embeddings keyed by vertex label, for tests.

``SpatialEmbedding`` holds its points in one array by index.  The ``*_of``
functions read them keyed by ``VertexId`` and subdivision id, as the tests
and the verifier oracle compare them; ``embedding_from_labels`` builds an
embedding from such mappings, with the label checks a realization file
gets, and normalizes each subdivision edge to (V index, W index).
"""

from __future__ import annotations

import numpy as np

from bipsym.core import Part
from bipsym.errors import ShapeMismatch
from bipsym.geometry import SpatialEmbedding


def coordinates_of(emb: SpatialEmbedding) -> dict:
    """Graph vertex -> its row of ``emb.points``."""
    return dict(zip(emb.shape.vertices(), emb.points))


def subdivision_coordinates_of(emb: SpatialEmbedding) -> dict:
    """Subdivision id -> its row of ``emb.points``."""
    return dict(zip(emb.subdivision_ids, emb.points[emb.shape.size :]))


def subdivision_edges_of(emb: SpatialEmbedding) -> dict:
    """Subdivision id -> its edge as (V vertex, W vertex)."""
    at = emb.shape.vertex_at
    return {z: (at(a), at(b)) for z, (a, b) in zip(emb.subdivision_ids, emb.subdivision_pairs)}


def embedding_from_labels(
    shape, coordinates, subdivision_coordinates=None, subdivision_edges=None, landmarks=None
) -> SpatialEmbedding:
    """The embedding with these points by vertex and by subdivision id, each
    subdivision edge given as two vertices in either order.  Raises
    ShapeMismatch when a vertex has no point, an edge is not an edge of
    the graph, or the ids of the points and of the edges differ."""
    sub_coords = subdivision_coordinates or {}
    sub_edges = subdivision_edges or {}
    missing = [v for v in shape.vertices() if v not in coordinates]
    if missing:
        raise ShapeMismatch(f"embedding lacks coordinates for {missing[0].label}")
    for e in sub_edges.values():
        if {e[0].part, e[1].part} != {Part.V, Part.W} or not all(map(shape.contains, e)):
            raise ShapeMismatch(f"subdivision edge {e} is not an edge of the graph")
    if sub_edges.keys() != sub_coords.keys():
        raise ShapeMismatch("subdivision vertices and their edges do not match")
    zids = tuple(sorted(sub_coords))
    points = [coordinates[v] for v in shape.vertices()] + [sub_coords[z] for z in zids]
    pairs = tuple(tuple(sorted(map(shape.global_index, sub_edges[z]))) for z in zids)
    return SpatialEmbedding(shape, np.array(points, dtype=float), zids, pairs, dict(landmarks or {}))
