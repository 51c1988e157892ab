"""Realize-all counts conjugacy classes; these tests check the lemma that
allows it and compare the count with the per-automorphism oracle.

If (M, x) realizes a, then (M, x o s^-1) realizes s a s^-1: relabeling the
embedding through s moves the point of v to s(v).  So one verified
representative certifies its whole class.
"""

import random

import pytest

from bipsym import (
    BipartiteAutomorphism,
    BipartiteShape,
    Part,
    SpatialEmbedding,
    census,
    classify,
    compose,
    inverse,
    realize,
    verify,
)
from bipsym.census import _representative, signature_tallies

import census_oracle

ORACLE_SHAPES = [(n, m) for n in (3, 4) for m in (3, 4)] + [(3, 5), (5, 3)]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("n, m", ORACLE_SHAPES)
def test_class_count_matches_per_automorphism_oracle(n, m, seed):
    shape = BipartiteShape(n, m)
    report = census(shape, realize_all=True, seed=seed)
    assert report.realized_verified == census_oracle.realized_verified(shape, seed)


def random_relabeling(
    shape: BipartiteShape, rng: random.Random, swapping: bool
) -> BipartiteAutomorphism:
    n, m = shape.n, shape.m
    vp = rng.sample(range(n), n)
    wp = [n + j for j in rng.sample(range(m), m)]
    if swapping:
        return BipartiteAutomorphism(shape, tuple(wp) + tuple(vp))
    return BipartiteAutomorphism(shape, tuple(vp) + tuple(wp))


def relabel(emb: SpatialEmbedding, sigma: BipartiteAutomorphism) -> SpatialEmbedding:
    """The embedding x o sigma^-1: vertex sigma(v) sits where v sat."""
    edges = {}
    for zid, (v, w) in emb.subdivision_edges.items():
        a, b = sigma(v), sigma(w)
        edges[zid] = (a, b) if a.part is Part.V else (b, a)
    return SpatialEmbedding(
        shape=emb.shape,
        coordinates={sigma(v): x for v, x in emb.coordinates.items()},
        subdivision_coordinates=dict(emb.subdivision_coordinates),
        subdivision_edges=edges,
        landmarks=dict(emb.landmarks),
    )


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(3, 10) for m in range(n, 10)]
)
def test_relabeled_realization_verifies_conjugate(n, m):
    shape = BipartiteShape(n, m)
    rng = random.Random(f"conjugate {n},{m}")
    relabelings = (False, True) if n == m else (False,)
    for sig in signature_tallies(shape):
        verdict = classify(sig)
        rep = _representative(sig)
        for orientation, realizable in (
            ("op", verdict.op_realizable),
            ("or", verdict.or_realizable),
        ):
            if not realizable:
                continue
            iso, emb = realize(rep, orientation, seed=1)
            for swapping in relabelings:
                sigma = random_relabeling(shape, rng, swapping)
                conjugate = compose(sigma, compose(rep, inverse(sigma)))
                cert = verify(conjugate, iso, relabel(emb, sigma), tol=1e-9)
                failed = [c.name for c in cert.checks if not c.passed]
                assert not failed, (str(rep), orientation, str(sigma), failed)
