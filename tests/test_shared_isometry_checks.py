"""verify's checks of the isometry alone, shared between triples.

``bipsym.verifier._check_isometry`` makes orthogonal, order and orientation,
M^r, the M^d of the proper divisors d of r and their fixed subspaces from
(M, r, orientation, tol) alone, and ``_certify`` runs the point checks
against them.  ``verify`` makes a fresh one per call; ``census`` with
``realize_all`` shares one per key through an ``_IsometryTable``.  A
certificate made with the checks of another triple of the same key must
have the bits of a fresh ``verify``'s, also when a point is moved, and a
key that differs in one ulp of the matrix, in the claimed order or in the
orientation must get checks of its own.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import bipsym.verifier
from bipsym import (
    BipartiteShape,
    Isometry4,
    Orientation,
    census,
    classify,
    parse_cycles,
    realize,
    signature,
    verify,
)
from bipsym.jsonio import canonical_json, certificate_to_obj
from bipsym.verifier import _certify, _check_isometry, _IsometryTable

from census_oracle import class_signature, classes_of, signature_representative

TOL = 1e-9
SHAPES = [BipartiteShape(n, m) for n in range(3, 7) for m in range(3, 7)]
FLIPPED = {Orientation.OP: Orientation.OR, Orientation.OR: Orientation.OP}


def key(iso: Isometry4) -> tuple:
    return (iso.matrix.tobytes(), iso.claimed_order, iso.orientation)


def realizations(shape: BipartiteShape, seed: int) -> list[tuple]:
    """(aut, iso, emb) for one representative of every realizable class of
    ``shape``, once per realizable orientation."""
    out = []
    for lam, mu in classes_of(shape.n, shape.m):
        aut = signature_representative(class_signature(shape, lam, mu))
        verdict = classify(signature(aut))
        for orientation, ok in (("op", verdict.op_realizable), ("or", verdict.or_realizable)):
            if ok:
                out.append((aut, *realize(aut, orientation, seed)))
    return out


def certificate(aut, iso, emb, isometry=None) -> str:
    """The canonical JSON of verify's certificate, or of the point checks run
    against ``isometry(iso, tol)``."""
    if isometry is None:
        cert = verify(aut, iso, emb, tol=TOL)
    else:
        cert = _certify(aut, iso, emb, TOL, isometry)
    return canonical_json(certificate_to_obj(cert))


def given(checks):
    """An isometry source for _certify that hands out ``checks``."""
    return lambda iso, tol: checks


def moved(aut, emb):
    """``emb`` with one point moved 1e-7 along the sphere: the first point
    the automorphism moves, or v1 under the identity; and whether it moves
    one."""
    moving = [k for k, image in enumerate(aut.perm) if image != k]
    k = moving[0] if moving else 0
    points = np.array(emb.points, dtype=float)
    x = points[k]
    along = np.eye(4)[np.argmin(np.abs(x))]
    along -= (along @ x) * x
    points[k] = np.cos(1e-7) * x + np.sin(1e-7) * along / np.linalg.norm(along)
    return dataclasses.replace(emb, points=points), bool(moving)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_shared_checks_give_the_same_certificates(shape):
    triples = realizations(shape, 1) + realizations(shape, 2)
    by_key = {}
    for triple in triples:
        by_key.setdefault(key(triple[1]), []).append(triple)
    with_donor = 0
    for aut, iso, emb in triples:
        donor = next((other for _, other, _ in by_key[key(iso)] if other is not iso), None)
        with_donor += donor is not None
        if donor is None:  # the only triple of its key: a copy of its isometry
            donor = Isometry4(iso.matrix.copy(), iso.claimed_order, iso.orientation)
        donated = given(_check_isometry(donor, TOL))
        assert certificate(aut, iso, emb, donated) == certificate(aut, iso, emb)
        # a moved point keeps the key, and fails induces as a fresh verify does
        far, moves = moved(aut, emb)
        assert certificate(aut, iso, far, donated) == certificate(aut, iso, far)
        assert verify(aut, iso, far, tol=TOL).check("induces").passed is not moves
        # a doubled claimed order is another key, with checks of its own
        doubled = Isometry4(iso.matrix, 2 * iso.claimed_order, iso.orientation)
        table = _IsometryTable()
        assert table(doubled, TOL) is not table(iso, TOL) and len(table) == 2
        fresh = certificate(aut, doubled, emb)
        assert certificate(aut, doubled, emb, table) == fresh
        assert certificate(aut, doubled, emb, donated) != fresh
        assert not verify(aut, doubled, emb, tol=TOL).check("order").passed
    # most classes share their isometry with another
    assert 2 * with_donor > len(triples)


def spy(monkeypatch, name: str, keys: list):
    """Record the key of the isometry of every call of bipsym.verifier's
    ``name``, whose second argument is the isometry."""
    real = getattr(bipsym.verifier, name)

    def recording(*args):
        keys.append(key(args[1] if name == "_certify" else args[0]))
        return real(*args)

    monkeypatch.setattr(bipsym.verifier, name, recording)


def test_keys_separate_isometries(monkeypatch):
    aut = parse_cycles(BipartiteShape(4, 4), "(v1 v2 v3)(w1 w2 w3)")
    iso, emb = realize(aut, "op", seed=1)
    nudged = iso.matrix.copy()
    nudged[1, 2] = np.nextafter(nudged[1, 2], 2.0)
    r, orientation = iso.claimed_order, iso.orientation
    variants = [
        iso,
        Isometry4(nudged, r, orientation),
        Isometry4(iso.matrix, r + 1, orientation),
        Isometry4(iso.matrix, r, FLIPPED[orientation]),
    ]
    made, subspaces = [], []
    spy(monkeypatch, "_check_isometry", made)
    real = bipsym.verifier.fixed_subspace
    monkeypatch.setattr(
        bipsym.verifier, "fixed_subspace", lambda A: subspaces.append(A) or real(A)
    )
    table = _IsometryTable()
    first = [certificate(aut, variant, emb, table) for variant in variants]
    assert subspaces  # the variant with the realized matrix establishes π
    # the second pass takes every check, the subspaces included, from the table
    made_first, subspaces_first = len(made), len(subspaces)
    assert [certificate(aut, variant, emb, table) for variant in variants] == first
    assert (len(made), len(subspaces)) == (made_first, subspaces_first)
    assert first == [certificate(aut, variant, emb) for variant in variants]
    # each variant once for the table, and once for its fresh verify
    assert Counter(made) == Counter({key(v): 2 for v in variants})
    assert len(table) == len(variants)
    assert len({id(checks) for checks in table.values()}) == len(variants)


def test_census_checks_each_key_once(monkeypatch):
    shape = BipartiteShape(4, 4)
    want = census(shape, realize_all=True)
    made, certified = [], []
    spy(monkeypatch, "_check_isometry", made)
    spy(monkeypatch, "_certify", certified)
    assert census(shape, realize_all=True) == want
    assert Counter(made) == Counter(set(certified))
    assert len(made) < len(certified)
