"""Realize-all builds from the classification the census already holds.

``census(realize_all=True)`` builds the representative of each realizable
class from its two run tuples and decides the class from their rows, so it
holds the class's order r and the case ``dispatch_case`` picks in each
orientation.  It hands (representative, r, case, seed) to
``geometry._realize``, the construction behind the public ``realize``,
which takes the signature, classifies it and hands over the same.  These
tests check that the census's calls build the same bits as the public path
for every realizable (class, orientation) of 3 <= n, m <= 7, and that a
realize-all census takes no signature and classifies nothing.

The census walks a set of candidates, and (lam, None) hashes by the address
of None, so the order of its realize calls can differ between processes:
its realizations and certificates are compared as multisets.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import bipsym.classifier
import bipsym.core
import bipsym.geometry
import bipsym.verifier
from bipsym import BipartiteShape, Orientation, census, classify, realize, signature, verify
from bipsym.classifier import candidate_classes, dispatch_case
from bipsym.jsonio import canonical_json, certificate_to_obj, realization_to_obj

import census_oracle

SHAPES = [(n, m) for n in range(3, 8) for m in range(3, 8)]


def recorded_census(monkeypatch, shape, seed):
    """The report of a realize-all census, with the arguments and result of
    each of its construction calls and each of its certificates."""
    calls, certs = [], []
    # the census certifies through verify's internal path, with its table
    construct, check = bipsym.geometry._realize, bipsym.verifier._certify

    def recording(*args):
        calls.append((args, construct(*args)))
        return calls[-1][1]

    def certifying(*args, **kwargs):
        certs.append(check(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(bipsym.geometry, "_realize", recording)
    monkeypatch.setattr(bipsym.verifier, "_certify", certifying)
    report = census(shape, realize_all=True, seed=seed)
    monkeypatch.undo()
    return report, calls, certs


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def lines(aut, iso, emb, cert, label, seed):
    return (
        canonical_json(realization_to_obj(aut, iso, emb, label, seed)),
        canonical_json(certificate_to_obj(cert)),
    )


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("n, m", SHAPES)
def test_handed_over_classification_builds_the_public_bits(monkeypatch, n, m, seed):
    shape = BipartiteShape(n, m)
    report, calls, certs = recorded_census(monkeypatch, shape, seed)
    assert len(certs) == len(calls) > 0

    got = Counter()
    for ((rep, r, case, call_seed), (iso, emb)), cert in zip(calls, certs):
        sig = signature(rep)
        assert call_seed == seed
        assert rep == census_oracle.representative(sig)
        assert r == sig.r
        assert case == dispatch_case(classify(sig), case.orientation)
        pub_iso, pub_emb = realize(rep, case.orientation, seed)
        assert same_bits(iso.matrix, pub_iso.matrix)
        assert (iso.claimed_order, iso.orientation) == (pub_iso.claimed_order, pub_iso.orientation)
        assert same_bits(emb.points, pub_emb.points)
        assert emb.subdivision_ids == pub_emb.subdivision_ids
        assert emb.subdivision_pairs == pub_emb.subdivision_pairs
        assert emb.landmarks == pub_emb.landmarks
        got[lines(rep, iso, emb, cert, case.label, seed)] += 1

    # the public path over the realizable candidates, in any order, each
    # represented as the signature builder represents it
    want = Counter()
    for key in candidate_classes(shape):
        sig = census_oracle.class_signature(shape, *census_oracle.as_partitions(*key))
        verdict = classify(sig)
        rep = census_oracle.signature_representative(sig)
        for orientation in Orientation:
            if verdict.cases(orientation):
                iso, emb = realize(rep, orientation, seed)
                cert = verify(rep, iso, emb, tol=1e-9)
                label = dispatch_case(verdict, orientation).label
                want[lines(rep, iso, emb, cert, label, seed)] += 1
    assert got == want

    plain = census_oracle.census_report(shape)
    assert (report.total, report.per_case) == (plain.total, plain.per_case)
    assert (report.unrealizable_op, report.unrealizable_or) == (
        plain.unrealizable_op,
        plain.unrealizable_or,
    )
    # every realizable class verifies, in each of its orientations
    realizable = 2 * report.total - plain.unrealizable_op - plain.unrealizable_or
    assert report.realized_verified == realizable


def count_classifications(monkeypatch) -> Counter:
    """Count calls of ``signature`` and ``classify`` through every name a
    bipsym module binds them to."""
    calls = Counter()
    for fn in (bipsym.core.signature, bipsym.classifier.classify):

        def counting(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "bipsym":
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counting)
    return calls


def test_realize_all_census_takes_no_signature_and_classifies_nothing(monkeypatch):
    calls = count_classifications(monkeypatch)
    report = census(BipartiteShape(6, 6), realize_all=True)
    assert report.realized_verified == 521_952
    assert calls == Counter()


def test_guard_catches_a_construction_that_classifies_again(monkeypatch):
    # the guard above must fail for a construction that takes the signature
    # and classifies it again, as the public realize does
    construct = bipsym.geometry._realize

    def reclassifying(aut, r, case, seed):
        sig = bipsym.geometry.signature(aut)
        verdict = bipsym.geometry.classify(sig)
        return construct(aut, sig.r, dispatch_case(verdict, case.orientation), seed)

    monkeypatch.setattr(bipsym.geometry, "_realize", reclassifying)
    calls = count_classifications(monkeypatch)
    census(BipartiteShape(4, 4), realize_all=True)
    assert calls["signature"] == calls["classify"] == 22
