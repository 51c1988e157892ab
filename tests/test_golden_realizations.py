"""Realization and certificate bits pinned across refactors.

One sha256 covers the canonical JSON of ``realization_to_obj`` and
``certificate_to_obj`` for every realizable (class, orientation) of
K_{n,m}, 3 <= n <= m <= 7: the census representative of the class and one
seeded part-preserving relabelling of it, each realized at seeds 1 and 7.
A change to the placement order, the random draws, the isometries or the
verifier's messages changes the digest.  The floats come from numpy, so a
numpy or BLAS build that rounds differently changes it as well.
"""

import hashlib
import random

from bipsym import BipartiteAutomorphism, BipartiteShape, Orientation, realize, verify
from bipsym.census import _representative
from bipsym.classifier import classify, dispatch_case
from bipsym.jsonio import canonical_json, certificate_to_obj, realization_to_obj

from census_oracle import signature_tallies

GOLDEN_SHA256 = "c93362f163c4a599b538de5e75f57583d89c6e5dae208092ff40fe796f9e040e"
SEEDS = (1, 7)


def _relabelled(aut: BipartiteAutomorphism, rng: random.Random):
    """s a s^-1 for a random permutation s that maps each part to itself."""
    n, size = aut.shape.n, aut.shape.size
    vs, ws = list(range(n)), list(range(n, size))
    rng.shuffle(vs)
    rng.shuffle(ws)
    s = vs + ws
    perm = [0] * size
    for g, p in enumerate(aut.perm):
        perm[s[g]] = s[p]
    return BipartiteAutomorphism(aut.shape, tuple(perm))


def _golden_lines():
    rng = random.Random(2024)
    for n in range(3, 8):
        for m in range(n, 8):
            for sig in signature_tallies(BipartiteShape(n, m)):
                verdict = classify(sig)
                orientations = [o for o in Orientation if verdict.cases(o)]
                if not orientations:
                    continue
                rep = _representative(sig)
                for aut in (rep, _relabelled(rep, rng)):
                    for orientation in orientations:
                        label = dispatch_case(verdict, orientation).label
                        for seed in SEEDS:
                            iso, emb = realize(aut, orientation, seed)
                            cert = verify(aut, iso, emb, tol=1e-9)
                            assert cert.overall, (str(aut), orientation, seed)
                            yield canonical_json(
                                realization_to_obj(aut, iso, emb, label, seed)
                            )
                            yield canonical_json(certificate_to_obj(cert))


def test_golden_realizations_and_certificates():
    digest = hashlib.sha256()
    count = 0
    for line in _golden_lines():
        digest.update(line.encode("utf-8") + b"\n")
        count += 1
    assert count == 2 * 1288
    assert digest.hexdigest() == GOLDEN_SHA256
