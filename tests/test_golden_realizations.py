"""Realization and certificate bits pinned across refactors.

``GOLDEN_SHA256`` covers the canonical JSON of ``realization_to_obj`` and
``certificate_to_obj`` for every realizable (class, orientation) of
K_{n,m}, 3 <= n <= m <= 7: the census representative of the class and one
seeded part-preserving relabelling of it, each realized at seeds 1 and 7.
A change to the placement order, the random draws, the isometries, the
verifier's messages or the products by which it makes the powers of M
changes the digest.  The floats come from numpy, so a numpy or BLAS build
that rounds differently changes it as well.

K_{3,3}..K_{7,7} never dispatch OP8, so ``BRANCH_SHA256`` pins every
construction branch on its own: the same two lines for each entry of
``REALIZE_CASES`` and for OP8 with the parts interchanged, at seeds 1 and 7.
"""

import hashlib
import random

from bipsym import (
    BipartiteAutomorphism,
    BipartiteShape,
    Orientation,
    parse_cycles,
    realize,
    verify,
)
from bipsym.classifier import classify, classify_aut, dispatch_case
from bipsym.jsonio import canonical_json, certificate_to_obj, realization_to_obj

from census_oracle import representative, signature_tallies
from test_geometry import REALIZE_CASES

GOLDEN_SHA256 = "0053a7f4d7adb14aa3b323d3cddc1806c96913bf50acfd04ba81d4121055510d"
BRANCH_SHA256 = "7c21b0fcbde87b8ee3efc54ef709d80501c190de26a0af92570e9c6a7b83e890"
SEEDS = (1, 7)
# OP8 with the parts interchanged: the W 2-cycle and 3-cycle take the v-role
OP8_INTERCHANGED = ((8, 5), "(w1 w2)(w3 w4 w5)(v1 v2)(v3 v4 v5 v6 v7 v8)", "op", "OP8")


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


def _lines(aut, orientation, label):
    """The realization and certificate JSON of ``aut`` at each seed."""
    for seed in SEEDS:
        iso, emb = realize(aut, orientation, seed)
        cert = verify(aut, iso, emb, tol=1e-9)
        assert cert.overall, (str(aut), orientation, seed)
        yield canonical_json(realization_to_obj(aut, iso, emb, label, seed))
        yield canonical_json(certificate_to_obj(cert))


def _golden_lines():
    rng = random.Random(2024)
    for n in range(3, 8):
        for m in range(n, 8):
            for sig in signature_tallies(BipartiteShape(n, m)):
                verdict = classify(sig)
                orientations = [o for o in Orientation if verdict.cases(o)]
                if not orientations:
                    continue
                rep = representative(sig)
                for aut in (rep, _relabelled(rep, rng)):
                    for orientation in orientations:
                        label = dispatch_case(verdict, orientation).label
                        yield from _lines(aut, orientation, label)


def _branch_lines():
    for nm, text, orientation, expected in [*REALIZE_CASES, OP8_INTERCHANGED]:
        aut = parse_cycles(BipartiteShape(*nm), text)
        label = dispatch_case(classify_aut(aut), Orientation(orientation)).label
        assert label == expected
        yield from _lines(aut, orientation, label)


def _digest(lines) -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
        count += 1
    return digest.hexdigest(), count


def test_golden_realizations_and_certificates():
    assert _digest(_golden_lines()) == (GOLDEN_SHA256, 2 * 1288)


def test_every_construction_branch():
    assert _digest(_branch_lines()) == (BRANCH_SHA256, 2 * 2 * (len(REALIZE_CASES) + 1))
