"""On K_{n,n} the census counts (lam, mu) and (mu, lam) as one class.

The part swap is an automorphism of K_{n,n}, and conjugating by it turns
the class (lam, mu) into (mu, lam), so Aut(K_{n,n}) has one class of size
2*n!^2/(z_lam*z_mu) where S_n x S_n has two.  The census keeps the one with
lam >= mu.  These tests check what that relies on, that a class and its
interchanged class get the same case labels, and that realize-all realizes
one representative per merged class and orientation.  That the folded
census equals the sum over every class of S_n x S_n is checked for every
shape up to K_{16,16} in ``test_census_generators``.
"""

import pytest

import bipsym.geometry
from bipsym import BipartiteShape, census, classify

from automorphism_ops import interchange_parts
from census_oracle import signature_tallies


def _labels(cases):
    return [case.label for case in cases]


@pytest.mark.parametrize("n", range(3, 13))
def test_interchanged_class_has_the_same_labels(n):
    for sig in signature_tallies(BipartiteShape(n, n)):
        verdict = classify(sig)
        swapped = classify(interchange_parts(sig))
        assert _labels(verdict.op_cases) == _labels(swapped.op_cases), sig
        assert _labels(verdict.or_cases) == _labels(swapped.or_cases), sig


# realize calls with the fold (without it: 12, 31 and 55)
@pytest.mark.parametrize(
    "n, runs, verified", [(3, 9, 72), (4, 22, 1043), (6, 37, 521_952)]
)
def test_realize_all_once_per_merged_class(monkeypatch, n, runs, verified):
    calls = []
    realize = bipsym.geometry._realize

    def counting(*args, **kwargs):
        calls.append(args)
        return realize(*args, **kwargs)

    monkeypatch.setattr(bipsym.geometry, "_realize", counting)
    report = census(BipartiteShape(n, n), realize_all=True)
    assert len(calls) == runs
    assert report.realized_verified == verified
