"""Fixed-set checks of the isometry constructors, independent of verify().

``fixed_set`` names the fixed-point set of a power of an isometry;
``smith_check`` checks that every proper power of an isometry has the fixed
set Smith theory allows for its orientation; ``two_circle_check`` checks
the fixed circles of a fixed-point-free isometry.  They take one SVD per
power, and no code under ``src/`` needs them; the tests use them to check
the rotations, glides, reflection and improper rotations that ``realize``
builds its isometries from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from bipsym.errors import PreconditionError
from bipsym.geometry import IDENTITY_GAP, SUBSPACE_TOL, Isometry4
from bipsym.verifier import (
    CheckResult,
    RealizationCertificate,
    fixed_subspace,
    subspace_distance,
)


class FixedSetKind(Enum):
    EMPTY = "empty"
    TWO_POINTS = "two_points"
    CIRCLE = "circle"
    SPHERE = "sphere"
    ALL = "all"


_KIND_BY_DIM = {
    0: FixedSetKind.EMPTY,
    1: FixedSetKind.TWO_POINTS,
    2: FixedSetKind.CIRCLE,
    3: FixedSetKind.SPHERE,
    4: FixedSetKind.ALL,
}


@dataclass(frozen=True, eq=False)
class FixedSetDescriptor:
    kind: FixedSetKind
    basis: np.ndarray  # 4 x d, orthonormal columns spanning the +1-eigenspace


def fixed_set(iso: Isometry4, pw: int = 1) -> FixedSetDescriptor:
    """Structure of the fixed-point set of the pw-th power of the isometry."""
    if not 1 <= pw <= iso.claimed_order:
        raise ValueError(f"power must lie in [1, {iso.claimed_order}]")
    A = np.linalg.matrix_power(iso.matrix, pw)
    basis = fixed_subspace(A)
    return FixedSetDescriptor(_KIND_BY_DIM[basis.shape[1]], basis)


def smith_check(iso: Isometry4) -> RealizationCertificate:
    """Fixed-set structure of every proper power against its orientation.

    Orientation-preserving powers must fix the empty set or a circle;
    orientation-reversing powers two points or a sphere.
    """
    checks = []
    A = np.eye(4)
    for i in range(1, iso.claimed_order):
        A = A @ iso.matrix
        if np.abs(A - np.eye(4)).max() <= IDENTITY_GAP:
            checks.append(
                CheckResult(f"power_{i}", False, "proper power equals the identity")
            )
            continue
        det = float(np.linalg.det(A))
        kind = _KIND_BY_DIM[fixed_subspace(A).shape[1]]
        if det > 0:
            ok = kind in (FixedSetKind.EMPTY, FixedSetKind.CIRCLE)
        else:
            ok = kind in (FixedSetKind.TWO_POINTS, FixedSetKind.SPHERE)
        checks.append(
            CheckResult(
                f"power_{i}",
                ok,
                f"det = {det:+.0f}, fixed set {kind.value}",
                det,
            )
        )
    if not checks:
        checks.append(CheckResult("trivial", True, "no proper powers"))
    return RealizationCertificate(tuple(checks))


def two_circle_check(iso: Isometry4) -> RealizationCertificate:
    """For a fixed-point-free isometry: at most two circles occur as fixed
    sets of proper powers; two distinct ones are orthogonal complements,
    invariant, and their minimal fixing powers have lcm equal to the order.
    """
    r = iso.claimed_order
    if fixed_subspace(iso.matrix).shape[1] != 0:
        raise PreconditionError("isometry fixes points at power 1")
    circles: list[tuple[np.ndarray, int]] = []  # (basis, minimal power)
    A = np.eye(4)
    for i in range(1, r):
        A = A @ iso.matrix
        basis = fixed_subspace(A)
        if basis.shape[1] != 2:
            continue
        if all(subspace_distance(basis, b) > SUBSPACE_TOL for b, _ in circles):
            circles.append((basis, i))

    checks = [
        CheckResult(
            "at_most_two_circles",
            len(circles) <= 2,
            f"{len(circles)} distinct fixed circles",
            float(len(circles)),
        )
    ]
    for basis, k in circles:
        moved = subspace_distance(basis, iso.matrix @ basis)
        checks.append(
            CheckResult(
                f"invariant_power_{k}",
                moved <= SUBSPACE_TOL,
                f"circle first fixed at power {k}; image deviation {moved:.3g}",
                moved,
            )
        )
    if len(circles) == 2:
        (b1, k), (b2, j) = circles
        overlap = float(np.abs(b1.T @ b2).max())
        checks.append(
            CheckResult(
                "disjoint",
                overlap <= SUBSPACE_TOL,
                f"max |<x, y>| between circle planes = {overlap:.3g}",
                overlap,
            )
        )
        checks.append(
            CheckResult(
                "order_lcm",
                math.lcm(k, j) == r,
                f"lcm({k}, {j}) = {math.lcm(k, j)}, order = {r}",
                float(math.lcm(k, j)),
            )
        )
    return RealizationCertificate(tuple(checks))
