"""The induces check with its full distance block, as a differential oracle.

``check_induces`` measures the points and their images against every point
in one block of ``_distances`` and finds each image's nearest point by
``argmin``, for every certificate.  ``bipsym.verifier._check_induces`` builds
the image half of the block only when its shortcut does not apply; both must
give the same ``CheckResult``, ``step`` and ``min_sep`` bit for bit.
"""

import math

import numpy as np

from bipsym.geometry import SEPARATION, _distances
from bipsym.verifier import CheckResult


def check_induces(st) -> CheckResult:
    """The induces check of the ``bipsym.verifier._Verification`` ``st``;
    sets ``st.min_sep`` and ``st.step``."""
    P = st.P
    K = len(P)
    # rows below K: distances between points; from K on: from M x_k to each
    # point
    block = _distances(np.concatenate((P, P @ st.iso.matrix.T)), P)
    dists, move = block[:K], block[K:]
    dists.flat[:: K + 1] = np.inf
    min_sep = float(dists.min())
    nearest = move.argmin(axis=1)
    target = st.image
    matched = nearest == target  # never where target is -1
    dev = move[np.arange(K), target]  # d(M x_k, x_target); unused where not closed
    st.min_sep = min_sep
    st.step = float(dev.max()) if matched.all() else math.inf
    if st.step <= st.tol:  # every point matched within tol, no NaN
        worst, bad = st.step, ()
    else:
        # as Python's max over the points in order: a NaN deviation never wins
        worst = float(np.max(dev, where=(target >= 0) & (dev > 0), initial=0.0))
        bad = np.flatnonzero(~matched | (dev > st.tol))
    ok = min_sep >= SEPARATION
    detail = []
    if not ok:
        detail.append(f"min separation {min_sep:.3g} < 1e-6")
    for k in bad:
        ok = False
        if target[k] < 0:
            detail.append(f"subdivision set not closed at {st.name(k)}")
            continue
        detail.append(
            f"M*{st.name(k)} matched {st.name(int(nearest[k]))}, wanted "
            f"{st.name(int(target[k]))} (dist {float(dev[k]):.3g})"
        )
    return CheckResult(
        "induces",
        ok,
        "; ".join(detail) if detail else
        f"max image deviation {worst:.3g}, min separation {min_sep:.3g}",
        worst,
    )
