"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the same code runs up to twice as fast at one moment as at
another, in episodes of tens of seconds.  The benchmark therefore interleaves
short blocks of this loop with the program's operations, so that both see
the same machine, and reports throughput per *reference second*: the time
``UNITS_PER_REF_S`` units of this loop take at that moment.  The loop does
not touch bipsym, so a change to the program moves only the operations'
side of the ratio.
"""

from __future__ import annotations

import random
import time

import numpy as np

UNITS_PER_REF_S = 1000
SHARE = 0.1  # reference time per second of operation time
MIN_BLOCK_S = 0.005  # shortest block of units, so timer reads stay a small share

_rng = random.Random(20120518)
_PERM = list(range(96))
_rng.shuffle(_PERM)
_ROWS = np.random.default_rng(20120518).integers(0, 6, size=(600, 8))


def unit() -> int:
    """One unit, about 1 ms: permutation composition and tuple hashing in
    Python, then a row-wise ``np.unique`` and a sort in numpy."""
    x = list(range(96))
    seen: dict[tuple, int] = {}
    for _ in range(24):
        x = [x[p] for p in _PERM]
        seen.setdefault(tuple(x[:12]), len(seen))
    rows, counts = np.unique(_ROWS, axis=0, return_counts=True)
    order = np.argsort(counts, kind="stable")
    return len(seen) + len(rows) + int(order[0])


class RefClock:
    """Runs reference units in proportion to the operation time it is told
    of, and converts operation time to reference seconds."""

    def __init__(self) -> None:
        self.op_s = 0.0  # operation time seen
        self.ref_s = 0.0  # time spent in reference units
        self.units = 0
        self._owed = 0.0

    def after(self, op_s: float) -> None:
        """Account for ``op_s`` seconds of operations and run the reference
        units they owe."""
        self.op_s += op_s
        self._owed += op_s * SHARE
        if self._owed < MIN_BLOCK_S:
            return
        start = time.perf_counter()
        n = 0
        while time.perf_counter() - start < self._owed:
            unit()
            n += 1
        spent = time.perf_counter() - start
        self._owed -= spent
        self.ref_s += spent
        self.units += n

    def unit_s(self) -> float:
        """Mean seconds per reference unit over the run."""
        return self.ref_s / self.units

    def to_ref_s(self, seconds: float) -> float:
        return seconds / (self.unit_s() * UNITS_PER_REF_S)
