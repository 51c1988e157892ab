"""Percentiles with a sample-count rule, metric records and run-to-run spread."""

from __future__ import annotations

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MIN_BEYOND = 10  # samples that must lie beyond a percentile to report it


def samples_beyond(n: int, p: float) -> int:
    """Samples above the p-th percentile of n samples (nearest-rank)."""
    return n - math.ceil(p * n / 100)


def percentile_allowed(n: int, p: float) -> bool:
    return samples_beyond(n, p) >= MIN_BEYOND


def percentile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentiles(prefix: str, values, unit: str, ps=(50, 90, 99)) -> dict:
    """``<prefix>.p<k>`` metrics for each k the sample count allows."""
    out = {}
    for p in ps:
        if percentile_allowed(len(values), p):
            out[f"{prefix}.p{p}"] = metric(percentile(values, p), unit, n=len(values))
    return out


def metric(value: float, unit: str, n: int | None = None, note: str | None = None) -> dict:
    rec = {"value": value, "unit": unit}
    if n is not None:
        rec["n"] = n
    if note:
        rec["note"] = note
    return rec


def check_names(metrics) -> None:
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")


def spread(values) -> dict:
    """Median and the quartile distance as a share of the median, taken as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / med if med else math.inf,
    }
