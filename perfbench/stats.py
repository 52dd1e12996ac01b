"""Small statistics helpers shared by the benchmark and its self-tests.

Every percentile is reported together with the sample count it was taken
from, and a percentile is refused when fewer than :data:`MIN_BEYOND` samples
lie beyond it: a tail read from a handful of samples is noise.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised when a percentile has fewer than :data:`MIN_BEYOND` samples beyond it."""


def samples_beyond(count: int, q: float) -> float:
    """How many of *count* samples lie beyond the *q*-th percentile."""
    return count * (100.0 - q) / 100.0


def percentile(samples: Sequence[float], q: float) -> Dict[str, float]:
    """The *q*-th percentile (0 < q < 100) with its sample count.

    Linear interpolation between closest ranks.  Raises
    :class:`TooFewSamples` when fewer than ten samples lie beyond it.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    count = len(samples)
    if samples_beyond(count, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {count} samples has {samples_beyond(count, q):.1f} "
            f"beyond it (need {MIN_BEYOND})"
        )
    ordered = sorted(float(value) for value in samples)
    rank = (q / 100.0) * (count - 1)
    low = int(math.floor(rank))
    high = min(low + 1, count - 1)
    fraction = rank - low
    value = ordered[low] * (1.0 - fraction) + ordered[high] * fraction
    return {"value": value, "q": q, "samples": count}


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile (>= 50) with ten samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    best = None
    for q in range(50, 100):
        if samples_beyond(count, q) >= MIN_BEYOND:
            best = q
    return best


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median (``statistics.quantiles``)."""
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return math.inf
    return (quartiles[2] - quartiles[0]) / abs(middle)
