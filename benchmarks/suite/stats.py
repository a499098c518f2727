"""Order statistics with the benchmark's sample-count rule built in."""

from __future__ import annotations

import math
import statistics

#: A percentile is only reported when at least this many samples lie
#: beyond it; otherwise it is decided by a handful of outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def percentile(
    samples: list[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """The *q*-quantile (0 < q < 1) of *samples*, nearest-rank.

    Raises :class:`TooFewSamples` unless at least *min_beyond* samples
    lie beyond the reported one (only ``--smoke`` lowers it).
    """
    n = len(samples)
    beyond = int(round(n * (1.0 - q), 9))  # 100 * (1 - 0.9) is 9.99999...
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it; "
            f"need {min_beyond}"
        )
    return sorted(samples)[n - beyond - 1]


def samples_needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """The smallest sample count :func:`percentile` accepts for *q*."""
    return math.ceil(round(min_beyond / (1.0 - q), 6))


def median(samples: list[float]) -> float:
    if not samples:
        raise TooFewSamples("median of no samples")
    return statistics.median(samples)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of per-repetition values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
