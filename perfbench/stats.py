"""Summary statistics with the benchmark's reporting rules.

A timing is reported as a median plus the highest percentile that still has
at least ten samples beyond it; a percentile without that support is refused
rather than estimated from a thin tail.
"""

from __future__ import annotations

import math
import statistics

MIN_TAIL_SAMPLES = 10


class NotEnoughSamples(ValueError):
    """A percentile was asked of fewer samples than its rule requires."""


def median(values) -> float:
    values = list(values)
    if not values:
        raise NotEnoughSamples("median of zero samples")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1), refused unless at least
    MIN_TAIL_SAMPLES samples lie beyond its rank (p90 needs 100 samples)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_TAIL_SAMPLES:
        raise NotEnoughSamples(
            f"p{q * 100:g} of {len(ordered)} samples leaves {beyond} beyond it, "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return float(ordered[rank - 1])


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; each operation counts once."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed ({failed}) must lie in [0, attempted={attempted}]")
    return failed / attempted
