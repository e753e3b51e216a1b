"""Order statistics the benchmark reports, and the peak-RSS counter.

Percentiles are nearest-rank: the p-th percentile of n sorted samples is
the sample at 1-based rank ``ceil(p/100 * n)``. Every reported value is
one that was actually measured, and the number of samples beyond it is
exact, which is what the tail rule needs.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Tail percentiles, highest first; the tail is the highest of these
#: that leaves at least ``TAIL_MIN_BEYOND`` samples strictly beyond it.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


def nearest_rank(n: int, percentile: float) -> int:
    """The 1-based rank of the *percentile*-th of *n* samples."""
    if n <= 0:
        raise ValueError("no samples")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    # Round before ceil so 95% of 200 is rank 190, not 191 from float error.
    return max(1, math.ceil(round(percentile / 100.0 * n, 9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *samples*."""
    ordered = sorted(samples)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def median(samples: Sequence[float]) -> float:
    """Nearest-rank 50th percentile (a measured sample, never a mean)."""
    return percentile(samples, 50.0)


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with enough samples beyond.

    ``None`` when even the lowest leaves fewer than
    :data:`TAIL_MIN_BEYOND` samples beyond it.
    """
    for pct in TAIL_PERCENTILES:
        if n - nearest_rank(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the tail of *samples* (see
    :func:`tail_percentile`)."""
    pct = tail_percentile(len(samples))
    if pct is None:
        raise ValueError(
            f"{len(samples)} samples are too few for a tail with "
            f"{TAIL_MIN_BEYOND} beyond it"
        )
    return pct, percentile(samples, pct)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of process *pid*, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
