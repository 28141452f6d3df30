"""Op latency statistics: the tail rule and the speed correction.

The tail rule: report the latency at the highest percentile that still has
at least ``MIN_BEYOND`` samples above it, i.e. the ``MIN_BEYOND + 1``-th
largest sample, together with the percentile that sample sits at and the
sample count.  A fixed percentile such as p99 would rest on one or two
samples in a run of a few hundred ops.
"""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def tail(values, min_beyond: int = MIN_BEYOND):
    """``(value, percentile, n)`` for the tail rule, or ``None`` when fewer
    than ``min_beyond + 1`` samples exist.

    The value is the ``min_beyond + 1``-th largest sample, so the
    ``min_beyond`` samples ranked above it are the ones beyond it, and
    ``percentile`` is ``100 * (n - min_beyond) / n``.
    """
    n = len(values)
    if n < min_beyond + 1:
        return None
    ordered = sorted(values)
    value = ordered[n - min_beyond - 1]
    return value, 100.0 * (n - min_beyond) / n, n


def speed_corrected(latencies, calibrations, reference: float, window: int = 2):
    """Latencies rescaled to the machine speed at which one calibration run
    takes ``reference`` seconds.

    ``calibrations[i]`` is the time of the fixed calibration loop run right
    after op ``i``; op ``i`` is scaled by ``reference`` over the median of the
    calibrations within ``window`` ops of it.  On a machine whose speed
    drifts with its neighbours' load, the scaled latencies keep the op's cost
    and drop most of the drift.
    """
    n = len(latencies)
    out = []
    for i in range(n):
        local = statistics.median(calibrations[max(0, i - window): i + window + 1])
        out.append(latencies[i] * reference / local)
    return out
