"""Wall-time ratios for the timing tests, measured so that host noise cancels.

A ratio of two timings taken at different moments also measures how the
host's CPU speed changed in between. Here both sides of every ratio are
timed back to back within one round, after a warm-up round, and the ratio
reported is the median over rounds, so no single stall decides it.
"""

import numpy as np

from astn.metrics import timed


def median_ratios(measure, rounds=7):
    """Median over ``rounds`` of each time in ``measure()`` over the next one.

    ``measure()`` returns one round's times, taken back to back; a first,
    discarded round warms caches and allocations.
    """
    measure()
    samples = np.array([measure() for _ in range(rounds)])
    return np.median(samples[:, :-1] / samples[:, 1:], axis=0)


def interleaved_ratios(fns, rounds=7, calls=5):
    """Wall-time ratio of each candidate in ``fns`` to the next one.

    Each round times the candidates in turn, ``calls`` back-to-back calls
    each, through :func:`astn.metrics.timed`.
    """
    def measure():
        return [timed(lambda: [fn() for _ in range(calls)])[1] for fn in fns]

    return median_ratios(measure, rounds)
