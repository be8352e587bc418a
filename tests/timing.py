"""Wall-time ratios for the timing tests, measured so that host noise cancels.

A ratio of two timings taken at different moments also measures how the
host's CPU speed changed in between. Here both sides of every ratio are
timed back to back within one round, after a warm-up round, and the ratio
reported is the median over rounds, so no single stall decides it. Every
round's ratio is returned too, for the failure message of an assertion on
the median.
"""

import numpy as np

from astn.metrics import timed


def median_ratios(measure, rounds=7):
    """Each time in ``measure()`` over the next one: the medians over
    ``rounds``, and a string of every round's ratios for a failure message.

    ``measure()`` returns one round's times, taken back to back; a first,
    discarded round warms caches and allocations.
    """
    measure()
    samples = np.array([measure() for _ in range(rounds)])
    ratios = samples[:, :-1] / samples[:, 1:]
    return np.median(ratios, axis=0), f"per-round ratios {np.round(ratios, 3).tolist()}"


def interleaved_ratios(fns, rounds=7, calls=5):
    """Wall-time ratio of each candidate in ``fns`` to the next one, as
    :func:`median_ratios` returns it.

    Each round times the candidates in turn, ``calls`` back-to-back calls
    each, through :func:`astn.metrics.timed`.
    """
    def measure():
        return [timed(lambda: [fn() for _ in range(calls)])[1] for fn in fns]

    return median_ratios(measure, rounds)
