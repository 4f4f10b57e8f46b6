"""A fixed reference loop that gauges the speed of the host at a moment.

On a shared host the speed of a vCPU drifts by up to half over minutes,
and a pass of the package slows down with it.  The benchmark times this
loop (stdlib ``fractions`` and dict work, nothing of the package) just
before and just after each pass, in the process that times the pass, and
reports the pass in units of the mean of the two: the drift of the host
cancels, a change to the package does not.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: runs of the loop per gauge (about 7.5 ms each on a 2-vCPU VM)
REPEATS = 20


def _loop() -> dict:
    total = Fraction(0)
    table = {}
    for i in range(1, 1500):
        total += Fraction(1, i)
        table[(i % 97, i % 13)] = total
    return table


def ref_s(repeats: int = REPEATS) -> float:
    """Mean wall time of one run of the loop over ``repeats`` runs.

    A mean, not a median: a pass pays for the host's slow moments too.
    """
    t0 = time.perf_counter()
    for _ in range(repeats):
        _loop()
    return (time.perf_counter() - t0) / repeats
