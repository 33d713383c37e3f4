"""Host speed calibration.

The CPU speed of a shared host drifts: on a 2-vCPU VM, operations took up to
1.9 times as long in some minutes as in others.  A fixed exact Gaussian
elimination over ``Fraction`` slows with them, to within about 5-10%, since
it does the same kind of work as homnorm: small big-integer arithmetic and
many short-lived objects.  Timing it next to each measurement and scaling by
it expresses times at the speed at which it takes ``REF_S``, so runs made
minutes apart stay comparable.
"""

from fractions import Fraction
from time import perf_counter

# Seconds the calibration takes at reference speed (that host's fast phase,
# Python 3.11).
REF_S = 0.0033
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1)
            for j in range(16)] for i in range(8)]


def calibrate() -> float:
    """Seconds the host takes now to row-reduce the fixed matrix."""
    t0 = perf_counter()
    rows = [row[:] for row in _MATRIX]
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return perf_counter() - t0


def slowdown(before: float, after: float) -> float:
    """Host slowdown against reference speed, from the calibrations taken
    just before and just after a measurement."""
    return (before + after) / (2 * REF_S)
