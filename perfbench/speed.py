"""Host speed, measured by a fixed reference task run between operations.

The benchmark runs on shared machines whose speed can change by a factor
of two within seconds. A fixed piece of pure-Python work, run right before
every operation, measures the speed at that moment; each operation's wall
time is scaled by the ratio of the reference task's nominal time to its
time around that operation. A scaled time is the time the operation would
have taken on a host where the reference task takes REFERENCE_S, so a
change to the program moves it while a change in host speed does not.

The task does what splicekit spends its time on (Fraction Gauss-Jordan
elimination, big-integer products, set-based search over tuples) and
imports nothing from splicekit, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Nominal seconds of one reference task: the unit scaled times refer to.
REFERENCE_S = 0.0025
# A sample's host speed is the median reference time of this many samples
# on either side of it; a speed state lasts longer than that.
WINDOW = 20
_SIZE = 7
_STATES = 600


def reference_task() -> int:
    """Fixed work; returns a checksum so that nothing is optimised away."""
    m = [[Fraction((3 * i + 5 * j) % 11 - 5 + (12 if i == j else 0)) for j in range(_SIZE)]
         for i in range(_SIZE)]
    inv = [[Fraction(int(i == j)) for j in range(_SIZE)] for i in range(_SIZE)]
    for c in range(_SIZE):
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        inv[c] = [x / pivot for x in inv[c]]
        for r in range(_SIZE):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
    start = (0,) * 6
    seen, frontier = {start}, [start]
    while frontier and len(seen) < _STATES:
        x = frontier.pop()
        for k in range(6):
            y = x[:k] + ((x[k] + k + 1) % 13,) + x[k + 1:]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sum(x.denominator for row in inv for x in row) + len(seen)


def time_reference() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def local_reference(refs: list[float], window: int = WINDOW) -> list[float]:
    """For each sample, the median of the reference times within `window`
    samples of it."""
    return [statistics.median(refs[max(0, i - window):i + window + 1]) for i in range(len(refs))]


def scaled(seconds: float, reference: float) -> float:
    """`seconds` measured while the reference task took `reference`, scaled
    to a host on which it takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference
