"""The machine's speed during a run, from a fixed reference loop.

The machine these figures come from runs the same pure-Python work at two
speeds about 1.5 times apart, switching within seconds and drifting over
minutes; the program's calls follow the same swings. A timing taken as is
then reads the share of the run spent in slow spells as much as the
program's cost.

`Speed.tick()`, called between timed pieces of work, runs a short fixed
reference loop (at most every REF_EVERY seconds) and records how long it
took. `Speed.scale(t)` is REF_QUIET_S divided by the median reference time
within REF_WINDOW seconds of the moment `t`. A piece's time multiplied by
it is the piece's time at the machine's quiet speed, the speed at which
the reference loop takes REF_QUIET_S. The reference loop does not call the
program, so a change to the program moves the scaled times by as much as
it moves the raw ones.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

clock = time.perf_counter

REF_EVERY = 0.05  # seconds between reference loops, at most
REF_WINDOW = 0.5  # seconds either side of a piece whose reference loops count
# The reference loop's time at the machine's quiet speed: its tenth
# percentile over several minutes on the machine described in README.md.
REF_QUIET_S = 0.00100

_TABLE = {(i * 2654435761) & 0xFFFFF: i for i in range(4096)}
_KEYS = list(_TABLE)


def reference_work() -> int:
    """A fixed mix of the interpreter work the program does: dict lookups,
    small tuples and their hashes, integer arithmetic and SHA-256."""
    acc = 0
    table = _TABLE
    for i, key in enumerate(_KEYS):
        acc += table[key]
        acc ^= hash((i, key)) & 0xFFFF
    digest = b"\0" * 32
    for _ in range(100):
        digest = hashlib.sha256(hashlib.sha256(digest + b"\1" * 48).digest()).digest()
    return acc ^ digest[0]


class Speed:
    def __init__(self) -> None:
        self.at = array("d")  # midpoint of each reference loop
        self.took = array("d")  # its duration
        self._last = float("-inf")

    def tick(self) -> None:
        if clock() - self._last < REF_EVERY:
            return
        t0 = clock()
        reference_work()
        t1 = clock()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self._last = t1

    def scale(self, t: float) -> float:
        lo = bisect_left(self.at, t - REF_WINDOW)
        hi = bisect_right(self.at, t + REF_WINDOW)
        if lo == hi:  # none that close: the nearest one
            near = min(max(lo, 1), len(self.at)) - 1
            if lo < len(self.at) and abs(self.at[lo] - t) < abs(self.at[near] - t):
                near = lo
            lo, hi = near, near + 1
        return REF_QUIET_S / statistics.median(self.took[lo:hi])

    def quiet_share(self) -> float:
        """Share of the reference loops that ran within 10% of quiet speed."""
        return sum(1 for x in self.took if x <= 1.1 * REF_QUIET_S) / max(1, len(self.took))
