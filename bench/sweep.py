"""One-off sync-sim sweep over chain length N (not part of the benchmark runs).

    python3 bench/sweep.py [seed]

For each N it builds a fresh simulated network with the sync-sim shape,
mines N blocks from genesis, waits for the state machine to catch up, and
prints the wall time, the mean cost per block, the median cost of the last
tenth of the blocks, whether it caught up, how many adapters ended stuck,
and how many update rounds failed. Flat per-block cost would keep the
ms/block column constant as N doubles.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import DELTA, mine_and_sync, new_world, stuck_adapters  # noqa: E402

SIZES = (200, 400, 800, 1600)


def sweep_one(n: int, seed: int) -> tuple[float, float, float, bool, int, int]:
    world = new_world(seed)
    t_start = time.perf_counter()
    per_block, _, caught = mine_and_sync(world, n)
    wall = time.perf_counter() - t_start
    tail = statistics.median(per_block[-max(1, n // 10):])
    return wall, wall / n, tail, caught, stuck_adapters(world), world.rounds_failed


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    print(f"sync-sim sweep, seed {seed}, delta {DELTA}")
    print(
        f"{'N':>6} {'wall_s':>9} {'ms/block':>9} {'last10%_ms':>11} "
        f"{'caught_up':>9} {'stuck':>5} {'rounds_failed':>13}"
    )
    for n in SIZES:
        wall, mean, tail, caught, stuck, failed = sweep_one(n, seed)
        print(
            f"{n:>6} {wall:>9.2f} {mean * 1000:>9.2f} {tail * 1000:>11.2f} "
            f"{caught!s:>9} {stuck:>5} {failed:>13}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
