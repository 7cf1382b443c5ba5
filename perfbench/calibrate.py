"""Host speed from a fixed reference loop timed between passes.

The shared host's speed wanders by 10-15% over minutes, and at times
shifts by 40% within a few minutes; a pass's CPU time moves with it.
A fixed pure-Python event loop in the simulator's idiom (a heap of
slotted events, dict counters, a seeded RNG), timed just before every
set-up and pass, tracks that drift: over 30-s windows of
``dag-bootstop`` and ``serve-saturated`` passes on a 2-core host, the
loop's median moved with the pass median (correlation 0.77 to 0.87).
The loop slows more than a pass does: over ten runs of each of the four
workloads, a run's median pass time went as the median loop time to a
power between 0.5 (``fig8-sweep``, ``serve-distinct``) and 1
(``dag-bootstop``).  :data:`SENSITIVITY` is the middle of that range.
The loop imports nothing from ``repro``, so no change to the program
moves it.
"""

from __future__ import annotations

import heapq
import random
import statistics
from typing import Dict, List

REFERENCE_S = 0.125   # the loop's CPU time at the reference host speed
SENSITIVITY = 0.75    # d log(pass time) / d log(loop time)
EVENTS = 60_000
DIGEST = 179_967      # sum of the loop's event kinds; checked every run


class _Event:
    __slots__ = ("time", "kind", "seq")

    def __init__(self, time: float, kind: int, seq: int) -> None:
        self.time, self.kind, self.seq = time, kind, seq

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def reference_loop(events: int = EVENTS) -> int:
    """Run the fixed event loop; returns a digest of the work done."""
    rng = random.Random(1)
    queue = [_Event(rng.random(), i % 7, i) for i in range(64)]
    heapq.heapify(queue)
    busy: Dict[int, float] = {}
    digest = 0
    for seq in range(64, 64 + events):
        ev = heapq.heappop(queue)
        busy[ev.kind] = busy.get(ev.kind, 0.0) + ev.time
        digest += ev.kind
        heapq.heappush(queue, _Event(ev.time + rng.expovariate(1.0),
                                     (ev.kind * 3 + 1) % 7, seq))
    return digest


def speed(loop_times: List[float]) -> float:
    """Factor turning CPU times measured alongside ``loop_times`` into
    seconds at the reference host speed."""
    return (REFERENCE_S / statistics.median(loop_times)) ** SENSITIVITY
