"""A fixed reference workload that measures how fast the host is right now.

The machines this benchmark runs on are shared, and their speed drifts by
up to 1.6x over minutes as neighbours come and go (measured on a shared
2-vCPU Xeon VM: the same figure sweep took 0.27 s in one stretch and
0.45 s in another, with CPU time tracking wall time). A run samples
this loop between its units of work, and the end-to-end times are scaled
by ``NOMINAL_S / mean(samples)``: host seconds as they would read on a host
where the loop takes ``NOMINAL_S``. Program changes cannot move the loop,
so the scaling removes host drift, never a program change. It removes the
drift only in part: the loop and the workloads do not slow down by exactly
the same factor.

The loop is a small discrete-event kernel (a heap of timestamped slotted
objects and a dict of counters), the same kind of interpreter work the
simulator does. Do not change it, or ``NOMINAL_S``: both are part of the
unit every recorded time is expressed in.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Seconds the reference loop takes on the nominal host.
NOMINAL_S = 0.025
#: Events the reference loop dispatches per sample.
EVENTS = 20_000


class _Event:
    __slots__ = ("time", "key", "action")

    def __init__(self, time: float, key: int, action) -> None:
        self.time = time
        self.key = key
        self.action = action


def reference_loop(events: int = EVENTS) -> int:
    """Dispatch ``events`` timer events; returns a checksum of the work."""
    counters: dict[int, int] = {}

    def action(key: int) -> None:
        counters[key % 257] = counters.get(key % 257, 0) + 1

    queue = [(i * 0.5, i, _Event(i * 0.5, i, action)) for i in range(64)]
    heapq.heapify(queue)
    seq = 64
    for _ in range(events):
        when, key, event = heapq.heappop(queue)
        event.action(key)
        seq += 1
        later = when + 1.0 + (key % 7) * 0.1
        heapq.heappush(queue, (later, seq, _Event(later, seq, action)))
    return sum(counters.values())


def sample() -> float:
    """Seconds one run of the reference loop takes now."""
    start = perf_counter()
    reference_loop()
    return perf_counter() - start
