"""Demand-driven, phase-staggered NodeManager heartbeat wheel.

Every NodeManager beats on its own grid ``anchor + k*period``: the anchor
is the node's first-ever beat time (its phase), fixed at registration and
kept across crash/rejoin and drain/undrain, so a mass rejoin after churn
keeps the fleet's stagger instead of synchronizing into a thundering herd.
Beat *k* lands on that grid point exactly (one rounding, independent of
k) via ``schedule_at``, and at DEFERRED priority, so a beat at time t
reports the node's settled state at t.

**Only useful beats are dispatched.** A NODE_STATUS_UPDATE can only do
something while the RM has demand: a queued AM or a queued container ask.
The RM hands the wheel that predicate and calls :meth:`HeartbeatWheel.wake`
whenever demand may have appeared. Without demand the wheel arms no kernel
tick and calls nothing; on wake each active node fires at its next grid
point ``anchor + k*period >= now`` — the instant its beat would have
fired anyway — so every useful beat lands at the same instant, and in the
same registration order, as if every beat had run. A tick stops
dispatching as soon as demand is gone: nothing inside a beat creates
demand, so the rest of that instant's beats would be no-ops.

Idle beats are derived, not executed. :attr:`heartbeats_delivered` counts
every beat the nodes logically sent; :attr:`heartbeats_dispatched` counts
the real ``deliver`` calls; :meth:`last_heartbeat` answers with the last
grid point before ``t`` for an active node and the value frozen at
suspension for a suspended one; :meth:`silent_nodes` finds the active
nodes silent for longer than a window of at least one period by checking
only those that have not beaten since they last joined.

**Cohorts.** Nodes with an identical anchor and beat index share one wheel
entry, so idle bookkeeping and wake catch-up cost O(cohorts), not
O(nodes). ``quantum > 0`` (``HadoopConfig.nm_heartbeat_quantum_s``) snaps
anchors onto a coarse phase grid, which puts 10k nodes into a handful of
cohorts; the default 0.0 keeps every node's exact phase. A node that
(re)joins at an instant its anchor's cohort has already beaten at still
beats at that instant, in a cohort of its own.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from itertools import accumulate, count
from typing import TYPE_CHECKING, Callable, Optional

from ..simulation.events import DEFERRED, Event

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.core import Environment


class _Cohort:
    """Active nodes sharing one anchor and one next-beat index."""

    __slots__ = ("anchor", "k", "members", "queued", "id")

    def __init__(self, anchor: float, k: int, ident: int) -> None:
        self.anchor = anchor
        #: Index of the next beat not yet delivered. While the wheel sleeps
        #: it lags; the true value at time t is ``max(k, first grid >= t)``.
        self.k = k
        #: ``(seq, node_id)`` in registration order.
        self.members: list[tuple[int, str]] = []
        #: On the wheel's heap (only while the wheel is awake).
        self.queued = False
        self.id = ident


class _Entry:
    """Wheel bookkeeping for one registered node."""

    __slots__ = ("anchor", "seq", "cohort", "k0", "last")

    def __init__(self, anchor: float, seq: int) -> None:
        #: Absolute time of the node's first-ever beat; the node's phase.
        self.anchor = anchor
        #: Registration order; breaks ties between same-instant beats.
        self.seq = seq
        #: The cohort the node beats with; ``None`` while suspended.
        self.cohort: Optional[_Cohort] = None
        #: Index of the node's first beat since it last (re)joined.
        self.k0 = 0
        #: Time of its last beat before that (0.0: never beaten).
        self.last = 0.0


class HeartbeatWheel:
    """Aggregated heartbeat timer for all NodeManagers of one RM.

    ``deliver(node_id)`` runs a beat; ``demand()`` says whether one could
    do anything.
    """

    def __init__(self, env: "Environment", period: float,
                 deliver: Callable[[str], None], quantum: float = 0.0, *,
                 demand: Callable[[], bool]) -> None:
        if period <= 0:
            raise ValueError(f"heartbeat period must be positive, got {period}")
        if quantum < 0:
            raise ValueError(f"heartbeat quantum cannot be negative, got {quantum}")
        self._env = env
        self._period = period
        self._quantum = quantum
        self._deliver = deliver
        self._demand = demand
        self._entries: dict[str, _Entry] = {}
        #: anchor -> its cohorts (more than one only after a late rejoin).
        self._groups: dict[float, list[_Cohort]] = {}
        #: Sorted anchors and prefix sums of their active node counts, for
        #: counting beats; rebuilt lazily after a membership change.
        self._index: Optional[tuple[list[float], list[int]]] = None
        self._seq = count()
        self._ids = count()
        #: ``(fire, cohort id, cohort)`` for every non-empty cohort while
        #: awake; empty while asleep.
        self._heap: list[tuple[float, int, _Cohort]] = []
        self._awake = False
        #: Beat instants with a tick event already on the kernel queue.
        self._armed: set[float] = set()
        #: Active nodes that may not have beaten since they last joined.
        self._joiners: dict[str, None] = {}
        #: Beats sent as of t = ``_base`` + every active node's grid points
        #: before t + the beats of the tick that ran at ``_tick_t`` if t is
        #: that instant.
        self._base = 0
        self._tick_t = -math.inf
        self._tick_beats = 0
        self.ticks = 0
        self.heartbeats_dispatched = 0

    # -- membership ---------------------------------------------------------
    def register(self, node_id: str, offset: float = 0.0) -> None:
        """Start heartbeating ``node_id``; first beat at ``now + offset%period``."""
        if node_id in self._entries:
            raise ValueError(f"node {node_id!r} already on the heartbeat wheel")
        anchor = self._env.now + (offset % self._period)
        if self._quantum > 0:
            # Snap to the quantum grid, always forward (never before now).
            anchor = math.ceil(anchor / self._quantum) * self._quantum
        entry = _Entry(anchor, next(self._seq))
        self._entries[node_id] = entry
        self._join(node_id, entry)

    def unregister(self, node_id: str) -> None:
        """Forget ``node_id`` entirely (decommission)."""
        self.suspend(node_id)
        self._entries.pop(node_id, None)

    def suspend(self, node_id: str) -> None:
        """Stop beating (node died or was drained). Idempotent."""
        entry = self._entries.get(node_id)
        if entry is None or entry.cohort is None:
            return
        cohort = entry.cohort
        now = self._env.now
        k = self._due_k(cohort, now)
        # Freeze the node's beats: from here on they are all in _base.
        self._base += k
        if k > self._first_k(cohort.anchor, now):
            self._tick_beats -= 1  # its beat at `now` is in _base now
        entry.last = self._last_beat(entry, k)
        entry.cohort = None
        self._joiners.pop(node_id, None)
        members = cohort.members
        del members[bisect_left(members, (entry.seq, node_id))]
        if not members:
            self._drop(cohort)
        self._index = None

    def resume(self, node_id: str) -> None:
        """Resume beats on the node's *original* phase grid.

        The next beat is the earliest ``anchor + k*period >= now`` — not
        ``now + offset`` — so a mass rejoin after churn keeps the fleet's
        stagger instead of synchronizing into a thundering herd.
        """
        entry = self._entries.get(node_id)
        if entry is None:
            raise KeyError(f"node {node_id!r} is not on the heartbeat wheel")
        if entry.cohort is None:
            self._join(node_id, entry)

    def _join(self, node_id: str, entry: _Entry) -> None:
        k = self._first_k(entry.anchor, self._env.now)
        group = self._groups.setdefault(entry.anchor, [])
        cohort = None
        for c in group:
            if c.k < k:
                c.k = k  # catch up: the anchor's next grid point >= now
            if cohort is None and c.k == k:
                cohort = c
        if cohort is None:
            # No cohort of this anchor is due at k: either the anchor is
            # new, or its cohort already beat at ``now`` — the node still
            # beats at ``now``, on a cohort of its own.
            cohort = _Cohort(entry.anchor, k, next(self._ids))
            group.append(cohort)
        entry.cohort = cohort
        entry.k0 = k
        self._joiners[node_id] = None
        self._base -= k
        insort(cohort.members, (entry.seq, node_id))
        self._index = None
        if self._awake:
            self._push(cohort)
        elif self._demand():
            self.wake()

    def _drop(self, cohort: _Cohort) -> None:
        group = self._groups[cohort.anchor]
        group.remove(cohort)
        if not group:
            del self._groups[cohort.anchor]

    # -- demand ------------------------------------------------------------
    def wake(self) -> None:
        """Demand may have appeared: re-arm every active node.

        Each cohort fires at its next grid point ``>= now``. A no-op while
        awake, without demand, or with no active node.
        """
        if self._awake or not self._demand():
            return
        heap = []
        for group in self._groups.values():
            for cohort in group:
                self._catch_up(cohort)
                cohort.queued = True
                heap.append((self._grid(cohort), cohort.id, cohort))
        if not heap:
            return
        heapq.heapify(heap)
        self._heap = heap
        self._awake = True
        self._arm_time(heap[0][0])

    def _sleep(self) -> None:
        for _, _, cohort in self._heap:
            cohort.queued = False
        self._heap = []
        self._awake = False

    # -- introspection -------------------------------------------------------
    def is_active(self, node_id: str) -> bool:
        entry = self._entries.get(node_id)
        return entry is not None and entry.cohort is not None

    def anchor_of(self, node_id: str) -> float:
        return self._entries[node_id].anchor

    def next_fire(self, node_id: str) -> Optional[float]:
        """Next beat time for an active node, ``None`` while suspended."""
        cohort = self._entries[node_id].cohort
        if cohort is None:
            return None
        return cohort.anchor + self._due_k(cohort, self._env.now) * self._period

    def last_heartbeat(self, node_id: str, t: Optional[float] = None) -> float:
        """Time of the node's last beat as of ``t`` (default now); 0.0 if none.

        ``t`` must not precede the wheel's last beat or membership change;
        a telemetry scrape's grid time qualifies, since the kernel samples
        before it runs the first event past the grid point.
        """
        entry = self._entries[node_id]
        cohort = entry.cohort
        if cohort is None:
            return entry.last
        return self._last_beat(
            entry, self._due_k(cohort, self._env.now if t is None else t))

    def silent_nodes(self, t: float, longer_than: float) -> set[str]:
        """Active nodes whose last beat as of ``t`` is more than
        ``longer_than`` seconds old (same caveat on ``t``).

        A node that has beaten since it last joined did so at most one
        period before ``t``, so with ``longer_than`` at least one period
        only the nodes that have not beaten since joining can be silent:
        the cost is O(those nodes), not O(active nodes).
        """
        if longer_than < self._period:
            raise ValueError(
                f"a silence window of {longer_than}s is shorter than the "
                f"{self._period}s heartbeat period")
        period = self._period
        silent = set()
        for node_id in list(self._joiners):
            entry = self._entries[node_id]
            # _due_k(cohort, t) > k0: its first beat since joining lies
            # before t, or a tick at t already sent it.
            if (entry.anchor + entry.k0 * period < t
                    or entry.cohort.k > entry.k0):
                del self._joiners[node_id]  # it has beaten since
            elif t - entry.last > longer_than:
                silent.add(node_id)
        return silent

    def heartbeats_at(self, t: float) -> int:
        """Beats sent as of ``t`` (same caveat on ``t``)."""
        if self._index is None:
            groups = self._groups
            anchors = sorted(groups)
            prefix = [0]
            # An anchor almost always has a single cohort.
            prefix.extend(accumulate(
                len(group[0].members) if len(group) == 1
                else sum(len(c.members) for c in group)
                for group in map(groups.__getitem__, anchors)))
            self._index = (anchors, prefix)
        anchors, prefix = self._index
        # Every active node has sent its grid points before t. The number
        # of them, first_k(anchor, t), falls as the anchor grows, so the
        # sorted anchors split into a few runs sharing one count.
        period = self._period
        total = self._base
        i, n = 0, len(anchors)
        while i < n:
            k = self._first_k(anchors[i], t)
            if k == 0:
                break
            last = (k - 1) * period
            j = bisect_left(anchors, True, i + 1, n,
                            key=lambda a: a + last >= t)
            total += k * (prefix[j] - prefix[i])
            i = j
        if self._tick_t >= t:  # a tick already ran at this instant
            total += self._tick_beats
        return total

    @property
    def heartbeats_delivered(self) -> int:
        """Every beat the nodes logically sent, dispatched or not."""
        return self.heartbeats_at(self._env.now)

    # -- grid arithmetic -----------------------------------------------------
    def _first_k(self, anchor: float, t: float) -> int:
        """Minimal k >= 0 with ``anchor + k*period >= t``."""
        if t <= anchor:
            return 0
        period = self._period
        k = math.ceil((t - anchor) / period)
        # ceil() on floats can land one grid point off; settle on the
        # minimal k with anchor + k*period >= t.
        while anchor + k * period < t:
            k += 1
        while k > 0 and anchor + (k - 1) * period >= t:
            k -= 1
        return k

    def _due_k(self, cohort: _Cohort, t: float) -> int:
        return max(cohort.k, self._first_k(cohort.anchor, t))

    def _grid(self, cohort: _Cohort) -> float:
        return cohort.anchor + cohort.k * self._period

    def _last_beat(self, entry: _Entry, k: int) -> float:
        if k > entry.k0:
            return entry.anchor + (k - 1) * self._period
        return entry.last

    def _catch_up(self, cohort: _Cohort) -> None:
        cohort.k = self._due_k(cohort, self._env.now)

    # -- timer machinery -----------------------------------------------------
    def _push(self, cohort: _Cohort) -> None:
        """Queue a cohort while awake; arm a tick if it is the earliest."""
        if cohort.queued:
            return
        cohort.queued = True
        fire = self._grid(cohort)
        heapq.heappush(self._heap, (fire, cohort.id, cohort))
        if self._heap[0][0] == fire:
            self._arm_time(fire)

    def _arm_time(self, when: float) -> None:
        """Put a tick on the kernel queue for beat instant ``when`` (once)."""
        if when in self._armed:
            return
        self._armed.add(when)
        tick = Event(self._env)
        tick._value = None  # pre-triggered, like a Timeout
        tick.callbacks.append(self._make_fire(when))
        # DEFERRED: a beat at time t reports the node's *settled* state at
        # t. Submissions, releases and completions stamped t must be
        # visible to it no matter which order their events were queued in.
        self._env.schedule_at(tick, when, priority=DEFERRED)

    def _make_fire(self, when: float) -> Callable[[Event], None]:
        def fire(_event: Event) -> None:
            self._fire(when)

        return fire

    def _fire(self, when: float) -> None:
        self._armed.discard(when)
        self.ticks += 1
        if not self._awake:
            return  # armed before demand went away
        now = self._env.now
        heap = self._heap
        due: list[_Cohort] = []
        while heap and heap[0][0] <= now:
            _, _, cohort = heapq.heappop(heap)
            cohort.queued = False
            if cohort.members:
                due.append(cohort)
        if self._tick_t < now:
            self._tick_t, self._tick_beats = now, 0
        # Advance before delivering: a node that joins during a delivery
        # at this instant sees its cohort already past ``now``.
        for cohort in due:
            self._tick_beats += len(cohort.members)
            cohort.k += 1
            cohort.queued = True
            heapq.heappush(heap, (self._grid(cohort), cohort.id, cohort))
        # Snapshots (a delivery may suspend a node), merged lazily: the
        # loop usually stops after a beat or two.
        order = heapq.merge(*(list(c.members) for c in due))
        demand = self._demand
        entries = self._entries
        for _, node_id in order:
            if not demand():
                break  # nothing inside a beat creates demand
            entry = entries.get(node_id)
            if entry is None or entry.cohort not in due:
                continue  # suspended during this tick
            self.heartbeats_dispatched += 1
            self._deliver(node_id)
        while heap and not heap[0][2].members:
            heapq.heappop(heap)[2].queued = False
        if heap and demand():
            self._arm_time(heap[0][0])
        else:
            self._sleep()
