"""Physical machines: CPU pool, disk device, and node identity."""

from __future__ import annotations

from itertools import count
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from .fabric import FairShareDevice, Flow
from .resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.core import Environment


class DiskDevice:
    """A node's disk with sequential read/write rates and a seek penalty.

    Work is normalized to *device-seconds*: an op of ``mb`` megabytes at rate
    ``r`` MB/s costs ``mb / r`` device-seconds and concurrent ops
    processor-share the device. On top of fair sharing, a spinning disk's
    *aggregate* throughput collapses under concurrent streams (head seeks
    between them): with ``n`` active ops the device capacity is scaled by
    ``1 / (1 + seek_penalty * (n - 1))``. This is the mechanism that makes
    the stock scheduler's node-packing genuinely expensive — eight packed
    readers are far worse than 8x one reader.
    """

    def __init__(self, env: "Environment", read_mb_s: float, write_mb_s: float,
                 name: str = "disk", seek_penalty: float = 0.3) -> None:
        if read_mb_s <= 0 or write_mb_s <= 0:
            raise ValueError("disk rates must be positive")
        if seek_penalty < 0:
            raise ValueError("seek_penalty cannot be negative")
        self.read_mb_s = read_mb_s
        self.write_mb_s = write_mb_s
        self.seek_penalty = seek_penalty
        #: Gray-failure knob: >1 slows every op (sick disk, throttled volume).
        self.slowdown = 1.0
        self._device = FairShareDevice(env, capacity=1.0, name=name)

    def _capacity_for(self, n_ops: int) -> float:
        base = 1.0
        if n_ops > 1:
            base = 1.0 / (1.0 + self.seek_penalty * (n_ops - 1))
        return base / self.slowdown

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore, factor=1.0) the device; in-flight ops adjust."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.slowdown = float(factor)
        n = max(1, self._device.active_count)
        self._device.fabric.set_capacity(FairShareDevice.LINK, self._capacity_for(n))

    def fail_active(self) -> int:
        """Kill every in-flight op (the machine died under them).

        Waiters see :class:`~repro.cluster.fabric.FlowKilled` through each
        flow's ``done`` event. Returns the number of flows killed.
        """
        victims = list(self._device.fabric.active_flows)
        for flow in victims:
            self._device.kill(flow)
        return len(victims)

    def _submit(self, device_seconds: float, label: str) -> Flow:
        n_after = self._device.active_count + 1
        self._device.fabric.set_capacity(FairShareDevice.LINK,
                                         self._capacity_for(n_after))
        flow = self._device.execute(device_seconds, cap=1.0, label=label)
        flow.done.callbacks.append(lambda _ev: self._op_finished())
        return flow

    def _op_finished(self) -> None:
        n = max(1, self._device.active_count)
        self._device.fabric.set_capacity(FairShareDevice.LINK, self._capacity_for(n))

    def read(self, mb: float, label: str = "read") -> Flow:
        return self._submit(mb / self.read_mb_s, label)

    def write(self, mb: float, label: str = "write") -> Flow:
        return self._submit(mb / self.write_mb_s, label)

    def kill(self, flow: Flow) -> None:
        self._device.kill(flow)

    @property
    def active_ops(self) -> int:
        return self._device.active_count


class CpuPool:
    """A node's cores as a fair-shared pool.

    Capacity equals the number of cores; every task is capped at one core,
    so ``n`` runnable tasks on ``c`` cores each progress at ``min(1, c/n)``.
    """

    def __init__(self, env: "Environment", cores: int, name: str = "cpu") -> None:
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cores = cores
        self._device = FairShareDevice(env, capacity=float(cores), name=name)

    def compute(self, cpu_seconds: float, label: str = "compute") -> Flow:
        return self._device.execute(cpu_seconds, cap=1.0, label=label)

    def kill(self, flow: Flow) -> None:
        self._device.kill(flow)

    @property
    def running(self) -> int:
        return self._device.active_count

    def utilization(self) -> float:
        return self._device.utilization()


class Node:
    """A cluster machine: identity, capacity spec, and its local devices."""

    def __init__(self, env: "Environment", node_id: str, rack: str,
                 cores: int, memory_mb: int,
                 disk_read_mb_s: float = 100.0, disk_write_mb_s: float = 80.0,
                 disk_seek_penalty: float = 0.3) -> None:
        self.env = env
        self.node_id = node_id
        self.rack = rack
        self.capability = ResourceVector(memory_mb=memory_mb, vcores=cores)
        self.cpu = CpuPool(env, cores, name=f"{node_id}.cpu")
        self.disk = DiskDevice(env, disk_read_mb_s, disk_write_mb_s,
                               name=f"{node_id}.disk", seek_penalty=disk_seek_penalty)
        #: The tracker watching this node, and the node's place in it.
        self.busy_tracker: Optional["BusyNodes"] = None
        self.busy_seq = 0

    @property
    def busy(self) -> bool:
        """Whether the CPU or the disk has a live flow."""
        return bool(self.cpu._device.fabric.flow_count()
                    or self.disk._device.fabric.flow_count())

    def busy_changed(self) -> None:
        """The CPU or the disk turned busy or idle."""
        if self.busy_tracker is not None:
            self.busy_tracker.update(self)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} rack={self.rack} {self.capability}>"

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.node_id == self.node_id


class BusyNodes:
    """The watched nodes whose CPU or disk has a live flow.

    Kept as flows start and end, so utilization probes read the busy nodes
    instead of walking every node: an idle node's CPU utilization and disk
    queue are exactly zero. :meth:`nodes` lists them in watch order — the
    cluster's node order — so float sums over them add in the same order
    as a walk over every node.
    """

    def __init__(self) -> None:
        self._seq = count()
        self._watched = 0
        self._busy: dict[Node, None] = {}
        #: Cores of every watched node.
        self.cores = 0

    def __len__(self) -> int:
        return self._watched

    def watch(self, node: Node) -> None:
        node.cpu._device.fabric.busy_watcher = node
        node.disk._device.fabric.busy_watcher = node
        node.busy_tracker = self
        node.busy_seq = next(self._seq)
        self._watched += 1
        self.cores += node.cpu.cores
        self.update(node)

    def forget(self, node: Node) -> None:
        node.cpu._device.fabric.busy_watcher = None
        node.disk._device.fabric.busy_watcher = None
        node.busy_tracker = None
        self._watched -= 1
        self.cores -= node.cpu.cores
        self._busy.pop(node, None)

    def update(self, node: Node) -> None:
        if node.busy:
            self._busy[node] = None
        else:
            self._busy.pop(node, None)

    def nodes(self) -> list[Node]:
        """The busy nodes, in watch order."""
        return sorted(self._busy, key=attrgetter("busy_seq"))
