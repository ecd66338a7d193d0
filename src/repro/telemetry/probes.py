"""Cluster-state probes shared by the scraper and ClusterMonitor.

Exactly one place computes per-node CPU/disk utilization and the paper's
imbalance indices. :class:`repro.metrics.ClusterMonitor` (the historical
figure-facing sampler) and the telemetry scraper both call
:func:`sample_utilization`, so the two mechanisms cannot drift — the
monitor keeps its process-loop driver (figure snapshots depend on its
timeout events) while telemetry reads the same numbers from the kernel's
pop hook without scheduling anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..simcluster import SimCluster


@dataclass
class UtilizationSample:
    """One instant of cluster utilization (the ClusterMonitor quantities)."""

    #: (node_id, cpu utilization 0..1) per DataNode, in cluster order
    #: (empty unless sampled ``per_node``).
    node_cpu: list[tuple[str, float]]
    #: (node_id, active disk ops) per DataNode, in cluster order (ditto).
    node_disk_ops: list[tuple[str, float]]
    cluster_cpu: float
    cpu_imbalance: float
    disk_imbalance: float
    scheduled_memory_fraction: float
    used_vcores: float


def sample_utilization(cluster: "SimCluster",
                       per_node: bool = True) -> UtilizationSample:
    """Read the monitor quantities from a cluster, mutating nothing.

    The cluster-wide quantities come from the busy nodes alone (an idle
    node's utilization and disk queue are exactly zero), so they cost
    O(busy nodes). ``per_node=False`` leaves the per-node lists empty,
    which makes the whole sample O(busy nodes).
    """
    rm = cluster.rm
    tracker = cluster.busy_nodes
    busy_nodes = tracker.nodes()
    utils = [node.cpu.utilization() for node in busy_nodes]
    disks = [float(node.disk.active_ops) for node in busy_nodes]
    busy = 0.0
    for node, util in zip(busy_nodes, utils):
        busy += util * node.cpu.cores
    if len(busy_nodes) < len(tracker):
        # Some node is idle: it contributes a zero to every max and min.
        utils.append(0.0)
        disks.append(0.0)

    node_cpu: list[tuple[str, float]] = []
    node_disk_ops: list[tuple[str, float]] = []
    if per_node:
        for node in cluster.datanodes:
            node_cpu.append((node.node_id, node.cpu.utilization()))
            node_disk_ops.append((node.node_id, float(node.disk.active_ops)))

    total_cores = tracker.cores
    total = rm.total_capability()
    used = rm.total_used()
    return UtilizationSample(
        node_cpu=node_cpu,
        node_disk_ops=node_disk_ops,
        cluster_cpu=busy / total_cores if total_cores else 0.0,
        cpu_imbalance=max(utils) - min(utils) if utils else 0.0,
        disk_imbalance=float(max(disks) - min(disks)) if disks else 0.0,
        scheduled_memory_fraction=(used.memory_mb / total.memory_mb
                                   if total.memory_mb else 0.0),
        used_vcores=float(used.vcores),
    )
