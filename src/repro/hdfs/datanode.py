"""DataNode daemons: block inventory, block reports, re-replication.

Completes the HDFS fault story: when a DataNode dies, the NameNode notices
missed block reports, marks its replicas gone, and schedules re-replication
of under-replicated blocks onto surviving nodes (real network + disk
traffic — which is exactly the background load a production cluster carries
while your short job runs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..cluster.fabric import FlowKilled
from ..cluster.topology import Topology
from .block import Block
from .namenode import NameNode

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.network import ClusterNetwork
    from ..simulation.core import Environment


class DataNodeDaemon:
    """One DataNode's view: which blocks it stores, and its liveness."""

    def __init__(self, env: "Environment", node_id: str, namenode: NameNode,
                 report_interval_s: float = 3.0,
                 start_reporting: bool = False) -> None:
        self.env = env
        self.node_id = node_id
        self.namenode = namenode
        self.report_interval_s = report_interval_s
        self.failed = False
        self.last_report = -1.0
        self._proc = None
        if start_reporting:
            self.start_reporting()

    def start_reporting(self) -> None:
        """Begin the periodic block-report loop.

        Off by default: a perpetual loop keeps the event queue non-empty
        forever, which changes the semantics of ``env.run()`` without
        ``until`` for every caller. Components that need liveness tracking
        opt in.
        """
        if self._proc is not None and self._proc.is_alive:
            raise RuntimeError("already reporting")
        self._proc = self.env.process(self._report_loop(),
                                      name=f"dn-report-{self.node_id}")

    def blocks(self) -> list[Block]:
        return self.namenode.blocks_on_node(self.node_id)

    def used_mb(self) -> float:
        return sum(b.size_mb for b in self.blocks())

    def _report_loop(self) -> Generator:
        while not self.failed:
            self.last_report = self.env.now
            yield self.env.timeout(self.report_interval_s)

    def fail(self) -> None:
        if self.failed:
            return
        self.failed = True
        if self._proc is not None and self._proc.is_alive:
            self._proc.defuse()
            self._proc.interrupt("datanode down")

    def restart(self) -> None:
        """Recover from a failure: resume block reports if they were on.

        The node rejoins with an empty inventory — the NameNode wrote its
        replicas off when it died (real HDFS would delete the stale block
        files after the new block reports anyway).
        """
        if not self.failed:
            return
        self.failed = False
        if self._proc is not None:
            self.start_reporting()


class ReplicationManager:
    """NameNode-side: detect dead DataNodes, restore replication factors.

    ``handle_datanode_loss`` removes the dead node from every block's
    replica list and kicks off timed re-replication flows (read from a
    surviving replica, stream across the network, write on the target),
    choosing targets that keep the rack-spread invariant when possible.
    """

    def __init__(self, env: "Environment", namenode: NameNode,
                 network: "ClusterNetwork", topology: Topology) -> None:
        self.env = env
        self.namenode = namenode
        self.network = network
        self.topology = topology
        self.dead_nodes: set[str] = set()
        #: (block_id, new_target) pairs completed, for tests/metrics.
        self.replications_done: list[tuple[int, str]] = []
        self.lost_blocks: list[int] = []

    # -- entry point -----------------------------------------------------------
    def handle_datanode_loss(self, node_id: str):
        """Returns a process that completes when re-replication finishes."""
        self.dead_nodes.add(node_id)
        return self.env.process(self._rereplicate(node_id),
                                name=f"re-replication-{node_id}")

    def _rereplicate(self, node_id: str) -> Generator:
        under_replicated: list[Block] = []
        for path in self.namenode.list_files():
            for block in self.namenode.get_file(path).blocks:
                if node_id in block.replicas:
                    block.replicas.remove(node_id)
                    if not block.replicas:
                        self.lost_blocks.append(block.block_id)
                    elif block.size_mb > 0:
                        under_replicated.append(block)

        jobs = [self.env.process(self._copy_block(block),
                                 name=f"repl-blk{block.block_id}")
                for block in under_replicated]
        if jobs:
            yield self.env.all_of(jobs)
        return len(jobs)

    def _copy_block(self, block: Block) -> Generator:
        label = f"rerepl{block.block_id}"
        while True:
            target = self._pick_target(block)
            if target is None:
                return  # nowhere to put another replica
            source = self.topology.closest_replica(target, block.replicas)
            if source is None:
                return  # every remaining replica died; the block stays lost
            flows = [self.topology.node(source).disk.read(block.size_mb, label=label),
                     self.network.transfer(source, target, block.size_mb, label=label)]
            try:
                yield flows[0].done & flows[1].done
                if target in self.dead_nodes:
                    # Decommissioned mid-copy: removal leaves the node's
                    # flows running but takes it out of the topology.
                    continue
                flows = [self.topology.node(target).disk.write(block.size_mb,
                                                               label=label)]
                yield flows[0].done
            except FlowKilled:
                # The source or target machine died mid-copy (the loss
                # handler already pruned its replica / marked it dead):
                # drop the surviving sibling flow and start over.
                for flow in flows:
                    flow.fabric.kill(flow)
                continue
            if target in self.dead_nodes:
                continue  # decommissioned during the write
            block.replicas.append(target)
            self.replications_done.append((block.block_id, target))
            return

    def _pick_target(self, block: Block) -> Optional[str]:
        """A live node without this block, preferring an uncovered rack."""
        candidates = [
            n for n in self.topology.node_ids
            if n not in self.dead_nodes and n not in block.replicas
        ]
        if not candidates:
            return None
        covered_racks = {self.topology.rack_of(r) for r in block.replicas
                         if r in self.topology}
        for node in candidates:
            if self.topology.rack_of(node) not in covered_racks:
                return node
        return candidates[0]
