"""Tests for DataNode daemons and re-replication after node loss."""

import pytest

from repro.cluster import ClusterNetwork, Node, Topology
from repro.hdfs import DataNodeDaemon, NameNode, ReplicationManager
from repro.simulation import Environment


def build(env, n=6, racks=2, replication=3, seed=7):
    nodes = [Node(env, f"dn{i}", rack=f"rack{i % racks}", cores=4, memory_mb=7168)
             for i in range(n)]
    topo = Topology(nodes)
    nn = NameNode(topo, block_size_mb=64.0, replication=replication, seed=seed)
    net = ClusterNetwork(env, nodes, bandwidth_mb_s=100.0)
    return topo, nn, net


# -- DataNodeDaemon ------------------------------------------------------------

def test_daemon_reports_periodically():
    env = Environment()
    _topo, nn, _net = build(env)
    daemon = DataNodeDaemon(env, "dn0", nn, report_interval_s=2.0,
                            start_reporting=True)
    env.run(until=7.0)
    assert daemon.last_report >= 6.0
    with pytest.raises(RuntimeError):
        daemon.start_reporting()


def test_daemon_stops_reporting_after_failure():
    env = Environment()
    _topo, nn, _net = build(env)
    daemon = DataNodeDaemon(env, "dn0", nn, report_interval_s=1.0,
                            start_reporting=True)
    env.run(until=2.5)
    daemon.fail()
    stamp = daemon.last_report
    env.run(until=10.0)
    assert daemon.last_report == stamp
    daemon.fail()  # idempotent


def test_daemon_block_inventory():
    env = Environment()
    _topo, nn, _net = build(env)
    nn.create_file("/x", 30.0, writer_node="dn1")
    daemon = DataNodeDaemon(env, "dn1", nn)
    assert daemon.used_mb() == pytest.approx(30.0)
    assert len(daemon.blocks()) == 1


# -- ReplicationManager ----------------------------------------------------------

def test_rereplication_restores_factor():
    env = Environment()
    topo, nn, net = build(env)
    file = nn.create_file("/data", 40.0, writer_node="dn0")
    manager = ReplicationManager(env, nn, net, topo)
    victim = file.blocks[0].replicas[0]

    proc = manager.handle_datanode_loss(victim)
    env.run(until=proc)
    block = file.blocks[0]
    assert victim not in block.replicas
    assert len(block.replicas) == 3            # back to 3 replicas
    assert manager.replications_done           # real copy happened
    assert env.now > 0                          # and took simulated time


def test_rereplication_prefers_uncovered_rack():
    env = Environment()
    topo, nn, net = build(env, n=6, racks=3)
    file = nn.create_file("/data", 10.0, writer_node="dn0")
    block = file.blocks[0]
    manager = ReplicationManager(env, nn, net, topo)
    victim = block.replicas[1]
    proc = manager.handle_datanode_loss(victim)
    env.run(until=proc)
    racks = {topo.rack_of(r) for r in block.replicas}
    assert len(racks) >= 2  # spread maintained


def test_rereplication_skips_unaffected_blocks():
    env = Environment()
    topo, nn, net = build(env)
    f1 = nn.create_file("/a", 10.0, writer_node="dn0")
    manager = ReplicationManager(env, nn, net, topo)
    # Pick a node hosting nothing of /a.
    unaffected = next(n for n in topo.node_ids
                      if n not in f1.blocks[0].replicas)
    proc = manager.handle_datanode_loss(unaffected)
    env.run(until=proc)
    assert proc.value == 0
    assert len(f1.blocks[0].replicas) == 3


def test_block_lost_when_all_replicas_die():
    env = Environment()
    topo, nn, net = build(env, n=3, racks=1, replication=1)
    file = nn.create_file("/single", 5.0, writer_node="dn0")
    manager = ReplicationManager(env, nn, net, topo)
    proc = manager.handle_datanode_loss("dn0")
    env.run(until=proc)
    assert file.blocks[0].block_id in manager.lost_blocks
    assert file.blocks[0].replicas == []


def test_rereplication_avoids_dead_nodes():
    env = Environment()
    topo, nn, net = build(env, n=4, racks=2)
    file = nn.create_file("/d", 10.0, writer_node="dn0")
    manager = ReplicationManager(env, nn, net, topo)
    block = file.blocks[0]
    # Kill two of the three replica holders in sequence.
    first, second = block.replicas[0], block.replicas[1]
    p1 = manager.handle_datanode_loss(first)
    env.run(until=p1)
    p2 = manager.handle_datanode_loss(second)
    env.run(until=p2)
    assert first not in block.replicas and second not in block.replicas
    assert all(r not in manager.dead_nodes for r in block.replicas)
    assert len(block.replicas) >= 2


def test_multi_block_file_rereplication():
    env = Environment()
    topo, nn, net = build(env)
    file = nn.create_file("/big", 200.0, writer_node="dn2")  # 4 blocks
    manager = ReplicationManager(env, nn, net, topo)
    proc = manager.handle_datanode_loss("dn2")
    env.run(until=proc)
    for block in file.blocks:
        if block.size_mb > 0:
            assert "dn2" not in block.replicas
            assert len(block.replicas) == 3


def test_under_replicated_reporting():
    env = Environment()
    topo, nn, net = build(env)
    nn.create_file("/data", 40.0, writer_node="dn1")
    assert nn.under_replicated() == []
    manager = ReplicationManager(env, nn, net, topo)
    proc = manager.handle_datanode_loss("dn1")
    # Replica lists are pruned as soon as the loss handler runs, well
    # before the replacement copies finish...
    env.run(until=0.01)
    assert nn.under_replicated(), "expected under-replicated blocks after loss"
    env.run(until=proc)
    # ...and the queue drains once re-replication completes.
    assert nn.under_replicated() == []


def crash(manager, topo, net, node_id):
    """Whole-machine death as ``SimCluster.fail_node`` orders it: prune the
    replica maps first, then kill the machine's in-flight flows."""
    proc = manager.handle_datanode_loss(node_id)
    topo.node(node_id).disk.fail_active()
    net.fail_node_flows(node_id)
    return proc


def test_rereplication_survives_source_crash_mid_copy():
    env = Environment()
    topo, nn, net = build(env, replication=2)
    file = nn.create_file("/d", 40.0, writer_node="dn0")
    block = file.blocks[0]
    manager = ReplicationManager(env, nn, net, topo)
    first, source = block.replicas
    proc = manager.handle_datanode_loss(first)
    target = manager._pick_target(block)
    env.run(until=0.05)  # the 40 MB copy source -> target is in flight
    second = crash(manager, topo, net, source)
    env.run(until=env.all_of([proc, second]))
    assert (block.block_id, target) not in manager.replications_done
    assert target not in block.replicas
    assert block.replicas == []  # the last replica died with the copy


def test_rereplication_retargets_after_target_crash_mid_copy():
    env = Environment()
    topo, nn, net = build(env)
    file = nn.create_file("/d", 40.0, writer_node="dn0")
    block = file.blocks[0]
    manager = ReplicationManager(env, nn, net, topo)
    proc = manager.handle_datanode_loss(block.replicas[0])
    target = manager._pick_target(block)
    env.run(until=0.05)
    second = crash(manager, topo, net, target)
    env.run(until=env.all_of([proc, second]))
    assert target not in block.replicas
    assert all(t != target for _, t in manager.replications_done)
    assert len(block.replicas) == 3  # restored on another live node


def test_rereplication_retargets_after_target_decommission_mid_copy():
    """Decommissioning leaves the node's flows running but takes it out of
    the topology; the copy used to look the gone target up and crash."""
    env = Environment()
    topo, nn, net = build(env)
    file = nn.create_file("/d", 40.0, writer_node="dn0")
    block = file.blocks[0]
    manager = ReplicationManager(env, nn, net, topo)
    proc = manager.handle_datanode_loss(block.replicas[0])
    target = manager._pick_target(block)
    env.run(until=0.05)
    topo.remove(target)  # what SimCluster.remove_node does to HDFS
    second = manager.handle_datanode_loss(target)
    env.run(until=env.all_of([proc, second]))
    assert target not in block.replicas
    assert all(t != target for _, t in manager.replications_done)
    assert len(block.replicas) == 3  # restored on another live node


# -- DataNode death in the middle of a running job ---------------------------------

def test_datanode_death_mid_job_reads_from_survivors():
    """A whole machine (NM + DataNode) dies while a job is reading its
    input: the NameNode reports under-replicated blocks, surviving replicas
    serve the readers, re-replication restores the factor, and the job's
    output is complete and correct."""
    from repro.config import a3_cluster
    from repro.core import build_mrapid_cluster
    from repro.faults import FaultPlan, inject
    from repro.mapreduce import SimJobSpec
    from repro.workloads import WORDCOUNT_PROFILE

    cluster = build_mrapid_cluster(a3_cluster(4))
    paths = cluster.load_input_files("/in", 8, 10.0)
    spec = SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)
    handle = cluster.mrapid_framework.submit(spec, "mrapid-dplus")
    # Maps start reading ~4.8s in; kill an input-holding non-AM machine then.
    inject(cluster, FaultPlan().crash(5.0, "dn3"))

    seen_under_replicated = {"value": False}

    def watcher(env):
        while cluster.env.now < 20.0:
            if cluster.namenode.under_replicated():
                seen_under_replicated["value"] = True
                return
            yield env.timeout(0.25)

    cluster.env.process(watcher(cluster.env))
    cluster.env.run(until=handle.proc)
    result = handle.proc.value

    assert not result.failed and not result.killed
    assert all(m.finish_time > 0 for m in result.maps)
    assert seen_under_replicated["value"], \
        "NameNode never reported under-replicated blocks after the death"
    # Nothing reads from (or re-replicates onto) the dead node...
    assert cluster.namenode.blocks_on_node("dn3") == []
    # ...the job's output exists with every replica on a survivor...
    out = [p for p in cluster.namenode.list_files() if "/out" in p]
    assert out, "job output missing from HDFS"
    for path in out:
        for block in cluster.namenode.get_file(path).blocks:
            assert block.replicas
            assert "dn3" not in block.replicas
    # ...and once re-replication settles nothing is left under-replicated.
    cluster.env.run(until=cluster.env.now + 30.0)
    assert cluster.namenode.under_replicated() == []
