"""Failure injection: node death, task retry, attempt exhaustion.

Exercises the AM's Hadoop-style recovery machinery: killed map attempts are
retried in fresh containers on surviving nodes, a killed reduce attempt is
relaunched with the completed map outputs re-advertised, and jobs that run
out of attempts fail cleanly (visible through the client, no leaked
resources, no simulator crash).
"""

import pytest

from repro.cluster import ResourceVector
from repro.config import HadoopConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster
from repro.faults import FaultPlan, inject
from repro.mapreduce import MODE_DISTRIBUTED, JobClient, SimJobSpec
from repro.mapreduce.appmaster import JobFailed, OutputBus
from repro.mapreduce.spec import MapOutput
from repro.workloads import WORDCOUNT_PROFILE
from repro.yarn import JobKilled


def wc_spec(cluster, n=4, mb=10.0, prefix="/wc"):
    paths = cluster.load_input_files(prefix, n, mb)
    return SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)


def nm_of(cluster, node_id):
    return cluster.rm.node_managers[node_id]


def fail_node_at(cluster, node_id, at_time):
    """YARN-only node death at a fixed time, expressed as a fault plan."""
    inject(cluster, FaultPlan().crash(at_time, node=node_id, hdfs=False))


def busiest_map_node(result):
    from collections import Counter

    return Counter(m.node_id for m in result.maps).most_common(1)[0][0]


# -- node death mechanics --------------------------------------------------------

def test_failed_node_stops_heartbeating_and_allocating():
    cluster = build_stock_cluster(a3_cluster(4))
    nm_of(cluster, "dn0").fail()
    cluster.env.run(until=3.0)
    assert not cluster.rm.nodes["dn0"].alive
    assert not cluster.rm.nodes["dn0"].can_fit(ResourceVector(1, 1))


def test_node_fail_is_idempotent():
    cluster = build_stock_cluster(a3_cluster(4))
    nm = nm_of(cluster, "dn1")
    nm.fail()
    nm.fail()  # no error
    assert nm.failed


def test_node_failure_kills_running_containers():
    cluster = build_stock_cluster(a3_cluster(4))
    spec = wc_spec(cluster)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)
    # Let tasks start, then kill every DataNode -> job cannot finish.
    cluster.env.run(until=9.0)
    victims = [nm for nm in cluster.node_managers if nm.running]
    assert victims, "expected running containers by t=9"
    for nm in cluster.node_managers:
        nm.fail()
    with pytest.raises(Exception):
        cluster.env.run(until=handle)


# -- task retry -----------------------------------------------------------------

def test_map_attempts_retried_on_surviving_nodes():
    cluster = build_mrapid_cluster(a3_cluster(4))
    spec = wc_spec(cluster, n=8, mb=10.0)
    fw = cluster.mrapid_framework
    handle = fw.submit(spec, "mrapid-dplus")

    # Kill one node mid-map-phase (maps start ~4.8s, run ~7s).
    fail_node_at(cluster, "dn2", 7.0)
    cluster.env.run(until=handle.proc)
    result = handle.proc.value

    assert not result.killed and not result.failed
    assert all(m.finish_time > 0 for m in result.maps)
    assert "dn2" not in {m.node_id for m in result.maps if m.start_time > 7.0}
    retried = [m for m in result.maps if ".a" in m.task_id]
    assert retried, "expected at least one retried attempt"


def test_retry_job_slower_than_clean_run():
    clean = build_mrapid_cluster(a3_cluster(4))
    clean_result = clean.mrapid_framework.run(wc_spec(clean, 8), "mrapid-dplus")

    faulty = build_mrapid_cluster(a3_cluster(4))
    spec = wc_spec(faulty, 8)
    handle = faulty.mrapid_framework.submit(spec, "mrapid-dplus")
    fail_node_at(faulty, "dn1", 7.0)
    faulty.env.run(until=handle.proc)
    assert handle.proc.value.elapsed > clean_result.elapsed


def test_reduce_retry_reuses_completed_map_outputs():
    cluster = build_mrapid_cluster(a3_cluster(4))
    spec = wc_spec(cluster, 4)
    handle = cluster.mrapid_framework.submit(spec, "mrapid-dplus")

    # Find the reduce's node once it starts, then kill that node.
    def reduce_killer(env):
        while True:
            yield env.timeout(0.5)
            result = handle.result
            if result and result.reduces and result.reduces[0].start_time > 0:
                victim = result.reduces[0].node_id
                # Don't kill the AM's own pooled node, only the reduce's.
                nm_of(cluster, victim).fail()
                return

    cluster.env.process(reduce_killer(cluster.env))
    cluster.env.run(until=handle.proc)
    result = handle.proc.value
    # Either the reduce was retried (visible as attempt suffix) or the kill
    # raced the reduce finishing; the job must complete either way.
    assert result.finish_time > 0
    assert not result.failed


def am_node_of(cluster):
    mark = cluster.log.first("am_allocated")
    return mark.data["node"] if mark else None


def test_job_fails_after_attempt_exhaustion():
    conf = HadoopConfig(max_task_attempts=2)
    cluster = build_stock_cluster(a3_cluster(4), conf=conf)
    spec = wc_spec(cluster)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)

    def serial_killer(env):
        # Keep killing task-hosting nodes (sparing the AM's own node, whose
        # loss is an AM-restart scenario out of scope here) until the map
        # attempts run out.
        for t in (8.0, 3.0, 3.0, 3.0):
            yield env.timeout(t)
            am_node = am_node_of(cluster)
            for nm in cluster.node_managers:
                if nm.running and not nm.failed and nm.node_id != am_node:
                    nm.fail()
                    break

    cluster.env.process(serial_killer(cluster.env))
    with pytest.raises(JobFailed):
        cluster.env.run(until=handle)


def test_stock_job_survives_single_node_failure():
    cluster = build_stock_cluster(a3_cluster(4))
    spec = wc_spec(cluster, 8)
    handle = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)

    def killer(env):
        yield env.timeout(6.5)
        am_node = am_node_of(cluster)
        victim = next(nm for nm in cluster.node_managers
                      if nm.node_id != am_node and nm.running)
        victim.fail()

    cluster.env.process(killer(cluster.env))
    cluster.env.run(until=handle)
    result = handle.value
    assert all(m.finish_time > 0 for m in result.maps)


def test_resources_fully_released_after_faulty_run():
    cluster = build_mrapid_cluster(a3_cluster(4))
    spec = wc_spec(cluster, 8)
    handle = cluster.mrapid_framework.submit(spec, "mrapid-dplus")
    fail_node_at(cluster, "dn2", 7.0)
    cluster.env.run(until=handle.proc)
    cluster.env.run(until=cluster.env.now + 2.0)
    pool_reserved = sum(
        (s.container.resource for s in cluster.mrapid_framework.slaves),
        ResourceVector(0, 0),
    )
    assert cluster.rm.total_used() == pool_reserved


# -- OutputBus ----------------------------------------------------------------------

def test_output_bus_routes_to_current_store():
    from repro.simulation import Environment

    env = Environment()
    bus = OutputBus(env)
    bus.put(MapOutput("m0", "dn0", 1.0))
    old_store = bus.store
    assert len(old_store.items) == 1

    new_store = bus.rebuild([MapOutput("m0", "dn0", 1.0)])
    bus.put(MapOutput("m1", "dn1", 2.0))
    assert bus.store is new_store
    assert len(new_store.items) == 2       # preload + late arrival
    assert len(old_store.items) == 1        # old store untouched


def test_killed_application_raises_jobkilled_for_client():
    cluster = build_stock_cluster(a3_cluster(4))
    spec = wc_spec(cluster)

    client_proc = JobClient(cluster).submit(spec, MODE_DISTRIBUTED)

    def killer(env):
        yield env.timeout(6.0)
        app = next(a for a in cluster.rm.apps.values() if a.name == "wordcount")
        cluster.rm.kill_application(app)

    cluster.env.process(killer(cluster.env))
    with pytest.raises(JobKilled):
        cluster.env.run(until=client_proc)


# -- whole-machine failure (YARN + HDFS together) -----------------------------------

def test_fail_node_triggers_rereplication():
    cluster = build_mrapid_cluster(a3_cluster(4))
    cluster.load_input_files("/data", 4, 10.0)
    blocks_before = len(cluster.namenode.blocks_on_node("dn1"))
    assert blocks_before > 0
    proc = cluster.fail_node("dn1")
    cluster.env.run(until=proc)
    assert cluster.namenode.blocks_on_node("dn1") == []
    assert cluster.replication_manager.replications_done
    # Every surviving block is back at full replication.
    for path in cluster.namenode.list_files():
        for block in cluster.namenode.get_file(path).blocks:
            assert len(block.replicas) == 3
            assert "dn1" not in block.replicas


def test_job_survives_whole_machine_failure_with_rereplication():
    cluster = build_mrapid_cluster(a3_cluster(4))
    spec = wc_spec(cluster, 8)
    handle = cluster.mrapid_framework.submit(spec, "mrapid-dplus")

    def chaos(env):
        yield env.timeout(7.0)
        am_nodes = {s.node_id for s in cluster.mrapid_framework.slaves}
        victim = next(n for n in ("dn3", "dn2", "dn1", "dn0")
                      if n not in am_nodes)
        cluster.fail_node(victim)

    cluster.env.process(chaos(cluster.env))
    cluster.env.run(until=handle.proc)
    result = handle.proc.value
    assert not result.failed and not result.killed
    assert all(m.finish_time > 0 for m in result.maps)
