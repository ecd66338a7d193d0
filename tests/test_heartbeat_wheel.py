"""HeartbeatWheel: phase preservation, exact grid timing, wheel semantics.

The two regression tests at the top pin the scale-exposed bugfixes:

* rejoin keeps the node's *original* phase (the legacy per-node loop
  restarted from scratch, so a mass rejoin after churn synchronized
  previously staggered nodes into a thundering herd);
* beat k fires at exactly ``anchor + k*period`` (the legacy loop summed
  ``timeout(period)`` per beat, accruing one float rounding per tick).
"""

import contextlib
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceVector
from repro.config import HadoopConfig, MRapidConfig, a3_cluster
from repro.core import build_mrapid_cluster, build_stock_cluster
from repro.core.submit import submit_job
from repro.mapreduce import SimJobSpec
from repro.simcluster import SimCluster
from repro.simulation.core import Environment
from repro.simulation.events import DEFERRED, Event
from repro.workloads import WORDCOUNT_PROFILE
from repro.yarn import Application, ResourceManager
from repro.yarn.heartbeat import HeartbeatWheel


def make_wheel(period=1.0, quantum=0.0):
    env = Environment()
    beats = []
    wheel = HeartbeatWheel(env, period,
                           lambda node_id: beats.append((env.now, node_id)),
                           quantum=quantum, demand=lambda: True)
    return env, wheel, beats


# -- regression: rejoin keeps the original phase (crash/restart) ---------------

def test_rejoin_resumes_on_original_phase_grid():
    """A node that crashes and rejoins at an off-grid time must fire its
    next beat at the next point of its *original* ``anchor + k*period``
    grid — not at ``restart_time + offset``."""
    conf = HadoopConfig(nm_heartbeat_s=1.0)
    cluster = SimCluster(a3_cluster(4), conf=conf)
    wheel = cluster.rm.heartbeat_wheel
    nm = cluster.rm.node_managers["dn1"]  # phase offset 0.317
    anchor = wheel.anchor_of("dn1")
    assert anchor == pytest.approx(0.317)

    cluster.env.run(until=5.5)
    nm.fail()
    assert wheel.next_fire("dn1") is None  # suspended while down
    cluster.env.run(until=7.6)  # rejoin at an off-grid instant
    nm.restart()
    # Pre-fix behaviour restarted the loop: first beat at 7.6 + 0.317.
    # Phase-preserving resume lands back on the original grid instead.
    assert wheel.next_fire("dn1") == anchor + 8 * 1.0
    before = wheel.last_heartbeat("dn1")
    cluster.env.run(until=8.5)
    assert wheel.last_heartbeat("dn1") == anchor + 8 * 1.0
    assert wheel.last_heartbeat("dn1") != before


def test_beat_observes_settled_state_of_its_instant():
    """Regression: wheel ticks used to run at NORMAL priority, so a beat
    tied with (say) a same-instant submission observed the *pre-event*
    state or the *post-event* state depending on which landed on the
    kernel queue first — a same-timestamp race. DEFERRED ticks always see
    the instant's settled state, no matter the insertion order."""
    from repro.simulation.events import Event

    env = Environment()
    state = {"n": 0}
    seen = []
    wheel = HeartbeatWheel(env, 2.0,
                           lambda node_id: seen.append(state["n"]),
                           demand=lambda: True)
    # Register first: the tick for t=1.0 is armed *before* the mutation
    # event below is scheduled — the insertion order that lost pre-fix.
    wheel.register("dn0", offset=1.0)  # first beat at t=1.0
    bump = Event(env)
    bump._value = None
    bump.callbacks.append(lambda _ev: state.__setitem__("n", 1))
    env.schedule_at(bump, 1.0)  # NORMAL priority, same instant as the beat
    env.run(until=1.5)
    assert seen == [1], "the beat must see the settled state at t=1.0"


def test_mass_rejoin_does_not_synchronize_the_fleet():
    """All nodes crash and all restart at the same instant; their next
    beats must stay staggered on each node's own phase."""
    conf = HadoopConfig(nm_heartbeat_s=1.0)
    cluster = SimCluster(a3_cluster(4), conf=conf)
    wheel = cluster.rm.heartbeat_wheel
    cluster.env.run(until=10.5)
    for nm in cluster.node_managers:
        nm.fail()
    cluster.env.run(until=20.25)
    for nm in cluster.node_managers:
        nm.restart()
    fires = {nm.node_id: wheel.next_fire(nm.node_id)
             for nm in cluster.node_managers}
    assert len(set(fires.values())) == len(fires), (
        f"rejoined beats collapsed onto shared instants: {fires}")
    for node_id, fire in fires.items():
        frac = fire % 1.0
        assert frac == pytest.approx(wheel.anchor_of(node_id) % 1.0)


# -- regression: multiplicative beat times (no float-error accrual) -------------

def test_beats_land_exactly_on_multiplicative_grid():
    """With an inexact binary period (0.1 s), beat k must be *exactly*
    ``anchor + k*period`` — a single rounding. The legacy additive loop
    (``t += period`` per beat) drifts off that grid within ~100 beats."""
    env, wheel, beats = make_wheel(period=0.1)
    wheel.register("n0", offset=0.03)
    env.run(until=100.0)
    anchor = wheel.anchor_of("n0")
    assert len(beats) >= 990
    for k, (when, _) in enumerate(beats):
        assert when == anchor + k * 0.1, f"beat {k} off-grid: {when!r}"

    # The additive accrual this replaces does NOT stay on the grid —
    # the regression would be invisible if the two schemes agreed.
    additive = anchor
    diverged = False
    for k in range(1, len(beats)):
        additive += 0.1
        if additive != anchor + k * 0.1:
            diverged = True
            break
    assert diverged, "period chosen for this test must be float-inexact"


# -- wheel semantics ------------------------------------------------------------

def test_register_matches_legacy_first_beat_and_cadence():
    env, wheel, beats = make_wheel(period=2.0)
    wheel.register("a", offset=0.5)
    wheel.register("b", offset=3.7)  # offset % period ~= 1.7
    env.run(until=9.0)
    anchor_b = wheel.anchor_of("b")
    assert anchor_b == 3.7 % 2.0
    assert [b for b in beats if b[1] == "a"] == [
        (0.5, "a"), (2.5, "a"), (4.5, "a"), (6.5, "a"), (8.5, "a")]
    assert [b for b in beats if b[1] == "b"] == [
        (anchor_b + k * 2.0, "b") for k in range(4)]


def test_duplicate_register_rejected():
    _, wheel, _ = make_wheel()
    wheel.register("a")
    with pytest.raises(ValueError):
        wheel.register("a")


def test_suspend_is_idempotent_and_resume_noops_when_active():
    env, wheel, beats = make_wheel(period=1.0)
    wheel.register("a", offset=0.25)
    env.run(until=2.0)
    wheel.suspend("a")
    wheel.suspend("a")
    env.run(until=5.0)
    assert all(when < 2.0 for when, _ in beats)
    wheel.resume("a")
    wheel.resume("a")  # already beating: no duplicate entries
    env.run(until=7.0)
    delivered = [when for when, _ in beats if when >= 5.0]
    assert delivered == [5.25, 6.25]


def test_resume_exactly_on_grid_point_fires_immediately():
    env, wheel, beats = make_wheel(period=1.0)
    wheel.register("a", offset=0.0)
    env.run(until=1.5)
    wheel.suspend("a")
    env.run(until=3.0)  # now == grid point 3.0
    wheel.resume("a")
    assert wheel.next_fire("a") == 3.0
    env.run(until=3.1)
    assert (3.0, "a") in beats


def test_unregister_stops_beats_for_good():
    env, wheel, beats = make_wheel(period=1.0)
    wheel.register("a", offset=0.5)
    env.run(until=1.0)
    wheel.unregister("a")
    env.run(until=4.0)
    assert beats == [(0.5, "a")]
    with pytest.raises(KeyError):
        wheel.resume("a")


def test_quantum_aggregates_cohorts_into_shared_ticks():
    env, wheel, beats = make_wheel(period=1.0, quantum=0.5)
    for i in range(40):
        wheel.register(f"n{i}", offset=i * 0.317)
    env.run(until=10.0)
    # Anchors snap to the 0.5 s grid, so 40 nodes share at most 3 distinct
    # phases (0.0/0.5/1.0) — far fewer ticks than heartbeats.
    anchors = {wheel.anchor_of(f"n{i}") for i in range(40)}
    assert all(math.isclose(a / 0.5, round(a / 0.5)) for a in anchors)
    assert len(anchors) <= 3
    assert wheel.heartbeats_delivered > 300
    assert wheel.ticks < wheel.heartbeats_delivered / 10


def test_suspend_during_delivery_cancels_the_successor_beat():
    env = Environment()
    beats = []
    wheel = None

    def deliver(node_id):
        beats.append((env.now, node_id))
        if len(beats) == 2:
            wheel.suspend(node_id)

    wheel = HeartbeatWheel(env, 1.0, deliver, demand=lambda: True)
    wheel.register("a", offset=0.5)
    env.run(until=6.0)
    assert beats == [(0.5, "a"), (1.5, "a")]


def test_invalid_period_and_quantum_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        HeartbeatWheel(env, 0.0, lambda n: None, demand=lambda: True)
    with pytest.raises(ValueError):
        HeartbeatWheel(env, 1.0, lambda n: None, quantum=-0.1,
                       demand=lambda: True)


# -- demand-driven dispatch ----------------------------------------------------

_HORIZON = 400.0

_jobs = st.lists(
    st.tuples(st.sampled_from([0.0, 0.4, 3.0, 7.3, 20.0]),  # submit time
              st.integers(1, 4),                           # input files
              st.booleans()),                              # uber-sized
    min_size=1, max_size=4)
_churn = st.lists(
    st.tuples(st.sampled_from(["crash", "drain", "add", "remove"]),
              st.integers(0, 3),                           # node index
              st.sampled_from([1.0, 4.5, 9.0, 15.25]),     # at
              st.sampled_from([0.0, 2.0, 6.7])),           # outage length
    max_size=3)


def _run_scenario(scheduler, jobs, churn, always):
    """Run one scenario; ``always`` swaps in a demand predicate that is
    always true, so every beat is dispatched like the pre-demand wheel."""
    patch = (mock.patch.object(ResourceManager, "_has_demand",
                               lambda self: True)
             if always else contextlib.nullcontext())
    with patch:
        if scheduler == "stock":
            cluster = build_stock_cluster(a3_cluster(4))
            modes = ("distributed", "stock")
        else:
            cluster = build_mrapid_cluster(
                a3_cluster(4),
                mrapid=MRapidConfig(respond_same_heartbeat=False))
            modes = ("dplus", "stock")
    env = cluster.env
    outcomes = []

    def submitter(i, at, n_files, small):
        paths = cluster.load_input_files(f"/in{i}", n_files,
                                         2.0 if small else 24.0)
        spec = SimJobSpec("wordcount", tuple(paths), WORDCOUNT_PROFILE)
        yield env.timeout(at)
        proc = submit_job(cluster, spec, modes[small])
        try:
            value = yield proc
        except Exception as exc:  # a job may die with its nodes
            outcomes.append((i, type(exc).__name__, env.now))
        else:
            outcomes.append((i, value))

    out = set()  # nodes inside a crash or drain window

    def churner(kind, index, at, outage):
        yield env.timeout(at)
        if kind == "add":
            cluster.add_node()
            return
        nms = [nm for nm in cluster.node_managers if nm.node_id not in out]
        nm = nms[index % len(nms)]
        if kind == "remove":
            if not nm.running:
                cluster.remove_node(nm.node_id)
            return
        out.add(nm.node_id)
        if kind == "crash":
            cluster.fail_node(nm.node_id)
            yield env.timeout(outage)
            cluster.restart_node(nm.node_id)
        else:
            nm.drain()
            yield env.timeout(outage)
            nm.undrain()
        out.discard(nm.node_id)

    for i, (at, n_files, small) in enumerate(jobs):
        env.process(submitter(i, at, n_files, small))
    for event in churn:
        env.process(churner(*event))
    env.run(until=_HORIZON)
    wheel = cluster.rm.heartbeat_wheel
    return {
        "outcomes": sorted(outcomes, key=lambda o: o[0]),
        "log": [(m.time, m.label, m.data) for m in cluster.rm.log.marks],
        "last_beat": {n: wheel.last_heartbeat(n) for n in cluster.rm.nodes},
        "beats": wheel.heartbeats_delivered,
        "dispatched": wheel.heartbeats_dispatched,
    }


@given(st.sampled_from(["stock", "dplus-ablation"]), _jobs, _churn)
@settings(max_examples=60, deadline=None)
def test_demand_gating_changes_no_placement(scheduler, jobs, churn):
    """Differential: the RM's demand predicate against one that is always
    true. Job results, every AM and container placement (the RM log),
    each node's last beat and the logical beat count all agree; only the
    number of dispatched beats drops."""
    gated = _run_scenario(scheduler, jobs, churn, always=False)
    every = _run_scenario(scheduler, jobs, churn, always=True)
    assert gated["outcomes"] == every["outcomes"]
    assert gated["log"] == every["log"]
    assert gated["last_beat"] == every["last_beat"]
    assert gated["beats"] == every["beats"] == every["dispatched"]
    assert gated["dispatched"] < every["dispatched"]


def test_same_instant_submissions_place_like_every_beat_dispatched():
    jobs = [(3.0, 1, True), (3.0, 2, False), (3.0, 1, False), (3.0, 4, True)]
    gated = _run_scenario("stock", jobs, [], always=False)
    every = _run_scenario("stock", jobs, [], always=True)
    assert gated == {**every, "dispatched": gated["dispatched"]}
    assert gated["dispatched"] * 20 < every["dispatched"]


def _am_only(duration):
    def runner(ctx):
        yield ctx.env.timeout(duration)
        return "done"

    return runner


def test_idle_cluster_schedules_nothing_after_its_last_job():
    cluster = SimCluster(a3_cluster(4))
    app = Application("app_idle", "t", ResourceVector(1024, 1), _am_only(2.0))
    cluster.rm.submit_application(app)
    cluster.env.run(until=app.finished)
    cluster.env.run(until=cluster.env.now + 0.5)  # the AM container's release
    assert cluster.env.peek() == math.inf


def test_no_ticks_armed_while_every_node_is_down():
    """An AM waits but no node can beat: nothing may stay armed, or the
    kernel would spin on empty ticks forever."""
    cluster = SimCluster(a3_cluster(4))
    for nm in cluster.node_managers:
        nm.fail()
    app = Application("app_down", "t", ResourceVector(1024, 1), _am_only(1.0))
    cluster.rm.submit_application(app)
    assert cluster.env.peek() == math.inf
    cluster.restart_node("dn2")  # a node back: its beat places the AM
    cluster.env.run(until=app.am_started)
    assert app.am_container.node_id == "dn2"


def test_resume_at_an_instant_whose_tick_already_ran_still_beats_then():
    env, wheel, beats = make_wheel(period=1.0)
    wheel.register("a", offset=0.0)
    wheel.register("b", offset=0.0)  # same anchor: one cohort
    env.run(until=2.5)
    wheel.suspend("b")

    def resume_after_tick(_event):
        wheel.resume("b")

    late = Event(env)
    late._value = None
    late.callbacks.append(resume_after_tick)
    # DEFERRED too, queued after the t=3.0 tick: it runs once "a" has beaten.
    env.schedule_at(late, 3.0, priority=DEFERRED)
    env.run(until=4.5)
    assert [when for when, node in beats if node == "b"] == [0.0, 1.0, 2.0,
                                                           3.0, 4.0]
    assert wheel.heartbeats_delivered == wheel.heartbeats_dispatched == 10


def test_logical_beats_advance_while_idle():
    cluster = SimCluster(a3_cluster(4))
    wheel = cluster.rm.heartbeat_wheel
    cluster.env.run(until=10.0)
    assert wheel.heartbeats_dispatched == 0 and wheel.ticks == 0
    beats = wheel.heartbeats_delivered
    # Every node has beaten once per second since its anchor.
    assert beats == sum(math.ceil(10.0 - wheel.anchor_of(n))
                        for n in cluster.rm.nodes)
    cluster.env.run(until=20.0)
    assert wheel.heartbeats_delivered == beats + 4 * 10
    for node_id in cluster.rm.nodes:
        anchor = wheel.anchor_of(node_id)
        assert wheel.last_heartbeat(node_id) == anchor + 19 * 1.0


_ops = st.lists(
    st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.3, 4.0]),     # wait before
              st.sampled_from(["register", "suspend", "resume",
                               "unregister", "demand", "idle"]),
              st.integers(0, 5)),                              # node index
    min_size=1, max_size=30)


@given(_ops, st.sampled_from([0.0, 0.5]))
@settings(max_examples=150, deadline=None)
def test_gated_wheel_derives_every_idle_beat(ops, quantum):
    """A wheel whose demand comes and goes, against one that always has
    demand: the same beats are sent (counted, last-beat times, next fires),
    and every beat sent while there is demand is dispatched."""
    demand = [False]
    gated_env, every_env = Environment(), Environment()
    gated_beats, every_beats = [], []
    gated = HeartbeatWheel(
        gated_env, 1.0, lambda n: gated_beats.append((gated_env.now, n)),
        quantum=quantum, demand=lambda: demand[0])
    every = HeartbeatWheel(
        every_env, 1.0, lambda n: every_beats.append((every_env.now, n)),
        quantum=quantum, demand=lambda: True)
    demand_since = []  # (time, demand) after each change
    now = 0.0
    for wait, op, index in ops:
        now += wait
        gated_env.run(until=now)
        every_env.run(until=now)
        node = f"n{index}"
        for wheel in (gated, every):
            known = node in wheel._entries
            if op == "register" and not known:
                wheel.register(node, offset=index * 0.37)
            elif op in ("suspend", "unregister") and known:
                getattr(wheel, op)(node)
            elif op == "resume" and known:
                wheel.resume(node)
        if op in ("demand", "idle"):
            demand[0] = op == "demand"
            demand_since.append((now, demand[0]))
            gated.wake()
        assert gated.heartbeats_delivered == every.heartbeats_delivered
        assert every.heartbeats_delivered == len(every_beats)
        for node_id in every._entries:
            assert gated.last_heartbeat(node_id) == every.last_heartbeat(node_id)
            assert gated.next_fire(node_id) == every.next_fire(node_id)

    def had_demand(when):
        state = False
        for since, value in demand_since:
            if since <= when:
                state = value
        return state

    assert gated_beats == [b for b in every_beats if had_demand(b[0])]
    assert gated.heartbeats_dispatched == len(gated_beats)


@given(_ops, st.sampled_from([0.0, 0.5]), st.sampled_from([1.0, 1.5, 3.0]))
@settings(max_examples=100, deadline=None)
def test_silent_nodes_match_a_walk_over_every_node(ops, quantum, window):
    """``silent_nodes`` checks only the nodes that have not beaten since
    they joined; the answer equals a per-node walk over ``last_heartbeat``."""
    demand = [False]
    env = Environment()
    wheel = HeartbeatWheel(env, 1.0, lambda n: None, quantum=quantum,
                           demand=lambda: demand[0])
    now = 0.0
    for wait, op, index in ops:
        for t in (now + wait / 2, now + wait):
            env.run(until=t)
            walk = {n for n in wheel._entries if wheel.is_active(n)
                    and t - wheel.last_heartbeat(n, t) > window}
            assert wheel.silent_nodes(t, window) == walk
        now += wait
        node = f"n{index}"
        known = node in wheel._entries
        if op == "register" and not known:
            wheel.register(node, offset=index * 0.37)
        elif op in ("suspend", "unregister") and known:
            getattr(wheel, op)(node)
        elif op == "resume" and known:
            wheel.resume(node)
        elif op in ("demand", "idle"):
            demand[0] = op == "demand"
            wheel.wake()


def test_silent_nodes_needs_a_window_of_at_least_one_period():
    env, wheel, _ = make_wheel(period=2.0)
    with pytest.raises(ValueError, match="shorter than"):
        wheel.silent_nodes(0.0, 1.5)


def test_a_cohort_tick_stops_dispatching_once_demand_is_gone():
    """1k nodes in five cohorts: each AM-only job costs at most two
    dispatched beats, not a cohort's worth."""
    conf = HadoopConfig(nm_heartbeat_quantum_s=0.25)
    cluster = SimCluster(a3_cluster(1000), conf=conf)
    env, rm = cluster.env, cluster.rm
    apps = []

    def submitter():
        for i in range(20):
            app = Application(f"app_{i}", "t", ResourceVector(1024, 1),
                              _am_only(3.0))
            rm.submit_application(app)
            apps.append(app)
            yield env.timeout(0.7)

    env.process(submitter())
    env.run(until=30.0)
    assert all(app.finished.triggered for app in apps)
    wheel = rm.heartbeat_wheel
    assert wheel.heartbeats_dispatched <= 2 * len(apps)
    assert wheel.heartbeats_delivered > 25_000
