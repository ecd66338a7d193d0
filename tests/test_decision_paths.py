"""Golden decision paths: every replay strategy in every submission context.

Each cell replays a small Poisson trace through
:func:`repro.trace.replay_load` (``keep_jobs=True``) and pins the sha256 of
``LoadReport.to_dict()`` plus the readable ``decisions`` histogram. The
grid crosses every ``TRACE_STRATEGIES`` member with four contexts — plain
FIFO, the multi-tenant capacity scheduler with ``default_queue_of``,
serving with the overload ladder active, and serving under node churn —
and adds one auto cell whose in-memory history store explores every tuner
candidate, ``speculative`` included. Together the labels show every branch
of the strategy → mode → submission dispatch.

The simulator is deterministic, so a drifted hash is a behaviour change.
When one is intentional, regenerate the snapshot and say why in the
change log::

    PYTHONPATH=src python tests/test_decision_paths.py
"""

import hashlib
import json
import os

import pytest

from repro.config import HadoopConfig, ServingConfig, TunerConfig, a3_cluster
from repro.faults.plan import churn_plan
from repro.trace import (
    SCHEDULER_CAPACITY,
    SCHEDULER_FIFO,
    STRATEGY_AUTO,
    STRATEGY_SPECULATIVE,
    STRATEGY_STOCK,
    TRACE_STRATEGIES,
    JobTemplate,
    build_trace_cluster,
    default_queue_of,
    default_serving_mix,
    default_short_job_mix,
    poisson_trace,
    replay_load,
)
from repro.workloads import WORDCOUNT_PROFILE

SNAPSHOT = os.path.join(os.path.dirname(__file__), "snapshots",
                        "decision_paths.json")
SPEC = a3_cluster(4)
RATE, DURATION_S, SEED = 12.0, 90.0, 5
#: Twelve maps exceed ``uber_max_maps``, so stock runs some jobs
#: distributed, and D+ wins this template's first speculative launch.
BIG = JobTemplate("big", WORDCOUNT_PROFILE, num_files=12, file_mb=16.0, weight=2)
PLAIN = HadoopConfig(am_resource_fraction=0.3)
SERVING = PLAIN.with_(serving=ServingConfig(
    latency_deadline_s=75.0, slots_per_node=2, initial_guess_s=12.0))
#: A short pending queue at twice the rate keeps the ladder at level >= 1.
OVERLOAD = SERVING.with_(serving=SERVING.serving.with_(max_pending=8))
ALL_CANDIDATES = TunerConfig.candidates + ("speculative",)


def _replay(strategy, conf, mix, *, scheduler=SCHEDULER_FIFO, queue_of=None,
            fault_plan=None, rate=RATE, duration_s=DURATION_S):
    trace = poisson_trace(mix, rate, duration_s, seed=SEED)
    cluster = build_trace_cluster(SPEC, scheduler=scheduler, strategy=strategy,
                                  conf=conf)
    report = replay_load(cluster, trace, strategy, keep_jobs=True,
                         queue_of=queue_of, fault_plan=fault_plan)
    return cluster, report


CONTEXTS = {
    "fifo": lambda s: _replay(s, PLAIN, default_short_job_mix() + [BIG]),
    "capacity": lambda s: _replay(s, PLAIN, default_short_job_mix() + [BIG],
                                  scheduler=SCHEDULER_CAPACITY,
                                  queue_of=default_queue_of),
    "degraded": lambda s: _replay(s, OVERLOAD, default_serving_mix() + [BIG],
                                  rate=2 * RATE),
    "churn": lambda s: _replay(s, SERVING, default_serving_mix() + [BIG],
                               fault_plan=churn_plan(DURATION_S, seed=23)),
}


def _auto_store_cell():
    conf = PLAIN.with_(tuner=TunerConfig(history_db=":memory:",
                                         candidates=ALL_CANDIDATES))
    return _replay(STRATEGY_AUTO, conf, default_short_job_mix() + [BIG],
                   duration_s=2 * DURATION_S)


def build_grid() -> dict:
    """Cell id -> ``(cluster, report)`` for the whole grid."""
    grid = {f"{strategy}/{context}": run(strategy)
            for strategy in TRACE_STRATEGIES
            for context, run in CONTEXTS.items()}
    grid[f"{STRATEGY_AUTO}/memory-store"] = _auto_store_cell()
    return grid


def digest(report) -> str:
    payload = json.dumps(report.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def snapshot_of(grid: dict) -> dict:
    return {cell: {"sha256": digest(report),
                   "decisions": report.to_dict()["decisions"]}
            for cell, (_cluster, report) in grid.items()}


@pytest.fixture(scope="module")
def grid():
    return build_grid()


@pytest.fixture(scope="module")
def snapshot():
    with open(SNAPSHOT) as f:
        return json.load(f)


def test_grid_cells_match_snapshot(grid, snapshot):
    assert set(grid) == set(snapshot), "decision-path grid changed shape"
    got = snapshot_of(grid)
    for cell in sorted(snapshot):
        assert got[cell]["decisions"] == snapshot[cell]["decisions"], (
            f"{cell}: decisions drifted; if intentional, regenerate "
            f"tests/snapshots/decision_paths.json (see module docstring)")
        assert got[cell]["sha256"] == snapshot[cell]["sha256"], (
            f"{cell}: report drifted; if intentional, regenerate "
            f"tests/snapshots/decision_paths.json (see module docstring)")


def test_snapshot_labels_show_every_branch(snapshot):
    """The pinned grid really exercises each dispatch branch."""
    def labels(*cells):
        return {label for cell in cells for label in snapshot[cell]["decisions"]}

    contexts = list(CONTEXTS)
    stock = [f"{STRATEGY_STOCK}/{c}" for c in contexts]
    assert {"hadoop-uber", "hadoop-distributed"} <= labels(*stock)
    for fixed in ("mrapid-dplus", "mrapid-uplus"):
        assert labels(f"{fixed}/fifo") == {fixed}
    # The overload ladder sends latency jobs to U+ and batch to D+ whatever
    # the strategy asked for.
    assert {"mrapid-dplus", "mrapid-uplus"} <= labels("mrapid-dplus/degraded")
    assert {"mrapid-dplus", "mrapid-uplus"} <= labels(f"{STRATEGY_AUTO}/degraded")
    assert {"mrapid-dplus", "mrapid-uplus"} <= labels(f"{STRATEGY_SPECULATIVE}/fifo")
    assert {f"auto-{m}" for m in ALL_CANDIDATES} <= labels(
        f"{STRATEGY_AUTO}/memory-store")
    assert (snapshot[f"{STRATEGY_STOCK}/capacity"]["sha256"]
            != snapshot[f"{STRATEGY_STOCK}/fifo"]["sha256"])


def test_speculative_replay_cleans_up_both_launches(grid):
    """Inputs, the winner's output and the killed loser's output are all
    deleted once each job settles."""
    cluster, report = grid[f"{STRATEGY_SPECULATIVE}/fifo"]
    assert report.jobs_completed == report.jobs_submitted
    assert cluster.namenode.list_files() == []


if __name__ == "__main__":
    with open(SNAPSHOT, "w") as f:
        json.dump(snapshot_of(build_grid()), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {SNAPSHOT}")
