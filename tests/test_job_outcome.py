"""One job outcome for every learner.

:func:`repro.core.submit.settle_job` settles each replayed job into one
:class:`~repro.core.submit.JobOutcome`; HFSP, the admission size oracle,
the ``auto`` picker's store and ``LoadReport`` all read it. These tests pin
the settle step's four failure exits and that HFSP trained live agrees with
HFSP seeded from the store the same replay wrote.
"""

import pytest

import repro.core.submit as submit_mod
from repro.config import HadoopConfig, ServingConfig, TunerConfig, a3_cluster
from repro.mapreduce.spec import JobResult
from repro.serving.admission import AdmissionController
from repro.simulation.errors import Interrupt
from repro.trace import (
    SCHEDULER_HFSP,
    STRATEGY_AUTO,
    build_trace_cluster,
    default_short_job_mix,
    poisson_trace,
    replay_load,
    seed_replay_models,
)
from repro.tuner import AutoModePicker, RunHistoryStore
from repro.yarn.resourcemanager import JobKilled


def _exit_submission(exit_kind):
    """A stand-in for :func:`submit_job` whose job ends through ``exit_kind``
    five seconds after submission."""

    def fake_submit_job(cluster, spec, mode, *, queue=None, fifo_key=None):
        env = cluster.env
        submitted = env.now

        def body():
            yield env.timeout(5.0)
            if exit_kind == "raises-killed":
                raise JobKilled("app_0001")
            if exit_kind == "raises-am-failure":
                # What the RM surfaces once an AM whose node died has used
                # up its attempts.
                raise Interrupt("node lost")
            return JobResult("app_0001", spec.name, mode, submit_time=submitted,
                             am_start_time=submitted + 1.0, finish_time=env.now,
                             killed=exit_kind == "result-killed",
                             failed=exit_kind == "result-failed")

        return env.process(body())

    return fake_submit_job


@pytest.mark.parametrize("exit_kind, counter", [
    ("raises-killed", "killed"),
    ("raises-am-failure", "failed"),
    ("result-killed", "killed"),
    ("result-failed", "failed"),
])
def test_settle_exits_count_once_and_train_nothing(monkeypatch, tmp_path,
                                                   exit_kind, counter):
    monkeypatch.setattr(submit_mod, "submit_job", _exit_submission(exit_kind))
    trained, aborted, pickers = [], [], []
    job_finished = AdmissionController.job_finished
    job_aborted = AdmissionController.job_aborted
    observe_record = AutoModePicker.observe_record

    def spy_finished(self, *args):
        trained.append(args)
        return job_finished(self, *args)

    def spy_aborted(self, *args):
        aborted.append(args)
        return job_aborted(self, *args)

    def spy_observe(self, record):
        pickers.append(self)
        return observe_record(self, record)

    monkeypatch.setattr(AdmissionController, "job_finished", spy_finished)
    monkeypatch.setattr(AdmissionController, "job_aborted", spy_aborted)
    monkeypatch.setattr(AutoModePicker, "observe_record", spy_observe)

    db = str(tmp_path / "history.db")
    conf = HadoopConfig(serving=ServingConfig(),
                        tuner=TunerConfig(history_db=db))
    cluster = build_trace_cluster(a3_cluster(2), scheduler=SCHEDULER_HFSP,
                                  strategy=STRATEGY_AUTO, conf=conf)
    trace = poisson_trace(default_short_job_mix(), 6.0, 12.0, seed=3)[:1]
    report = replay_load(cluster, trace, STRATEGY_AUTO, keep_jobs=True)

    assert report.jobs_completed == 1
    assert (report.killed, report.failed) == (
        (1, 0) if counter == "killed" else (0, 1))
    assert report.sojourn.count == 0 and report.decisions == {}
    assert [row["outcome"] for row in report.per_job] == [counter]
    # No learner trains on it: not HFSP, not admission, not the picker.
    assert trace[0].signature not in cluster.rm.scheduler.sizes
    assert trained == [] and len(aborted) == 1
    assert len(pickers) == 1 and list(pickers[0].model._stats) == []
    # The store still keeps the aborted run.
    with RunHistoryStore(db) as store:
        runs = store.runs(trace[0].signature)
    assert [run.outcome for run in runs] == [counter]


def test_live_hfsp_sizes_equal_the_sizes_seeded_from_the_store(tmp_path):
    """An ``auto`` replay under HFSP trains HFSP live on every success, D+
    and U+ jobs in pooled AMs included; seeding a fresh HFSP from the store
    that replay wrote must give the same samples and means per signature."""
    conf = HadoopConfig(am_resource_fraction=0.3, tuner=TunerConfig(
        history_db=str(tmp_path / "history.db")))
    cluster = build_trace_cluster(a3_cluster(4), scheduler=SCHEDULER_HFSP,
                                  strategy=STRATEGY_AUTO, conf=conf)
    trace = poisson_trace(default_short_job_mix(), 12.0, 180.0, seed=5)
    replay_load(cluster, trace, STRATEGY_AUTO)
    live = cluster.rm.scheduler.sizes

    fresh = build_trace_cluster(a3_cluster(4), scheduler=SCHEDULER_HFSP,
                                strategy=STRATEGY_AUTO, conf=conf)
    with RunHistoryStore(conf.tuner.history_db) as store:
        pooled = {run.mode for sig in store.signatures()
                  for run in store.runs(sig) if run.success}
        seed_replay_models(fresh, store)
    seeded = fresh.rm.scheduler.sizes
    assert {"dplus", "uplus"} <= pooled
    signatures = sorted(t.name for t in default_short_job_mix())
    for sig in signatures:
        assert live.samples(sig) == seeded.samples(sig) > 0, sig
        assert live.mean(sig) == pytest.approx(seeded.mean(sig), abs=1e-9), sig
