"""Top-level MRapid API: one call to run a short job in any mode.

This is the facade examples and the experiment harness use::

    cluster = build_mrapid_cluster(a3_cluster(4))
    result = run_short_job(cluster, spec, mode="uplus")
    outcome = run_speculative(cluster, spec)          # launch both, keep winner

Stock baselines go through :func:`run_stock_job` on a cluster built with the
stock scheduler (:func:`build_stock_cluster`).

:func:`submit_job` is the proxy's dispatch (paper §III-C, Figure 6) and the
one place that maps a mode name to a submission path; every replay
strategy, chain stage, chaos point, tuner arm and CLI run goes through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..config import ClusterSpec, HadoopConfig, MRapidConfig
from ..mapreduce.client import MODE_AUTO, MODE_DISTRIBUTED, MODE_UBER, JobClient
from ..mapreduce.spec import JobResult, SimJobSpec
from ..simcluster import SimCluster
from ..yarn.scheduler import CapacityScheduler
from .ampool import MODE_DPLUS, MODE_UPLUS, SubmissionFramework
from .decision import DecisionMaker
from .dplus import DPlusScheduler
from .speculation import SpeculationOutcome, SpeculativeExecutor

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.events import Process

#: Stock modes -> :class:`JobClient` mode (``stock`` applies Hadoop's own
#: uber-eligibility rule).
_CLIENT_MODES = {"stock": MODE_AUTO, "uber": MODE_UBER,
                 "distributed": MODE_DISTRIBUTED}
#: MRapid fixed modes -> :class:`SubmissionFramework` mode.
_FRAMEWORK_MODES = {"dplus": MODE_DPLUS, "uplus": MODE_UPLUS}
MODE_SPECULATIVE = "speculative"
SUBMIT_MODES = (*_CLIENT_MODES, *_FRAMEWORK_MODES, MODE_SPECULATIVE)


def build_stock_cluster(spec: ClusterSpec, conf: Optional[HadoopConfig] = None,
                        seed: int = 7) -> SimCluster:
    """A cluster running unmodified Hadoop 2.2 (greedy CapacityScheduler)."""
    return SimCluster(spec, conf=conf, scheduler=CapacityScheduler(), seed=seed)


def build_mrapid_cluster(spec: ClusterSpec, conf: Optional[HadoopConfig] = None,
                         mrapid: Optional[MRapidConfig] = None,
                         seed: int = 7) -> SimCluster:
    """A cluster with the D+ scheduler installed in the RM.

    The returned cluster carries a ready :class:`SubmissionFramework` on
    ``cluster.mrapid_framework`` (AM pool pre-warming starts at t=0, like a
    proxy service started with the cluster).
    """
    mrapid = mrapid if mrapid is not None else MRapidConfig()
    scheduler = DPlusScheduler(
        balanced_spread=mrapid.balanced_spread,
        locality_aware=mrapid.locality_aware,
        respond_same_heartbeat=mrapid.respond_same_heartbeat,
    )
    cluster = SimCluster(spec, conf=conf, scheduler=scheduler, seed=seed)
    cluster.mrapid_framework = SubmissionFramework(cluster, mrapid)  # type: ignore[attr-defined]
    return cluster


def _framework(cluster: SimCluster) -> SubmissionFramework:
    framework = getattr(cluster, "mrapid_framework", None)
    if framework is None:
        raise ValueError("cluster was not built with build_mrapid_cluster()")
    return framework


def submit_job(cluster: SimCluster, spec: SimJobSpec, mode: str, *,
               queue: Optional[str] = None,
               fifo_key: Optional[int] = None) -> "Process":
    """Start ``spec`` in ``mode`` (one of :data:`SUBMIT_MODES`).

    Returns the submission path's own process: its value is a
    :class:`JobResult`, or a :class:`SpeculationOutcome` for
    ``speculative`` (:func:`winner_and_loser` unpacks either). ``queue``
    and ``fifo_key`` only apply to the stock modes; see
    :meth:`JobClient.submit`. Raises :class:`ValueError` for an unknown
    mode, or an MRapid mode on a cluster without ``mrapid_framework``.
    """
    if mode in _CLIENT_MODES:
        return JobClient(cluster).submit(spec, _CLIENT_MODES[mode],
                                         queue=queue, fifo_key=fifo_key)
    if mode in _FRAMEWORK_MODES:
        return _framework(cluster).submit(spec, _FRAMEWORK_MODES[mode]).proc
    if mode == MODE_SPECULATIVE:
        # The executor's only state is the framework's shared decision
        # maker, so a fresh one per job keeps the cluster-wide history.
        return SpeculativeExecutor(_framework(cluster)).submit(spec)
    raise ValueError(f"unknown submission mode {mode!r}; use one of {SUBMIT_MODES}")


def run_job(cluster: SimCluster, spec: SimJobSpec, mode: str, *,
            queue: Optional[str] = None) -> Any:
    """Blocking :func:`submit_job`: run the simulation until the job
    settles and return the process value."""
    proc = submit_job(cluster, spec, mode, queue=queue)
    cluster.env.run(until=proc)
    return proc.value


def winner_and_loser(value: Any) -> tuple[JobResult, Optional[JobResult]]:
    """The winning :class:`JobResult` of a :func:`submit_job` value, and the
    killed speculation loser when both modes launched (else ``None``)."""
    if isinstance(value, SpeculationOutcome):
        return value.winner, value.loser
    return value, None


def run_stock_job(cluster: SimCluster, spec: SimJobSpec, mode: str) -> JobResult:
    """Run a job on stock Hadoop; mode is 'distributed' or 'uber'."""
    normalized = {
        "distributed": "distributed", MODE_DISTRIBUTED: "distributed",
        "uber": "uber", MODE_UBER: "uber",
    }.get(mode)
    if normalized is None:
        raise ValueError(f"unknown stock mode {mode!r}")
    return run_job(cluster, spec, normalized)


def run_short_job(cluster: SimCluster, spec: SimJobSpec, mode: str) -> JobResult:
    """Run a job through MRapid's submission framework in 'dplus'/'uplus'."""
    _framework(cluster)  # a stock cluster fails first, whatever the mode
    normalized = {
        "dplus": "dplus", MODE_DPLUS: "dplus",
        "uplus": "uplus", MODE_UPLUS: "uplus",
    }.get(mode)
    if normalized is None:
        raise ValueError(f"unknown MRapid mode {mode!r}")
    return run_job(cluster, spec, normalized)


def run_speculative(cluster: SimCluster, spec: SimJobSpec,
                    decision_maker: Optional[DecisionMaker] = None) -> SpeculationOutcome:
    """Launch both modes, keep the winner (paper Figure 6).

    ``decision_maker`` replaces the framework's shared one (and its job
    history) for this job only.
    """
    if decision_maker is None:
        return run_job(cluster, spec, MODE_SPECULATIVE)
    return SpeculativeExecutor(_framework(cluster),
                               decision_maker=decision_maker).run(spec)
