"""The five benchmark workloads.

Each workload drives the program only through its public entry points and
splits one process's work into phases the harness times separately:

* ``setup``   — imports and the fixed set-up a user pays before any work
  (cluster build, slowdown baselines, history-store open); ``setup_s``.
* ``make_inputs`` — seeded input generation; never timed.
* ``prepare`` — per-unit state that must be fresh for each repeat (a new
  cluster, a new history file); not timed.
* ``run``     — one unit of work; this is what ``unit_s`` times.
* ``finish``  — the correctness gates and the simulated-time results.

Every repeat of a unit replays identical inputs, so its outputs must be
identical too; the gates check that as well as each output's correctness.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import gates

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "snapshots" / "figures.json"

#: Figures whose series are gated against the committed snapshot.
SNAPSHOT_FIGURES = ("figure7", "figure10", "figure12")

#: The model.* values every workload reports (0 where they do not apply).
MODEL_KEYS = ("model.sim_sojourn_p50_s", "model.sim_sojourn_p99_s",
              "model.sim_makespan_s", "model.slo_attainment",
              "model.paper_claims_held")

#: Workload-reported layer counts (from the program's own reports).
REPORTED_LAYER_KEYS = ("serving.admitted", "serving.rejected", "serving.shed",
                       "serving.retries", "serving.scale_ups",
                       "tuner.learned_frac", "faults.jobs_failed")


@dataclass
class Unit:
    """One timed, gated unit of work."""

    seconds: float
    jobs: int
    digest: str
    model: dict[str, float]
    layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic; used for model values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _model(p50: float = 0.0, p99: float = 0.0, makespan: float = 0.0,
           attainment: float = 0.0, claims: float = 0.0) -> dict[str, float]:
    return dict(zip(MODEL_KEYS, (p50, p99, makespan, attainment, claims)))


class Workload:
    name = ""
    why = ""
    #: What one unit of work is, for the printed report.
    unit_text = ""

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def make_inputs(self) -> None:
        pass

    def prepare(self) -> Any:
        return None

    def run(self, prepared: Any) -> Any:
        raise NotImplementedError

    def finish(self, raw: Any, seconds: float) -> Unit:
        raise NotImplementedError

    def named_metrics(self, units: list[Unit], scale: float
                      ) -> list[tuple[str, float, str, str]]:
        """Workload-specific metrics for the printed report, with host times
        multiplied by ``scale``: (name, value, unit, note)."""
        return []

    def close(self) -> None:
        pass


# -- figures -------------------------------------------------------------------

class Figures(Workload):
    name = "figures"
    why = ("the paper's evaluation sweep (Table II, Figures 7-15), serial: "
           "118 single-job points, each on a fresh idle cluster")
    unit_text = "one serial sweep of every paper figure (118 points)"

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        from repro.experiments import harness
        from repro.experiments.figures import ALL_FIGURES
        from repro.experiments.parallel import set_default_jobs

        set_default_jobs(1)
        self.figures = ALL_FIGURES
        self.harness = harness
        # Host time and simulated sojourn of every point, in run order.
        self.points: list[tuple[float, float]] = []
        original = self._original_run = harness.PointTask.run
        points = self.points

        def timed_run(task: Any) -> Any:
            start = perf_counter()
            result = original(task)
            points.append((perf_counter() - start, result.elapsed))
            return result

        harness.PointTask.run = timed_run
        self.reference: Optional[dict[str, str]] = None

    def close(self) -> None:
        if hasattr(self, "_original_run"):
            self.harness.PointTask.run = self._original_run

    def make_inputs(self) -> None:
        # The figures take no seed of their own (their points use the
        # paper's fixed seeds); the workload seed permutes the sweep order,
        # which must not change a single byte of output.
        self.order = list(self.figures)
        random.Random(self.seed).shuffle(self.order)
        with open(SNAPSHOT) as f:
            self.snapshot = json.load(f)

    def run(self, prepared: Any) -> dict:
        del self.points[:]
        results = {name: self.figures[name]() for name in self.order}
        tables = {name: fig.render_table() for name, fig in results.items()}
        return {"results": results, "tables": tables,
                "points": list(self.points)}

    def finish(self, raw: dict, seconds: float) -> Unit:
        results, tables = raw["results"], raw["tables"]
        failures = gates.check_tables(tables, self.reference)
        for name in SNAPSHOT_FIGURES:
            fig = results[name]
            failures += gates.check_snapshot(
                fig.figure_id, gates.figure_series(fig), self.snapshot)
        if self.reference is None:
            self.reference = tables
        sojourns = [elapsed for _, elapsed in raw["points"]]
        claims = sum(claim.holds for fig in results.values()
                     for claim in fig.claims)
        ordered = {name: tables[name] for name in sorted(tables)}
        return Unit(
            seconds=seconds, jobs=len(raw["points"]), digest=_digest(ordered),
            model=_model(percentile(sojourns, 50), percentile(sojourns, 99),
                         sum(sojourns), 0.0, claims),
            samples={"point_s": [host for host, _ in raw["points"]]},
            failures=failures)

    def named_metrics(self, units: list[Unit], scale: float
                      ) -> list[tuple[str, float, str, str]]:
        point_ms = [s * 1e3 * scale for u in units for s in u.samples["point_s"]]
        n = len(point_ms)
        rows = [("sweep_s", _median([u.seconds for u in units]) * scale, "s",
                 f"median of {len(units)} sweeps")]
        rows.append(("point_p50_ms", percentile(point_ms, 50), "ms",
                     f"n={n} points"))
        # p90 is reported only with at least ten samples beyond it.
        if n >= 100:
            rows.append(("point_p90_ms", percentile(point_ms, 90), "ms",
                         f"n={n} points, {n - int(0.9 * n)} beyond p90"))
        return rows


# -- open-loop replays ---------------------------------------------------------

class Replay(Workload):
    name = "replay"
    why = ("deep-queue regime: short-job mix on 4 A3 nodes, stock FIFO, "
           "120 jobs/min open loop, overloaded so the AM queue grows")
    unit_text = "one open-loop replay of 480 jobs (about 240 s simulated)"
    rate_per_minute = 120.0
    #: A fixed job count, so that seeds differ in arrivals and mix but not
    #: in how much work a unit holds.
    jobs = 480
    nodes = 4

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        from repro.config import a3_cluster
        from repro import trace

        self.trace_mod = trace
        self.spec = a3_cluster(self.nodes)
        self.mix = self.make_mix()
        self.conf = self.make_conf()
        self.baselines = trace.template_baselines(self.spec, self.mix,
                                                  conf=self.conf)
        self.prepare()
        self.reference: Optional[dict] = None

    def make_mix(self) -> list:
        return self.trace_mod.default_short_job_mix()

    def make_conf(self) -> Any:
        return None

    def make_inputs(self) -> None:
        horizon_s = 120.0 * self.jobs / self.rate_per_minute
        trace = self.trace_mod.poisson_trace(
            self.mix, self.rate_per_minute, horizon_s, seed=self.seed)
        if len(trace) < self.jobs:
            raise RuntimeError(f"seed {self.seed}: {len(trace)} arrivals in "
                               f"{horizon_s:g} s, fewer than {self.jobs}")
        self.trace = trace[:self.jobs]
        self.fault_plan = None

    def prepare(self) -> Any:
        return self.trace_mod.build_trace_cluster(self.spec, conf=self.conf)

    def run(self, cluster: Any) -> Any:
        return self.trace_mod.replay_load(
            cluster, self.trace, baselines=self.baselines,
            fault_plan=self.fault_plan)

    def finish(self, report: Any, seconds: float) -> Unit:
        result = report.to_dict()
        failures = gates.check_replay(result, len(self.trace), self.reference)
        if self.reference is None:
            self.reference = result
        slo = result.get("slo", {})
        attainment = slo.get("attainment", {}).get("fraction", 0.0)
        sources = result.get("tuner", {}).get("sources", {})
        layer = {
            "serving.admitted": slo.get("admitted", 0),
            "serving.rejected": slo.get("rejected", 0),
            "serving.shed": slo.get("shed", 0),
            "serving.retries": slo.get("retries", 0),
            "serving.scale_ups": slo.get("autoscaler", {}).get(
                "scale_up_events", 0),
            "tuner.learned_frac": (sources.get("learned", 0)
                                   / max(1, sum(sources.values()))),
            "faults.jobs_failed": report.failed + report.killed,
        }
        return Unit(
            seconds=seconds, jobs=len(self.trace), digest=_digest(result),
            model=_model(report.sojourn.p50, report.sojourn.p99,
                         report.makespan_s, attainment),
            layer=layer, failures=failures)


class Serving(Replay):
    name = "serving"
    why = ("chaos serving: SLO mix through admission and a 4-10 node "
           "autoscaler under node churn, auto mode with an on-disk history "
           "store, telemetry scrapes every 1 s")
    unit_text = "one chaos-serving replay of 500 jobs (about 600 s simulated)"
    rate_per_minute = 50.0
    jobs = 500

    def setup(self, seed: int, workdir: Path) -> None:
        self._stores = 0
        super().setup(seed, workdir)
        from repro.tuner import RunHistoryStore

        # History-store open is part of a user's set-up; each unit then
        # replays against a fresh store so every repeat starts cold.
        RunHistoryStore(self._fresh_store_path()).close()

    def make_mix(self) -> list:
        return self.trace_mod.default_serving_mix()

    def make_conf(self) -> Any:
        from repro.config import (HadoopConfig, ServingConfig,
                                  TelemetryConfig)

        serving = ServingConfig(latency_deadline_s=75.0, slots_per_node=2,
                                initial_guess_s=12.0, autoscale=True,
                                min_nodes=self.nodes, max_nodes=10)
        return HadoopConfig(am_resource_fraction=0.3, serving=serving,
                            telemetry=TelemetryConfig(scrape_interval_s=1.0))

    def make_inputs(self) -> None:
        from repro.faults.plan import churn_plan

        super().make_inputs()
        self.fault_plan = churn_plan(self.trace[-1].arrival_s, seed=self.seed)

    def _fresh_store_path(self) -> str:
        for old in self.workdir.glob("history-*"):
            old.unlink()
        self._stores += 1
        return str(self.workdir / f"history-{self._stores}.sqlite")

    def prepare(self) -> Any:
        from repro.config import TunerConfig

        conf = self.conf.with_(tuner=TunerConfig(
            history_db=self._fresh_store_path()))
        return self.trace_mod.build_trace_cluster(
            self.spec, strategy=self.trace_mod.STRATEGY_AUTO, conf=conf)

    def run(self, cluster: Any) -> Any:
        return self.trace_mod.replay_load(
            cluster, self.trace, self.trace_mod.STRATEGY_AUTO,
            baselines=self.baselines, fault_plan=self.fault_plan)


# -- 10k-node scale ------------------------------------------------------------

class Scale10k(Workload):
    name = "scale_10k"
    why = ("10,000 NodeManagers on the shared heartbeat wheel (0.25 s "
           "quantum) running a Poisson stream of AM-only uber jobs")
    unit_text = "120 uber jobs arriving over about 30 s simulated, on 10k nodes"
    nodes = 10_000
    rate_per_s = 4.0
    jobs = 120
    service_s = 5.0

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        from repro.cluster import ResourceVector
        from repro.config import HadoopConfig, a3_cluster
        from repro.simcluster import SimCluster
        from repro.yarn import Application

        self.resource_vector = ResourceVector
        self.application = Application
        self.sim_cluster = SimCluster
        self.spec = a3_cluster(self.nodes)
        self.conf = HadoopConfig(nm_heartbeat_quantum_s=0.25)
        self.prepare()
        self.reference: Optional[str] = None

    def make_inputs(self) -> None:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(1.0 / self.rate_per_s, size=self.jobs)
        self.arrivals = [round(float(t), 3) for t in np.cumsum(gaps)]

    def prepare(self) -> Any:
        cluster = self.sim_cluster(self.spec, conf=self.conf)
        cluster.rm.retain_finished_apps = False  # bounded RSS
        return cluster

    def run(self, cluster: Any) -> dict:
        env, rm = cluster.env, cluster.rm
        service_s = self.service_s
        jobs = len(self.arrivals)
        completions: list[tuple[str, float, float]] = []
        done = env.event()
        submitted = 0

        def uber(ctx: Any):
            yield ctx.env.timeout(service_s)
            completions.append((ctx.app.app_id, ctx.app.submit_time, env.now))
            if len(completions) == jobs:
                done.succeed(None)

        def submitter():
            nonlocal submitted
            for at in self.arrivals:
                if at > env.now:
                    yield env.timeout(at - env.now)
                rm.submit_application(self.application(
                    rm.next_app_id(), "bench-uber",
                    self.resource_vector(1024, 1), uber))
                submitted += 1

        env.process(submitter(), name="bench-submitter")
        env.run(until=done)
        wheel = rm.heartbeat_wheel
        return {"submitted": submitted, "completions": completions,
                "makespan": env.now, "beats": wheel.heartbeats_delivered}

    def finish(self, raw: dict, seconds: float) -> Unit:
        completions = raw["completions"]
        digest = _digest(sorted(completions))
        failures = gates.check_scale(raw["submitted"], len(completions),
                                     len(self.arrivals), digest, self.reference)
        if self.reference is None:
            self.reference = digest
        sojourns = [end - start for _, start, end in completions]
        return Unit(
            seconds=seconds, jobs=len(self.arrivals), digest=digest,
            model=_model(percentile(sojourns, 50), percentile(sojourns, 99),
                         raw["makespan"]),
            failures=failures)


# -- functional engine ---------------------------------------------------------

class Engine(Workload):
    name = "engine"
    why = ("the functional MapReduce engine on real bytes, serially: "
           "WordCount over Zipf text with spills, TeraSort over TeraGen rows")
    unit_text = "one WordCount (1 MiB, 4 spills) plus one TeraSort (50k rows)"
    text_files = 4
    file_mb = 0.25
    sort_buffer_bytes = 1 << 20
    rows = 50_000

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        from repro.workloads import generate_files, run_wordcount
        from repro.workloads.terasort import (run_terasort, teragen,
                                              teravalidate)
        from repro.workloads.wordcount import reference_wordcount

        self.generate_files = generate_files
        self.run_wordcount = run_wordcount
        self.run_terasort = run_terasort
        self.teragen = teragen
        self.teravalidate = teravalidate
        self.reference_wordcount = reference_wordcount

    def make_inputs(self) -> None:
        self.files = self.generate_files(self.text_files, self.file_mb,
                                         seed=self.seed)
        self.text_mb = sum(len(text.encode()) for _, text in self.files) / 2**20
        self.table = self.teragen(self.rows, seed=self.seed, num_files=4)
        self.table_mb = self.rows * 100 / 2**20
        self.expected = self.reference_wordcount(self.files)

    def run(self, prepared: Any) -> dict:
        start = perf_counter()
        counts = self.run_wordcount(self.files,
                                    sort_buffer_bytes=self.sort_buffer_bytes)
        middle = perf_counter()
        ordered = self.run_terasort(self.table)
        end = perf_counter()
        return {"wordcount": counts, "terasort": ordered,
                "wordcount_s": middle - start, "terasort_s": end - middle}

    def finish(self, raw: dict, seconds: float) -> Unit:
        counts = raw["wordcount"].as_dict()
        failures = gates.check_wordcount(counts, self.expected)
        failures += gates.check_terasort(self.teravalidate(raw["terasort"]),
                                         self.rows)
        keys = [key for partition in raw["terasort"].partitions
                for key, _ in partition]
        return Unit(
            seconds=seconds, jobs=2,
            digest=_digest([sorted(counts.items()),
                            hashlib.sha256(b"".join(keys)).hexdigest()]),
            model=_model(),
            samples={"wordcount_s": [raw["wordcount_s"]],
                     "terasort_s": [raw["terasort_s"]]},
            failures=failures)

    def named_metrics(self, units: list[Unit], scale: float
                      ) -> list[tuple[str, float, str, str]]:
        wc = _median([s for u in units for s in u.samples["wordcount_s"]]) * scale
        ts = _median([s for u in units for s in u.samples["terasort_s"]]) * scale
        return [
            ("wordcount_mb_per_s", self.text_mb / wc, "MB/s",
             f"{self.text_mb:.2f} MiB input, median of {len(units)} runs"),
            ("terasort_mb_per_s", self.table_mb / ts, "MB/s",
             f"{self.rows} rows, median of {len(units)} runs"),
        ]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Figures, Replay, Serving, Scale10k, Engine)
}
