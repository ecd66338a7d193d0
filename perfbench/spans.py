"""Wall-clock spans around each layer of the program, for the traced run.

The benchmark never edits the program. Instead, :class:`LayerTracer` swaps
wrappers onto the classes and modules of ``repro`` for the length of one
unit of work, and takes them off again afterwards, so untraced units run
the unmodified code. Each wrapper opens a span at a layer boundary (the
layer is named after the ``repro`` package that owns the code) and counts
the work that crosses it.

Generator-based layers run as simulation processes; they are timed per
resume segment by wrapping the kernel's process resume, and a segment is
charged to the package of the innermost generator running at the resume.
A layer's self time is its spans' durations minus the time of the spans
nested inside them, so the self times of all layers (plus the benchmark's
own code) add up to the traced wall time.

Spans are kept in memory, up to a cap, and written out as Chrome
trace-event JSON (loadable in Perfetto) when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

#: The layers reported by the traced run, in report order.
LAYERS = ("simulation", "yarn", "cluster", "hdfs", "mapreduce", "core",
          "experiments", "serving", "tuner", "telemetry", "faults", "engine")

#: ``repro`` sub-packages and top-level modules -> reported layer. Anything
#: else is charged to ``other``; code outside ``repro`` to ``bench``.
_PACKAGE_LAYER = {
    "simulation": "simulation", "yarn": "yarn", "cluster": "cluster",
    "hdfs": "hdfs", "mapreduce": "mapreduce", "core": "core",
    "experiments": "experiments", "trace.py": "experiments",
    "simcluster.py": "experiments", "serving": "serving", "tuner": "tuner",
    "telemetry": "telemetry", "observe": "telemetry", "faults": "faults",
    "engine": "engine", "workloads": "engine",
}

#: Spans kept for the trace file; later ones are counted, not stored.
SPAN_CAP = 100_000


def layer_of_file(path: str) -> str:
    parts = path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return "bench"
    index = len(parts) - 1 - parts[::-1].index("repro")
    if index + 1 >= len(parts):
        return "other"
    return _PACKAGE_LAYER.get(parts[index + 1], "other")


class Recorder:
    """Span stack, per-layer self time, and counters for one traced unit."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.stack: list[list] = []  # frames: [child_seconds, span_id]
        self.ids = itertools.count(1)
        self.self_s: dict[str, float] = defaultdict(float)     # by layer
        self.name_self_s: dict[str, float] = defaultdict(float)
        self.name_incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)          # by span name
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.pools: set = set()  # the AM pools of MRapid submission frameworks

    def close(self, layer: str, name: str, frame: list, start: float,
              end: float) -> None:
        duration = end - start
        own = duration - frame[0]
        self.self_s[layer] += own
        self.name_self_s[name] += own
        self.name_incl_s[name] += duration
        self.calls[name] += 1
        parent = 0
        if self.stack:
            top = self.stack[-1]
            top[0] += duration
            parent = top[1]
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[1], parent, layer, name, start, end))
        else:
            self.spans_dropped += 1

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value


def _span(rec: Recorder, layer: str, name: str, fn: Callable,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span; ``before(args)`` / ``after(args, result,
    token)`` hook counters onto the call."""
    stack = rec.stack
    ids = rec.ids

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = before(args) if before is not None else None
        frame = [0.0, next(ids)]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            rec.close(layer, name, frame, start, end)
        if after is not None:
            after(args, result, token)
        return result

    return wrapper


def _counted(rec: Recorder, key: str, fn: Callable) -> Callable:
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class _TimedIterator:
    """Times each ``next`` of a generator the program iterates itself."""

    def __init__(self, rec: Recorder, layer: str, name: str, it: Any) -> None:
        self._rec = rec
        self._layer = layer
        self._name = name
        self._it = it

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        rec = self._rec
        frame = [0.0, next(rec.ids)]
        rec.stack.append(frame)
        start = perf_counter()
        try:
            return next(self._it)
        finally:
            end = perf_counter()
            rec.stack.pop()
            rec.close(self._layer, self._name, frame, start, end)


_MISSING = object()


class LayerTracer:
    """Installs the layer wrappers for one traced unit, then removes them."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self._saved: list[tuple[Any, str, Any]] = []
        self._code_layer: dict[Any, tuple[str, str]] = {}

    # -- patching ----------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]
               ) -> None:
        if isinstance(owner, type):
            saved = owner.__dict__.get(attr, _MISSING)
        else:
            saved = getattr(owner, attr)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, make(getattr(owner, attr)))

    def __enter__(self) -> Recorder:
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self.rec

    def __exit__(self, *exc: Any) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        for owner, attr, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._saved.clear()

    def _install(self) -> None:
        rec = self.rec
        counts = rec.counts
        mod = importlib.import_module

        # -- simulation: the run loop, and every process resume segment.
        events = mod("repro.simulation.events")
        core = mod("repro.simulation.core")

        def run_before(args: tuple) -> int:
            return args[0].events_processed

        def run_after(args: tuple, _result: Any, before: int) -> None:
            counts["simulation.events"] += args[0].events_processed - before

        self._patch(core.Environment, "run", lambda fn: _span(
            rec, "simulation", "simulation.run", fn, run_before, run_after))
        self._patch(events.Process, "_resume", self._resume_wrapper)

        # -- yarn: heartbeats, allocation, AM queue, fit checks.
        rm_mod = mod("repro.yarn.resourcemanager")
        records = mod("repro.yarn.records")
        rm_cls = rm_mod.ResourceManager

        def beat_before(args: tuple) -> int:
            rm = args[0]
            counts["yarn.heartbeats"] += 1
            rec.peak("yarn.am_queue_peak", len(rm._am_queue))
            rec.peak("simulation.peak_pending", len(rm.env._queue))
            return counts["yarn.containers_granted"]

        def beat_after(args: tuple, _result: Any, granted_before: int) -> None:
            if counts["yarn.containers_granted"] != granted_before:
                counts["yarn.useful_heartbeats"] += 1

        self._patch(rm_cls, "node_heartbeat", lambda fn: _span(
            rec, "yarn", "yarn.node_heartbeat", fn, beat_before, beat_after))
        self._patch(mod("repro.yarn.heartbeat").HeartbeatWheel, "_fire",
                    lambda fn: _span(rec, "yarn", "yarn.wheel_fire", fn))
        self._patch(rm_cls, "allocate",
                    lambda fn: _span(rec, "yarn", "yarn.allocate", fn))
        self._patch(rm_cls, "submit_application",
                    lambda fn: _span(rec, "yarn", "yarn.submit", fn))
        self._patch(rm_cls, "next_container_id",
                    lambda fn: _counted(rec, "yarn.containers_granted", fn))
        self._patch(records.NodeState, "can_fit",
                    lambda fn: _counted(rec, "yarn.fit_checks", fn))

        # -- cluster: the max-min network/disk fabric.
        fabric = mod("repro.cluster.fabric").SharedFabric
        self._patch(fabric, "submit", lambda fn: _counted(
            rec, "cluster.flows", _span(rec, "cluster", "cluster.submit", fn)))
        self._patch(fabric, "kill",
                    lambda fn: _span(rec, "cluster", "cluster.kill", fn))
        self._patch(fabric, "_on_wakeup",
                    lambda fn: _span(rec, "cluster", "cluster.wakeup", fn))
        self._patch(fabric, "_reallocate", lambda fn: _counted(
            rec, "cluster.reallocations",
            _span(rec, "cluster", "cluster.reallocate", fn)))

        # -- hdfs: namespace operations on the NameNode.
        namenode = mod("repro.hdfs.namenode").NameNode

        def created(_args: tuple, file: Any, _token: Any) -> None:
            counts["hdfs.files_created"] += 1
            counts["hdfs.blocks_placed"] += len(file.blocks)

        def deleted(_args: tuple, _result: Any, _token: Any) -> None:
            counts["hdfs.files_deleted"] += 1

        self._patch(namenode, "create_file", lambda fn: _span(
            rec, "hdfs", "hdfs.create_file", fn, after=created))
        self._patch(namenode, "delete", lambda fn: _span(
            rec, "hdfs", "hdfs.delete", fn, after=deleted))
        for attr in ("block_locations", "blocks_on_node", "under_replicated"):
            self._patch(namenode, attr, lambda fn, attr=attr: _span(
                rec, "hdfs", f"hdfs.{attr}", fn))

        # -- mapreduce: one TaskRecord per task attempt.
        spec = mod("repro.mapreduce.spec")
        self._patch(spec.TaskRecord, "__init__",
                    lambda fn: _counted(rec, "mapreduce.tasks", fn))

        # -- core: MRapid submission, the AM pool, D+ locality.
        ampool = mod("repro.core.ampool")
        store_mod = mod("repro.simulation.resources")
        dplus = mod("repro.core.dplus")
        locality = mod("repro.cluster.topology").Locality

        def framework_init(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(self_: Any, *args: Any, **kwargs: Any) -> None:
                fn(self_, *args, **kwargs)
                rec.pools.add(self_.pool)
            return wrapper

        def pool_get(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(self_: Any, *args: Any, **kwargs: Any) -> Any:
                if self_ in rec.pools:
                    counts["core.ampool_gets"] += 1
                    if self_.items:
                        counts["core.ampool_hits"] += 1
                return fn(self_, *args, **kwargs)
            return wrapper

        def dplus_grant(_args: tuple, container: Any, _token: Any) -> None:
            if container is None:
                return
            request = _args[1].request
            if request.preferred_nodes:
                counts["core.dplus_grants"] += 1
                if request.locality_of(_args[2].node_id,
                                       _args[0].rm.topology) == locality.NODE_LOCAL:
                    counts["core.dplus_local"] += 1

        self._patch(ampool.SubmissionFramework, "__init__", framework_init)
        self._patch(ampool.SubmissionFramework, "submit",
                    lambda fn: _span(rec, "core", "core.submit", fn))
        self._patch(store_mod.Store, "get", pool_get)
        self._patch(dplus.DPlusScheduler, "_get_resource", lambda fn: _span(
            rec, "core", "core.dplus_get_resource", fn, after=dplus_grant))

        # -- experiments: cluster builds and figure points.
        simcluster = mod("repro.simcluster")
        harness = mod("repro.experiments.harness")
        self._patch(simcluster.SimCluster, "__init__", lambda fn: _span(
            rec, "experiments", "experiments.cluster_build", fn))
        self._patch(harness.PointTask, "run", lambda fn: _span(
            rec, "experiments", "experiments.point", fn))

        # -- serving: admission, dispatch, settlement.
        runtime = mod("repro.serving.runtime").ServingRuntime
        for attr in ("offer", "degraded_mode_for", "job_finished",
                     "job_aborted", "record_rejection"):
            self._patch(runtime, attr, lambda fn, attr=attr: _span(
                rec, "serving", f"serving.{attr}", fn))

        # -- tuner: the run-history store and the mode picker.
        store = mod("repro.tuner.store").RunHistoryStore
        picker = mod("repro.tuner.picker").AutoModePicker
        self._patch(store, "__init__",
                    lambda fn: _span(rec, "tuner", "tuner.store_open", fn))
        self._patch(store, "runs",
                    lambda fn: _span(rec, "tuner", "tuner.store_read", fn))
        self._patch(store, "record",
                    lambda fn: _span(rec, "tuner", "tuner.store_write", fn))
        self._patch(picker, "decide",
                    lambda fn: _span(rec, "tuner", "tuner.decide", fn))
        self._patch(picker, "observe_record",
                    lambda fn: _span(rec, "tuner", "tuner.observe", fn))

        # -- telemetry: one span per scrape.
        scraper = mod("repro.telemetry.scraper").Scraper
        self._patch(scraper, "sample",
                    lambda fn: _span(rec, "telemetry", "telemetry.scrape", fn))

        # -- faults: one span per fault event fired.
        injector = mod("repro.faults.injector").FaultInjector
        self._patch(injector, "_fire",
                    lambda fn: _span(rec, "faults", "faults.fire", fn))

        # -- engine: the job runner, sort-and-spill, and the reduce merge.
        engine_runtime = mod("repro.engine.runtime")
        sortspill = mod("repro.engine.sortspill").SpillBuffer

        def job_done(_args: tuple, output: Any, _token: Any) -> None:
            sums = rec.sums
            sums["engine.map_wall_s"] += sum(output.map_elapsed_s)
            sums["engine.reduce_wall_s"] += sum(output.reduce_elapsed_s)
            counts["engine.spills"] += output.spill_files
            c = output.counters
            counts["engine.records"] += c.get("MAP_INPUT_RECORDS")
            counts["engine.combine_in"] += c.get("COMBINE_INPUT_RECORDS")
            counts["engine.combine_out"] += c.get("COMBINE_OUTPUT_RECORDS")

        self._patch(engine_runtime.LocalJobRunner, "run", lambda fn: _span(
            rec, "engine", "engine.run", fn, after=job_done))
        self._patch(sortspill, "_spill",
                    lambda fn: _span(rec, "engine", "engine.sortspill", fn))
        self._patch(sortspill, "finish",
                    lambda fn: _span(rec, "engine", "engine.sortspill", fn))

        def merge(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> _TimedIterator:
                return _TimedIterator(rec, "engine", "engine.merge",
                                      iter(fn(*args, **kwargs)))
            return wrapper

        self._patch(engine_runtime, "merge_sorted_streams", merge)

    def _resume_wrapper(self, fn: Callable) -> Callable:
        rec = self.rec
        stack = rec.stack
        ids = rec.ids
        code_layer = self._code_layer

        @functools.wraps(fn)
        def _resume(process: Any, event: Any) -> None:
            inner = process._generator
            while True:
                nested = getattr(inner, "gi_yieldfrom", None)
                if nested is None or not hasattr(nested, "gi_code"):
                    break
                inner = nested
            code = getattr(inner, "gi_code", None)
            where = code_layer.get(code)
            if where is None:
                layer = (layer_of_file(code.co_filename)
                         if code is not None else "other")
                name = f"{layer}.{code.co_name}" if code is not None else "other"
                where = code_layer[code] = (layer, name)
            rec.peak("simulation.peak_pending", len(process.env._queue))
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                fn(process, event)
            finally:
                end = perf_counter()
                stack.pop()
                rec.close(where[0], where[1], frame, start, end)

        return _resume


# -- per-layer metrics ---------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer values measured by the spans and counters of one unit."""
    c, s, inc, nself = rec.counts, rec.self_s, rec.name_incl_s, rec.name_self_s
    events = c["simulation.events"]
    sortspill = nself["engine.sortspill"]
    merge = nself["engine.merge"]
    return {
        "simulation.events": events,
        "simulation.self_s": s["simulation"],
        "simulation.ns_per_event": _ratio(s["simulation"] * 1e9, events),
        "simulation.peak_pending": rec.peaks["simulation.peak_pending"],
        "yarn.heartbeats": c["yarn.heartbeats"],
        "yarn.useful_heartbeat_frac": _ratio(c["yarn.useful_heartbeats"],
                                             c["yarn.heartbeats"]),
        # Heartbeat delivery: the wheel's fires, with the RM's handling.
        "yarn.heartbeat_s": inc["yarn.wheel_fire"],
        "yarn.fit_checks": c["yarn.fit_checks"],
        "yarn.am_queue_peak": rec.peaks["yarn.am_queue_peak"],
        "yarn.containers_granted": c["yarn.containers_granted"],
        "cluster.flows": c["cluster.flows"],
        "cluster.reallocations": c["cluster.reallocations"],
        "cluster.fabric_s": s["cluster"],
        "hdfs.files_created": c["hdfs.files_created"],
        "hdfs.files_deleted": c["hdfs.files_deleted"],
        "hdfs.blocks_placed": c["hdfs.blocks_placed"],
        "hdfs.namenode_s": s["hdfs"],
        "mapreduce.tasks": c["mapreduce.tasks"],
        "mapreduce.task_s": s["mapreduce"],
        "core.ampool_hit_frac": _ratio(c["core.ampool_hits"],
                                       c["core.ampool_gets"]),
        "core.dplus_local_frac": _ratio(c["core.dplus_local"],
                                        c["core.dplus_grants"]),
        "core.submit_s": s["core"],
        "experiments.cluster_builds": rec.calls["experiments.cluster_build"],
        "experiments.build_s": inc["experiments.cluster_build"],
        "serving.admission_s": s["serving"],
        "tuner.store_reads": rec.calls["tuner.store_read"],
        "tuner.store_writes": rec.calls["tuner.store_write"],
        "tuner.store_s": sum(nself[k] for k in (
            "tuner.store_open", "tuner.store_read", "tuner.store_write")),
        "tuner.decide_s": inc["tuner.decide"],
        "telemetry.scrapes": rec.calls["telemetry.scrape"],
        "telemetry.scrape_s": s["telemetry"],
        "faults.injected": rec.calls["faults.fire"],
        "engine.map_s": max(0.0, rec.sums["engine.map_wall_s"] - sortspill),
        "engine.sortspill_s": sortspill,
        "engine.merge_s": merge,
        "engine.reduce_s": max(0.0, rec.sums["engine.reduce_wall_s"] - merge),
        "engine.spills": c["engine.spills"],
        "engine.records": c["engine.records"],
        "engine.combine_ratio": _ratio(c["engine.combine_out"],
                                       c["engine.combine_in"]),
        "trace.spans": len(rec.spans) + rec.spans_dropped,
    }


def write_trace(rec: Recorder, path: str, name: str) -> None:
    """Write the recorded spans as Chrome trace-event JSON (Perfetto)."""
    origin = min((span[4] for span in rec.spans), default=0.0)
    tids = {layer: i for i, layer in enumerate(LAYERS + ("bench", "other"), 1)}
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": layer}}
        for layer, tid in tids.items()
    ]
    for span_id, parent, layer, span_name, start, end in rec.spans:
        events.append({
            "name": span_name, "cat": layer, "ph": "X", "pid": 1,
            "tid": tids.get(layer, 0),
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"id": span_id, "parent": parent},
        })
    payload = {"traceEvents": events, "otherData": {
        "name": name, "spans_dropped": rec.spans_dropped}}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f)
