"""The repo benchmark: end-to-end host-time metrics, and a traced per-layer run.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

or every workload in turn (``--workload all``). Workloads: ``figures``,
``replay``, ``serving``, ``scale_10k`` and ``engine`` (see ``suite.py``).

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``     — imports plus the workload's set-up (cluster build,
  slowdown baselines, history-store open), cold: the median over this
  process and four fresh interpreters;
* ``unit_s``      — host seconds per unit of work (for ``figures`` one
  serial sweep, the "sweep_s" of the ledger), median over the run;
* ``jobs_per_s``  — jobs finished per host second over all timed units,
  counting every outcome;
* ``peak_rss_mb`` — peak RSS of this process.

Host times are scaled to a nominal host speed measured by the reference
loop in ``hostref.py``, which runs between units; the unscaled unit time
and the host's reference time are printed beside them.

Workload-specific metrics (point latency percentiles, engine MB/s) and the
``error_rate`` are printed by name with their units above the result line.

``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of ``spans.py``, the simulated-time ``model.*`` values
and the tracing overhead. The traced and untraced units must produce
identical outputs. Spans are written to ``perfbench/out/``.

Every unit is checked by the gates in ``gates.py``; a unit that fails one
counts in ``failed``. The first unit of each process is a warm-up that is
gated but not timed. The last line of standard output is the result, as
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import gates
import hostref
import spans
import suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END = {"setup_s": "s", "unit_s": "s", "jobs_per_s": "1/s",
              "peak_rss_mb": "MB"}

#: Per-layer metrics of the traced run, with their units.
PER_LAYER = {
    "simulation.events": "count", "simulation.self_s": "s",
    "simulation.ns_per_event": "ns", "simulation.peak_pending": "count",
    "yarn.heartbeats": "count", "yarn.useful_heartbeat_frac": "frac",
    "yarn.heartbeat_s": "s", "yarn.fit_checks": "count",
    "yarn.am_queue_peak": "count", "yarn.containers_granted": "count",
    "cluster.flows": "count", "cluster.reallocations": "count",
    "cluster.fabric_s": "s",
    "hdfs.files_created": "count", "hdfs.files_deleted": "count",
    "hdfs.blocks_placed": "count", "hdfs.namenode_s": "s",
    "mapreduce.tasks": "count", "mapreduce.task_s": "s",
    "core.ampool_hit_frac": "frac", "core.dplus_local_frac": "frac",
    "core.submit_s": "s",
    "experiments.cluster_builds": "count", "experiments.build_s": "s",
    "serving.admitted": "count", "serving.rejected": "count",
    "serving.shed": "count", "serving.retries": "count",
    "serving.scale_ups": "count", "serving.admission_s": "s",
    "tuner.store_reads": "count", "tuner.store_writes": "count",
    "tuner.store_s": "s", "tuner.decide_s": "s", "tuner.learned_frac": "frac",
    "telemetry.scrapes": "count", "telemetry.scrape_s": "s",
    "faults.injected": "count", "faults.jobs_failed": "count",
    "engine.map_s": "s", "engine.sortspill_s": "s", "engine.merge_s": "s",
    "engine.reduce_s": "s", "engine.spills": "count",
    "engine.records": "count", "engine.combine_ratio": "frac",
    "model.sim_sojourn_p50_s": "s", "model.sim_sojourn_p99_s": "s",
    "model.sim_makespan_s": "s", "model.slo_attainment": "frac",
    "model.paper_claims_held": "count",
    "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_frac": "frac",
}

#: Fresh interpreters that repeat the cold set-up for ``setup_s``.
SETUP_PROBES = 4
#: Host reference samples taken before each unit and after the last.
REF_SAMPLES = 2
#: Timed units per run at the least, however short ``--seconds`` is.
MIN_UNITS = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="perfbench", description="Run one benchmark workload "
        "(or all of them) and print its metrics; the last line is JSON.")
    p.add_argument("--workload", required=True,
                   help="figures, replay, serving, scale_10k, engine or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the timed units run (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    # Internal: time one cold set-up in this fresh process and print it.
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- environment fingerprint ---------------------------------------------------

def fingerprint() -> dict[str, Any]:
    """What a result was measured on, so trajectory points compare like
    with like: commit (when the tree is a git checkout), a digest of the
    program source, CPUs available, Python version and CPU model."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_sha": sha, "src_sha256": source.hexdigest()[:16],
            "nproc": nproc, "python": platform.python_version(), "cpu": cpu}


# -- measurement -----------------------------------------------------------------

def timed_setup(workload: Any, seed: int, workdir: Path) -> float:
    start = perf_counter()
    workload.setup(seed, workdir)
    return perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """One cold set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_unit(workload: Any) -> Any:
    gc.collect()  # one unit's garbage is not collected on the next one's clock
    prepared = workload.prepare()
    start = perf_counter()
    try:
        raw = workload.run(prepared)
    except Exception as exc:
        # The program crashed on this input: a failed operation that
        # finished no jobs. The run goes on, so the result still shows it.
        error = traceback.format_exception_only(exc)[-1].strip()
        return suite.Unit(seconds=perf_counter() - start, jobs=0,
                          digest=f"crashed: {error}",
                          model=dict.fromkeys(suite.MODEL_KEYS, 0.0),
                          failures=[f"{workload.name} crashed: {error}"])
    seconds = perf_counter() - start
    del prepared
    return workload.finish(raw, seconds)


def measure(workload: Any, args: argparse.Namespace, workdir: Path) -> dict:
    """Untraced run: the end-to-end metrics.

    The host reference loop runs between units (``hostref.py``); every time
    is scaled by ``NOMINAL_S / mean(reference samples)`` so that host drift
    between runs divides out.
    """
    hostref.sample()  # warm the reference loop's bytecode
    refs = [hostref.sample()]
    setups = [timed_setup(workload, args.seed, workdir)]
    setups += [probe_setup(args.workload, args.seed)
               for _ in range(SETUP_PROBES)]
    workload.make_inputs()
    warmup = run_unit(workload)
    units = []
    deadline = perf_counter() + args.seconds
    while len(units) < MIN_UNITS or perf_counter() < deadline:
        refs += [hostref.sample() for _ in range(REF_SAMPLES)]
        units.append(run_unit(workload))
    refs += [hostref.sample() for _ in range(REF_SAMPLES)]
    host = statistics.mean(refs)
    scale = hostref.NOMINAL_S / host
    seconds = [u.seconds for u in units]
    metrics = {
        "setup_s": statistics.median(setups) * scale,
        "unit_s": statistics.median(seconds) * scale,
        "jobs_per_s": sum(u.jobs for u in units) / (sum(seconds) * scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups",
        "unit_s": f"median of {len(units)} units",
        "jobs_per_s": f"{units[0].jobs} jobs per unit",
        "peak_rss_mb": "this process",
    }
    named = [("host_reference_ms", host * 1e3, "ms",
              f"mean of {len(refs)} samples; times above are scaled by "
              f"{scale:.4f} to the nominal {hostref.NOMINAL_S * 1e3:g} ms"),
             ("unit_unscaled_s", statistics.median(seconds), "s",
              "median unit time as measured on this host")]
    return {"metrics": metrics, "notes": notes, "units": [warmup] + units,
            "named": workload.named_metrics(units, scale) + named}


def measure_traced(workload: Any, args: argparse.Namespace, workdir: Path) -> dict:
    """Traced run: untraced and traced units alternate; per-layer metrics,
    model values, and the tracing overhead."""
    workload.setup(args.seed, workdir)
    workload.make_inputs()
    units = [run_unit(workload)]  # warm-up
    pairs = []
    deadline = perf_counter() + args.seconds
    while not pairs or perf_counter() < deadline:
        plain = run_unit(workload)
        with spans.LayerTracer() as rec:
            traced = run_unit(workload)
        traced.failures += gates.check_neutral(
            {"digest": plain.digest, **plain.model, **plain.layer},
            {"digest": traced.digest, **traced.model, **traced.layer})
        units += [plain, traced]
        pairs.append((plain, traced, rec))

    per_pair = [{**spans.layer_metrics(rec),
                 **dict.fromkeys(suite.REPORTED_LAYER_KEYS, 0),
                 **traced.layer, **traced.model}
                for _, traced, rec in pairs]
    metrics: dict[str, float] = {}
    for key in PER_LAYER:
        if key.startswith("trace.overhead"):
            continue
        values = [pair[key] for pair in per_pair]
        if all(isinstance(v, int) for v in values):
            # Counts are exact: the simulator is deterministic.
            if len(set(values)) > 1:
                units[-1].failures.append(
                    f"{key} differs between traced units: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    plain_s = statistics.median(p.seconds for p, _, _ in pairs)
    traced_s = statistics.median(t.seconds for _, t, _ in pairs)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    spans.write_trace(pairs[0][2], str(trace_path), args.workload)
    notes = {"trace.overhead_s": f"median traced {traced_s:.4f} s - untraced "
             f"{plain_s:.4f} s per unit, {len(pairs)} pairs",
             "trace.spans": f"written to {trace_path.relative_to(ROOT)}"}
    return {"metrics": metrics, "notes": notes, "units": units, "named": []}


# -- reporting -------------------------------------------------------------------

def report(args: argparse.Namespace, workload: Any, outcome: dict,
           env: dict) -> dict:
    units = outcome["units"]
    failed = sum(1 for u in units if u.failures)
    units_table = END_TO_END if not args.trace else PER_LAYER
    print(f"perfbench {args.workload}: seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("  environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  unit of work: {workload.unit_text}")
    rows = [(name, outcome["metrics"][name], units_table[name],
             outcome["notes"].get(name, "")) for name in units_table]
    rows += outcome["named"]
    rows.append(("error_rate", failed / len(units), "frac",
                 f"{failed} of {len(units)} units failed a gate"))
    for name, value, unit, note in rows:
        print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")
    failures = list(dict.fromkeys(f for unit in units for f in unit.failures))
    for failure in failures[:5]:
        print(f"  GATE FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": outcome["metrics"][name],
                           "unit": units_table[name]} for name in units_table},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result,
              "named": {name: {"value": value, "unit": unit, "note": note}
                        for name, value, unit, note in rows}}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(record, f, indent=1)
    return result


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one fresh process each, then a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in suite.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"perfbench {name}: exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program source {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; use one of "
              f"{', '.join(suite.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    # Temporary files the program makes (engine spills) stay in the checkout.
    tempfile.tempdir = str(workdir)
    try:
        if args.setup_probe:
            print(repr(timed_setup(workload, args.seed, workdir)))
            return 0
        env = fingerprint()
        outcome = (measure_traced if args.trace else measure)(
            workload, args, workdir)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(args, workload, outcome, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
