"""Seeded-defect self-tests: each correctness gate counts a planted defect.

Run from the repository root::

    python3 -m pytest perfbench -q

Each test first shows the gate passing on the program's real output, then
plants one defect and shows the gate failing: a corrupted WordCount count,
a replay that drops one job, and a perturbed figure cell.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402


def test_corrupted_wordcount_count_is_caught():
    from repro.workloads import generate_files, run_wordcount
    from repro.workloads.wordcount import reference_wordcount

    files = generate_files(2, 0.02, seed=3)
    counts = run_wordcount(files, sort_buffer_bytes=4096).as_dict()
    expected = reference_wordcount(files)
    assert gates.check_wordcount(counts, expected) == []

    word = sorted(counts)[0]
    corrupted = dict(counts, **{word: counts[word] + 1})
    assert gates.check_wordcount(corrupted, expected)


def test_replay_dropping_one_job_is_caught():
    from repro.config import a3_cluster
    from repro.trace import (build_trace_cluster, default_short_job_mix,
                             poisson_trace, replay_load)

    spec = a3_cluster(4)
    trace = poisson_trace(default_short_job_mix(), 60.0, 40.0, seed=3)
    full = replay_load(build_trace_cluster(spec), trace).to_dict()
    assert gates.check_replay(full, len(trace), None) == []
    assert gates.check_replay(full, len(trace), full) == []

    dropped = replay_load(build_trace_cluster(spec), trace[1:]).to_dict()
    assert gates.check_replay(dropped, len(trace), None)
    assert gates.check_replay(dropped, len(trace), full)


def test_perturbed_figure_cell_is_caught():
    from repro.experiments.figures import figure7

    with open(suite.SNAPSHOT) as f:
        snapshot = json.load(f)
    figure = figure7()
    table = {"figure7": figure.render_table()}
    series = gates.figure_series(figure)
    assert gates.check_snapshot(figure.figure_id, series, snapshot) == []
    assert gates.check_tables(table, table) == []

    name = sorted(series)[0]
    series[name]["y"][2] += 0.1
    figure.series[name].y[2] += 0.1
    assert gates.check_snapshot(figure.figure_id, series, snapshot)
    assert gates.check_tables({"figure7": figure.render_table()}, table)


def test_tracing_changes_no_simulated_result(tmp_path):
    workload = suite.Replay()
    workload.jobs = 60
    workload.setup(2, tmp_path)
    workload.make_inputs()
    plain = run.run_unit(workload)
    with spans.LayerTracer() as rec:
        traced = run.run_unit(workload)
    assert plain.failures == traced.failures == []
    assert gates.check_neutral({"digest": plain.digest, **plain.model},
                               {"digest": traced.digest, **traced.model}) == []
    metrics = spans.layer_metrics(rec)
    assert metrics["yarn.heartbeats"] > 0
    assert metrics["hdfs.files_created"] == metrics["hdfs.files_deleted"] > 0
    # The wrappers are gone once the traced unit ends.
    from repro.yarn.resourcemanager import ResourceManager
    assert not hasattr(ResourceManager.node_heartbeat, "__wrapped__")


def test_benchmark_json_matches_the_metrics_reported():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(suite.WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: cls.why for name, cls in suite.WORKLOADS.items()}
