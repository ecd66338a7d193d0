"""Correctness gates: every unit of work the benchmark times is checked.

Each gate is a pure function of the program's outputs that returns a list
of failure messages (empty = pass). A unit with any failure counts toward
the run's ``failed`` total and its ``error_rate``. ``test_gates.py`` plants
a defect in front of each gate to show that it catches one.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence

#: Absolute tolerance of the figure snapshot, as in the figure regression
#: tests that own the snapshot file.
SNAPSHOT_ABS_TOL = 1e-5


def figure_series(result: Any) -> dict[str, dict[str, list]]:
    """``{series: {"x": [...], "y": [...]}}`` of a FigureResult."""
    return {name: {"x": list(s.x), "y": list(s.y)}
            for name, s in result.series.items()}


def check_snapshot(figure_id: str, series: Mapping[str, Mapping[str, Sequence]],
                   snapshot: Mapping[str, Any]) -> list[str]:
    """The figure's series equal the committed snapshot."""
    expected = snapshot.get(figure_id)
    if expected is None:
        return [f"{figure_id}: not in the snapshot"]
    if set(series) != set(expected):
        return [f"{figure_id}: series {sorted(series)} != {sorted(expected)}"]
    failures = []
    for name, got in series.items():
        want = expected[name]
        if [str(x) for x in got["x"]] != [str(x) for x in want["x"]]:
            failures.append(f"{figure_id}/{name}: x-axis changed")
            continue
        if len(got["y"]) != len(want["y"]):
            failures.append(f"{figure_id}/{name}: {len(got['y'])} points, "
                            f"snapshot has {len(want['y'])}")
            continue
        for x, g, w in zip(got["x"], got["y"], want["y"]):
            if not math.isclose(g, w, rel_tol=0.0, abs_tol=SNAPSHOT_ABS_TOL):
                failures.append(f"{figure_id}/{name} at {x}: {g} != {w}")
    return failures


def check_tables(tables: Mapping[str, str],
                 reference: Optional[Mapping[str, str]]) -> list[str]:
    """Every repeat renders byte-identical tables."""
    if reference is None:
        return []
    if set(tables) != set(reference):
        return [f"figure set {sorted(tables)} != {sorted(reference)}"]
    return [f"{name}: rendered table differs from the first sweep"
            for name in sorted(tables) if tables[name] != reference[name]]


def replay_outcomes(report: Mapping[str, Any]) -> int:
    """Jobs accounted for by a LoadReport dict: successes (each one sampled
    into the sojourn summary), killed, failed, rejected and shed."""
    slo = report.get("slo", {})
    return (int(report["sojourn"]["count"]) + report["killed"] + report["failed"]
            + slo.get("rejected", 0) + slo.get("shed", 0))


def check_replay(report: Mapping[str, Any], jobs: int,
                 reference: Optional[Mapping[str, Any]]) -> list[str]:
    """Outcomes sum to the jobs offered; repeats give identical reports."""
    failures = []
    if report["jobs_submitted"] != jobs:
        failures.append(f"jobs_submitted {report['jobs_submitted']} != {jobs} "
                        "trace jobs")
    if report["jobs_completed"] != jobs:
        failures.append(f"jobs_completed {report['jobs_completed']} != {jobs}")
    accounted = replay_outcomes(report)
    if accounted != jobs:
        failures.append(f"outcomes sum to {accounted}, not {jobs}")
    if reference is not None and report != reference:
        failures.append("LoadReport differs from the first repeat")
    return failures


def check_scale(submitted: int, finished: int, jobs: int, digest: str,
                reference: Optional[str]) -> list[str]:
    """Every uber job submitted finishes; repeats finish identically."""
    failures = []
    if submitted != jobs:
        failures.append(f"submitted {submitted} of {jobs} jobs")
    if finished != submitted:
        failures.append(f"finished {finished} of {submitted} submitted jobs")
    if reference is not None and digest != reference:
        failures.append("job completions differ from the first repeat")
    return failures


def check_wordcount(counts: Mapping[str, int],
                    reference: Mapping[str, int]) -> list[str]:
    """WordCount output equals the independent reference count."""
    if counts == reference:
        return []
    missing = sorted(set(reference) - set(counts))[:3]
    extra = sorted(set(counts) - set(reference))[:3]
    wrong = sorted(w for w in set(counts) & set(reference)
                   if counts[w] != reference[w])[:3]
    return [f"wordcount differs: missing {missing}, extra {extra}, "
            f"wrong counts {wrong}"]


def check_terasort(validated: tuple[bool, int], rows: int) -> list[str]:
    """TeraValidate: globally sorted, and every row present."""
    is_sorted, total = validated
    failures = []
    if not is_sorted:
        failures.append("terasort output is not globally sorted")
    if total != rows:
        failures.append(f"terasort output has {total} rows, input had {rows}")
    return failures


def check_neutral(untraced: Mapping[str, Any], traced: Mapping[str, Any]
                  ) -> list[str]:
    """Tracing changes no simulated result: same digest, same model values."""
    return [f"traced {key} = {traced.get(key)!r}, untraced = {value!r}"
            for key, value in untraced.items() if traced.get(key) != value]
