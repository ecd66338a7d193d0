"""Tests for the real benchmark workloads and their generators."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    ROW_BYTES,
    TERASORT_PROFILE,
    WORDCOUNT_PROFILE,
    count_inside,
    estimate_pi,
    generate_files,
    generate_text,
    halton,
    halton_points,
    make_vocabulary,
    pi_profile,
    reference_wordcount,
    rows_to_mb,
    run_pi,
    run_terasort,
    run_wordcount,
    sample_keys,
    teragen,
    teravalidate,
    zipf_weights,
)
from repro.workloads.pi import estimate_from_output


# -- text generator -------------------------------------------------------------

def test_generated_text_approx_size():
    text = generate_text(0.1, seed=1)
    assert 0.09 <= len(text) / (1024 * 1024) <= 0.15


def test_generated_text_deterministic():
    assert generate_text(0.02, seed=9) == generate_text(0.02, seed=9)
    assert generate_text(0.02, seed=9) != generate_text(0.02, seed=10)


def test_vocabulary_unique_and_sized():
    vocab = make_vocabulary(500)
    assert len(vocab) == len(set(vocab)) == 500


def test_zipf_weights_normalized_and_decreasing():
    w = zipf_weights(100)
    assert w.sum() == pytest.approx(1.0)
    assert all(a >= b for a, b in zip(w, w[1:]))


def test_generate_files_independent_seeds():
    files = generate_files(3, 0.01)
    contents = {c for _n, c in files}
    assert len(contents) == 3


def test_text_is_heavy_tailed():
    """Zipf text: the most common word dominates (combiner-friendly)."""
    counts = reference_wordcount([("f", generate_text(0.05, seed=5))])
    top = max(counts.values())
    assert top > 10 * (sum(counts.values()) / len(counts))


def test_generate_text_rejects_nonpositive():
    with pytest.raises(ValueError):
        generate_text(0)


# -- wordcount ----------------------------------------------------------------------

def test_wordcount_matches_reference_on_corpus():
    files = generate_files(3, 0.02, seed=7)
    out = run_wordcount(files, parallel_maps=3)
    assert out.as_dict() == reference_wordcount(files)


def test_wordcount_total_tokens_preserved():
    files = generate_files(2, 0.02, seed=11)
    out = run_wordcount(files)
    total_emitted = sum(out.as_dict().values())
    assert total_emitted == sum(reference_wordcount(files).values())


def test_wordcount_combiner_reduces_intermediate_records():
    from repro.engine.types import REDUCE_INPUT_RECORDS

    files = generate_files(1, 0.02, seed=3)
    with_c = run_wordcount(files, use_combiner=True)
    without = run_wordcount(files, use_combiner=False)
    assert (with_c.counters.get(REDUCE_INPUT_RECORDS)
            < without.counters.get(REDUCE_INPUT_RECORDS))
    assert with_c.as_dict() == without.as_dict()


# -- terasort --------------------------------------------------------------------------

def test_teragen_row_format():
    (rows,) = teragen(10, seed=1)
    assert len(rows) == 10
    for key, value in rows:
        assert len(key) == 10
        assert len(key) + len(value) == ROW_BYTES
        assert all(32 <= b < 127 for b in key)


def test_teragen_deterministic():
    assert teragen(100, seed=5) == teragen(100, seed=5)
    assert teragen(100, seed=5) != teragen(100, seed=6)


def test_teragen_splits_rows_across_files():
    files = teragen(100, num_files=4)
    assert len(files) == 4
    assert sum(len(f) for f in files) == 100
    assert all(len(f) == 25 for f in files)


def test_teragen_zero_rows():
    files = teragen(0, num_files=2)
    assert sum(len(f) for f in files) == 0


def test_terasort_produces_global_order():
    files = teragen(3000, seed=2, num_files=3)
    out = run_terasort(files, num_reduces=4)
    ok, total = teravalidate(out)
    assert ok and total == 3000


def test_terasort_single_reducer():
    files = teragen(500, seed=8)
    out = run_terasort(files, num_reduces=1)
    ok, total = teravalidate(out)
    assert ok and total == 500


def test_terasort_preserves_values():
    files = teragen(200, seed=4)
    out = run_terasort(files, num_reduces=2)
    values = sorted(v for _k, v in out.results())
    expected = sorted(v for f in files for _k, v in f)
    assert values == expected


def test_sampler_returns_real_keys():
    files = teragen(1000, seed=9, num_files=2)
    keys = sample_keys(files, sample_size=50)
    universe = {k for f in files for k, _v in f}
    assert keys and all(k in universe for k in keys)


def test_teravalidate_detects_disorder():
    from repro.engine.types import Counters
    from repro.engine import JobOutput

    bad = JobOutput("x", [[(b"b", b""), (b"a", b"")]], Counters(), 0.0)
    ok, _ = teravalidate(bad)
    assert not ok


def test_rows_to_mb():
    assert rows_to_mb(1_000_000) == pytest.approx(95.37, abs=0.1)


@given(st.integers(1, 2000), st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_property_terasort_always_sorted(num_rows, num_files, num_reduces):
    files = teragen(num_rows, seed=num_rows, num_files=num_files)
    out = run_terasort(files, num_reduces=num_reduces, sample_size=100)
    ok, total = teravalidate(out)
    assert ok and total == num_rows


# -- pi ----------------------------------------------------------------------------------

def test_halton_first_elements_base2():
    assert halton(1, 2) == pytest.approx(0.5)
    assert halton(2, 2) == pytest.approx(0.25)
    assert halton(3, 2) == pytest.approx(0.75)


def test_halton_points_match_scalar():
    pts = halton_points(5, 10)
    for i in range(10):
        assert pts[i, 0] == pytest.approx(halton(6 + i, 2))
        assert pts[i, 1] == pytest.approx(halton(6 + i, 3))


def test_halton_points_in_unit_square():
    pts = halton_points(0, 1000)
    assert (pts >= 0).all() and (pts < 1).all()


def test_count_inside_disjoint_offsets_partition_sequence():
    whole = count_inside(0, 1000)
    first = count_inside(0, 500)
    second = count_inside(500, 500)
    assert whole[0] == first[0] + second[0]


def test_pi_estimate_converges():
    assert abs(estimate_pi(4, 50_000) - math.pi) < 5e-3


def test_pi_more_samples_no_worse():
    rough = abs(estimate_pi(2, 1_000) - math.pi)
    fine = abs(estimate_pi(2, 100_000) - math.pi)
    assert fine <= rough + 1e-3


def test_pi_parallel_matches_serial():
    serial = run_pi(4, 10_000, parallel_maps=1)
    parallel = run_pi(4, 10_000, parallel_maps=4)
    assert serial.as_dict() == parallel.as_dict()


def test_pi_zero_samples_rejected():
    out = run_pi(2, 0)
    with pytest.raises(ValueError):
        estimate_from_output(out)


def test_halton_index_validation():
    with pytest.raises(ValueError):
        halton(0, 2)


# -- profiles --------------------------------------------------------------------------------

def test_wordcount_profile_shape():
    assert WORDCOUNT_PROFILE.map_output_ratio < 1.0          # combiner shrinks
    assert WORDCOUNT_PROFILE.map_raw_output_ratio > 1.0      # raw inflates
    assert WORDCOUNT_PROFILE.map_cpu_s(10.0) == pytest.approx(6.0)


def test_terasort_profile_identity():
    assert TERASORT_PROFILE.map_output_ratio == 1.0
    assert TERASORT_PROFILE.reduce_output_ratio == 1.0


def test_pi_profile_scales_with_samples():
    p1 = pi_profile(100e6, num_maps=4)
    p2 = pi_profile(200e6, num_maps=4)
    assert p2.map_cpu_s(0.0) == pytest.approx(2 * p1.map_cpu_s(0.0))
    assert p1.map_output_mb(123.0) == p1.map_output_fixed_mb  # input-independent


# -- grep --------------------------------------------------------------------------------

def test_grep_matches_reference():
    from repro.workloads import generate_files, reference_grep, run_grep

    files = generate_files(2, 0.02, seed=17)
    out = run_grep(files, r"ba[a-z]+", parallel_maps=2)
    assert out.results() == reference_grep(files, r"ba[a-z]+")


def test_grep_sorted_by_frequency_descending():
    from repro.workloads import generate_files, run_grep

    files = generate_files(1, 0.02, seed=23)
    out = run_grep(files, r"[a-z]{4}")
    counts = [count for _match, count in out.results()]
    assert counts == sorted(counts, reverse=True)
    assert counts  # something matched


def test_grep_no_matches_empty_output():
    from repro.workloads import run_grep

    out = run_grep([("f", "aaa bbb")], r"zzz+")
    assert out.results() == []


def test_grep_literal_pattern():
    from repro.workloads import run_grep

    files = [("f", "cat dog cat\nbird cat")]
    out = run_grep(files, r"cat")
    assert out.results() == [("cat", 3)]


def test_grep_profile_is_scan_heavy():
    from repro.workloads import GREP_PROFILE

    assert GREP_PROFILE.map_output_ratio < 0.1        # tiny intermediate
    assert GREP_PROFILE.map_cpu_s_per_mb > 0.1        # real scanning cost


# -- profile invariants (property-based) ----------------------------------------------

@given(st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(0.0, 200.0))
@settings(max_examples=40)
def test_property_profile_costs_scale_linearly(cpu_per_mb, ratio, mb):
    from repro.workloads import WorkloadProfile

    profile = WorkloadProfile("p", map_cpu_s_per_mb=cpu_per_mb,
                              map_output_ratio=ratio)
    assert profile.map_cpu_s(mb) == pytest.approx(cpu_per_mb * mb)
    assert profile.map_output_mb(mb) == pytest.approx(ratio * mb)
    assert profile.map_cpu_s(2 * mb) == pytest.approx(2 * profile.map_cpu_s(mb))


@given(st.floats(0.0, 0.5), st.text(min_size=1, max_size=30))
@settings(max_examples=40)
def test_property_skew_bounded_and_deterministic(skew, key):
    from repro.workloads import WorkloadProfile
    from repro.workloads.base import task_skew_factor

    profile = WorkloadProfile("p", map_cpu_s_per_mb=0.1, compute_skew=skew)
    factor = task_skew_factor(profile, key)
    assert 1 - skew - 1e-9 <= factor <= 1 + skew + 1e-9
    assert factor == task_skew_factor(profile, key)


@given(st.floats(0.0, 1.0))
@settings(max_examples=30)
def test_property_failure_rate_respected_in_aggregate(rate):
    from repro.workloads import WorkloadProfile
    from repro.workloads.base import attempt_fails

    profile = WorkloadProfile("p", map_cpu_s_per_mb=0.1,
                              transient_failure_rate=rate)
    draws = [attempt_fails(profile, f"key-{i}") for i in range(400)]
    observed = sum(draws) / len(draws)
    assert abs(observed - rate) < 0.12  # md5 draw ~ uniform


def test_profile_with_override_keeps_other_fields():
    from repro.workloads import WORDCOUNT_PROFILE

    tweaked = WORDCOUNT_PROFILE.with_(map_cpu_s_per_mb=9.9)
    assert tweaked.map_cpu_s_per_mb == 9.9
    assert tweaked.map_output_ratio == WORDCOUNT_PROFILE.map_output_ratio
    assert tweaked.name == WORDCOUNT_PROFILE.name
