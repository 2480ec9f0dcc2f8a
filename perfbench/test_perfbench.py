"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import possinfo as pi  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_percentile_leaves_ten_samples_beyond_p90_from_100_calls():
    samples = list(range(1, 101))
    value, beyond = run.percentile(samples, 90)
    assert value == 90
    assert beyond == 10
    assert sum(1 for s in samples if s > value) == 10


def test_percentile_reports_fewer_than_ten_beyond_for_short_runs():
    value, beyond = run.percentile(list(range(1, 100)), 90)
    assert value == 90
    assert beyond == 9


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # two warnings, one raised in a itself and one in c
    tree = [
        ["call.x", 0.0, 10.0, -1, 0, 0, 2, None],
        ["m.a", 1.0, 4.0, 0, 0, 0, 2, None],
        ["m.c", 2.0, 3.0, 1, 0, 0, 1, None],
        ["m.b", 5.0, 9.0, 0, 0, 2, 2, None],
    ]
    self_s, self_w = spans.self_times(tree)
    assert self_s == [3.0, 2.0, 1.0, 4.0]
    assert self_w == [0, 1, 1, 0]


def test_tracer_nests_spans_of_wrapped_library_calls():
    tracer = spans.Tracer()
    f = pi.sample_function(lambda x: 1.0 - x, 50)
    rec = tracer.root("info", 0)
    tracer.install()
    try:
        value = pi.info(f)
    finally:
        tracer.uninstall()
        tracer.close(rec)
    assert abs(value - 1.0) < 1e-12
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[:4] == ["call.info", "continuous.info", "continuous.level_measure", "continuous.rearrange"]
    parents = {s[spans.NAME]: s[spans.PARENT] for s in tracer.spans}
    assert parents["continuous.level_measure"] == names.index("continuous.info")
    assert pi.info.__name__ == "info" and not hasattr(pi.info, "__wrapped__")


def test_scaling_cancels_a_slow_spell_and_keeps_a_slower_call():
    # calls 0-3 run at full speed, calls 4-7 in a spell at half speed: both
    # the calls and the kernel after them take twice as long
    starts = [10.0 * i for i in range(8)]
    kernel_s = [1e-3] * 4 + [2e-3] * 4
    seconds = [0.1] * 4 + [0.2] * 4
    scaled = speed.scaled_ms(starts, seconds, kernel_s)
    assert scaled == pytest.approx([100.0 * speed.REFERENCE_MS] * 8)
    # a call that is itself twice as slow still reads twice as slow
    seconds[5] = 0.4
    assert speed.scaled_ms(starts, seconds, kernel_s)[5] == pytest.approx(200.0 * speed.REFERENCE_MS)


def test_local_kernel_time_is_the_median_over_the_window():
    starts = [0.0, 0.5, 1.0, 5.0]
    local = speed.local_kernel_s(starts, [1.0, 9.0, 2.0, 4.0])
    assert local == [2.0, 2.0, 2.0, 4.0]


def test_block_rates_use_each_block_its_own_calls():
    assert run.block_rates([2, 3], [250.0, 250.0, 100.0, 100.0, 300.0]) == pytest.approx([4.0, 6.0])


def test_level_sizes_counts_pieces_and_incidences():
    import numpy as np

    # a tent: two monotone segments over the same values, one piece each side of 1
    pieces, incidences = spans.level_sizes(np.array([0.0, 1.0, 0.0]))
    assert (pieces, incidences) == (1, 2)
    pieces, incidences = spans.level_sizes(np.array([0.0, 0.5, 1.0, 1.0]))
    assert (pieces, incidences) == (2, 2)


def _workload_of(calls):
    return workloads.Workload([calls], [], trace_blocks=1)


def test_injected_wrong_answer_is_counted_as_failed():
    good = workloads._info_call("pow", 2, 1_000)
    wrong = workloads.Call("info", lambda g: pi.info(g) + 1e-3, good.args, good.check)
    loop = run.Loop(_workload_of([good, wrong]))
    loop.run_block(0)
    reasons = run.check_results(loop.workload, loop.first)
    assert list(reasons) == [(0, 1)]
    assert run.count_failed(loop.records, reasons) == 1


def test_raised_error_and_nondeterminism_are_counted_as_failed():
    state = {"n": 0}

    def drifting():
        state["n"] += 1
        return float(state["n"])

    def raising():
        raise ValueError("boom")

    calls = [
        workloads.Call("drift", drifting, (), lambda v: None),
        workloads.Call("raise", raising, (), lambda v: None),
    ]
    loop = run.Loop(_workload_of(calls))
    loop.run_block(0)
    loop.run_block(0)
    reasons = run.check_results(loop.workload, loop.first)
    assert set(reasons) == {(0, 1)}
    # both runs of the raising call, and the second, different result of the drifting one
    assert run.count_failed(loop.records, reasons) == 3


def test_closed_form_references():
    assert workloads.half_cin_pi() == pytest.approx(0.8241388193522539, abs=1e-15)
    f = pi.PiecewisePossibility([(0.0, 1.0), (1.0, 0.0)])
    assert workloads.info_of_descending(f) == pytest.approx(1.0, abs=1e-15)
    n = 1_000
    assert workloads.u_layer_cake(workloads.grid_samples(f, n)) == pytest.approx(
        pi.u_uncertainty(pi.discretize(f, n)), abs=workloads.sampling_tol(n)
    )


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    tracer = spans.Tracer()
    reported = set(spans.layer_metrics(tracer.spans)) | set(run.source_lines())
    reported |= {"cli.import_ms", "continuous.product_defect_probes", "trace.overhead_ratio"}
    assert per_layer == reported
