"""Tests of the benchmark's own logic: span arithmetic, metric helpers, the
correctness gate and workload validation.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from measure import (  # noqa: E402
    at_reference, commit_rate, judge, layer_metrics, longest_gap,
    tx_outcomes,
)
from spans import SpanTable, wrap  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fake_clock(*ticks):
    """A clock returning ``ticks`` in order."""
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_children_at_every_depth():
    # root [0, 100) holds a [10, 40) which holds b [20, 30); c is [50, 60).
    table = SpanTable(clock=fake_clock(0, 10, 20, 30, 40, 50, 60, 100))
    root = table.open("root")
    a = table.open("a")
    b = table.open("b")
    table.close(b)
    table.close(a)
    c = table.open("c")
    table.close(c)
    table.close(root)
    assert table.rows[("root", None)] == [1, 100, 100 - 30 - 10]
    assert table.rows[("a", "root")] == [1, 30, 20]
    assert table.rows[("b", "a")] == [1, 10, 10]
    assert table.rows[("c", "root")] == [1, 10, 10]
    # Self times partition the root's interval exactly.
    assert sum(row[2] for row in table.rows.values()) == 100


def test_rows_aggregate_per_name_and_parent():
    table = SpanTable(clock=fake_clock(0, 1, 3, 4, 9, 10, 20, 25, 26, 30))
    root = table.open("root")
    for _ in range(2):
        q = table.open("quorum.add_vote")
        table.close(q)
    f = table.open("fastpath.x")
    q = table.open("quorum.add_vote")
    table.close(q)
    table.close(f)
    table.close(root)
    assert table.rows[("quorum.add_vote", "root")] == [2, 7, 7]
    assert table.rows[("quorum.add_vote", "fastpath.x")] == [1, 5, 5]
    assert table.rows[("fastpath.x", "root")] == [1, 16, 11]
    assert table.layer("quorum") == (3, 12 / 1e9)
    # A prefix matches whole dotted components only.
    assert table.layer("quorum.add") == (0, 0.0)


def test_raw_spans_are_kept_for_a_bounded_window():
    table = SpanTable(clock=fake_clock(*range(100)), window=3)
    for _ in range(10):
        table.close(table.open("s"))
    assert len(table.raw) == 3
    assert table.rows[("s", None)][0] == 10


def test_closing_out_of_order_is_an_error():
    table = SpanTable(clock=fake_clock(*range(10)))
    outer = table.open("outer")
    table.open("inner")
    with pytest.raises(RuntimeError):
        table.close(outer)


def test_wrappers_record_only_inside_the_root_span():
    table = SpanTable(clock=fake_clock(*range(100)))
    add = wrap(table, lambda ok: ok, "quorum.add_vote", false_count="quorum.noop")
    root = wrap(table, lambda: [add(True), add(False)], "runtime.loop", root=True)
    add(False)  # before the run: not recorded
    assert root() == [True, False]
    add(False)  # after the run: not recorded
    assert table.rows[("quorum.add_vote", "runtime.loop")][0] == 2
    assert table.counts == {"quorum.noop": 1}
    assert not table.stack


def test_a_raising_call_still_closes_its_span():
    table = SpanTable(clock=fake_clock(*range(100)))

    def boom():
        raise ValueError("boom")

    spanned = wrap(table, boom, "x", root=True)
    with pytest.raises(ValueError):
        spanned()
    assert not table.stack
    assert table.rows[("x", None)][0] == 1


def good_run(**overrides):
    run_record = {"traced": False, "digest": "d" * 64, "violations": [],
                  "window_commits": 40, "ops": {"attempted": 100, "failed": 0}}
    run_record.update(overrides)
    return run_record


def test_gate_passes_identical_siblings():
    assert judge([good_run(), good_run(), good_run(traced=True)]) == []


def test_gate_catches_a_planted_digest_mismatch():
    runs = [good_run(), good_run(digest="e" * 64), good_run()]
    failures = judge(runs)
    assert [index for index, _ in failures] == [1]
    assert "digest" in failures[0][1]


def test_gate_catches_a_traced_pass_that_changed_the_execution():
    failures = judge([good_run(), good_run(traced=True, digest="f" * 64)])
    assert [index for index, _ in failures] == [1]


def test_gate_catches_a_zero_commit_run():
    failures = judge([good_run(window_commits=0), good_run(window_commits=0)])
    assert [index for index, _ in failures] == [0, 1]
    assert all("no block committed" in reason for _, reason in failures)


def test_gate_catches_errors_and_violations():
    violation = {"invariant": "agreement", "time": 3.0, "replica": 2,
                 "detail": "two blocks"}
    failures = judge([good_run(), {"traced": False, "error": "Traceback"},
                      good_run(violations=[violation])])
    assert [index for index, _ in failures] == [1, 2]
    assert "agreement" in failures[1][1]


def test_a_failed_run_counts_all_its_operations_as_failed():
    runs = [good_run(), good_run(ops={"attempted": 100, "failed": 3}),
            {"traced": False, "error": "x"}]
    ops = run.operations(runs, [(0, "digest")])
    assert ops == {"attempted": 201, "failed": 100 + 3 + 1}


def test_tx_outcomes_judge_the_window_against_the_limit():
    txs = [(0.5, 0.6),            # before the window: ignored
           (1.0, 2.0), (2.0, 2.5), (3.0, None), (4.0, 9.5),
           (6.0, 6.1)]            # after the window: ignored
    out = tx_outcomes(txs, window=(1.0, 5.0), limit=5.0)
    assert out["attempted"] == 4
    assert out["failed"] == 2          # never committed, and 5.5 s > limit
    assert out["p50_s"] == 1.0         # nearest rank over [0.5, 1, 5.5, inf]
    assert out["p99_s"] == 5.0         # a failure reads as the limit
    assert out["goodput_per_s"] == pytest.approx(3 / 3.0 * 2 / 4)


def test_commit_helpers():
    times = [1.0, 1.5, 4.0, 4.2, 9.0]
    assert longest_gap(times, 1.0, 5.0) == pytest.approx(2.5)
    assert longest_gap([2.0], 0.0, 5.0) == 0.0
    assert commit_rate(times, 1.0, 5.0) == pytest.approx(3 / 3.2)


def test_at_reference_scales_each_time_by_its_own_calibration():
    # A slice timed while the kernel ran at half speed counts half.
    assert at_reference([1.0, 2.0], [0.002, 0.004], 0.002) == 2.0
    assert at_reference([3.0], [0.001], 0.002) == 6.0
    with pytest.raises(ValueError):
        at_reference([1.0, 2.0], [0.002], 0.002)
    with pytest.raises(ValueError):
        at_reference([], [], 0.002)


def test_declared_workloads_are_measurable():
    for workload in WORKLOADS.values():
        workload.validate()


@pytest.mark.parametrize("change, message", [
    ({"warmup": 4.0}, "warm-up"),
    ({"warmup": 5.0}, "warm-up"),
    ({"latency_limit": 33.0}, "to commit"),
    ({"recover_at": 33.0}, "liveness"),
])
def test_unmeasurable_workloads_are_rejected(change, message):
    base = WORKLOADS["banyan-n19-crash"]
    if "warmup" in change:
        base = WORKLOADS["banyan-n64-wan"]
    broken = dataclasses.replace(base, **change)
    with pytest.raises(ValueError, match=message):
        broken.validate()


def test_benchmark_declares_what_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    e2e = {"commit_p50_ms": 1.0, "blocks_per_s": 1.0, "tx_p50_ms": 1.0,
           "tx_p99_ms": 1.0, "tx_max_ms": 1.0, "goodput_tx_per_s": 1.0,
           "service_gap_ms": 1.0}
    plain = good_run(e2e=e2e, setup_s=0.5, ref_setup_s=0.4, run_s=2.0,
                     ref_run_s=1.6, peak_rss_mb=90.0, import_s=0.4,
                     build_s=0.1)
    values = run.end_to_end([plain], [], {"attempted": 100, "failed": 0})
    assert {m["name"] for m in spec["end_to_end"]} <= set(values)
    counters = {"messages_delivered": 10, "messages_sent": 12,
                "messages_dropped": 0, "bytes_sent": 1200,
                "scheduler_stats": {"backend": "heap"},
                "dispatch_counts": {"swept_messages": 0, "runahead_members": 0}}
    sim = {"blocks": 2, "fast_ratio": 0.5, "compute_busy_frac": 0.0,
           "compute_wait_s": 0.0, "mempool_peak_depth": 0}
    traced = good_run(traced=True, run_s=4.0, ref_run_s=3.2,
                      layers=layer_metrics(SpanTable(), counters, sim))
    values = run.per_layer([plain, traced])
    assert {m["name"] for m in spec["per_layer"]} == set(values)
