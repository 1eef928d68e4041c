"""Metric arithmetic and the correctness gate, on plain data.

Nothing here imports the simulator, so the benchmark's own logic is
testable on hand-made inputs (``tests/test_perfbench.py``).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def commit_digest(simulation) -> str:
    """Digest a finished simulation's full commit schedule.

    The same recipe as the golden corpus (``tests/test_golden_corpus.py``):
    every replica's commits in commit order, with times to the nanosecond.
    """
    commits = []
    for replica_id in simulation.replica_ids:
        for record in simulation.commits_for(replica_id):
            commits.append((
                record.replica_id, record.block.round, record.block.proposer,
                f"{record.commit_time:.9f}", record.finalization_kind,
                str(record.block.id),
            ))
    return hashlib.sha256(repr(commits).encode()).hexdigest()


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) of ascending values, nearest rank."""
    if not sorted_values:
        raise ValueError("no samples")
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def longest_gap(times: Iterable[float], start: float, end: float) -> float:
    """Longest interval between consecutive times inside ``[start, end]``
    (0 with fewer than two)."""
    inside = sorted(t for t in times if start <= t <= end)
    return max((b - a for a, b in zip(inside, inside[1:])), default=0.0)


def tx_outcomes(txs: Iterable[Tuple[float, Optional[float]]],
                window: Tuple[float, float], limit: float) -> Dict[str, float]:
    """Judge transactions submitted inside ``window``.

    Args:
        txs: ``(submit_time, commit_time or None)`` pairs; ``None`` marks a
            dropped or never-committed transaction.
        window: submit-time window ``[start, end)``.
        limit: latency limit in seconds; a later or missing commit fails.

    Returns ``attempted``, ``failed``, ``p50_s`` and ``p99_s`` (a failed
    transaction counts as missing the limit, so a percentile it reaches
    reads as ``limit``) and ``goodput_per_s``: the submission rate over the
    span of judged submissions, times the share that met the limit.
    """
    start, end = window
    submits = []
    latencies = []
    for submit, commit in txs:
        if start <= submit < end:
            submits.append(submit)
            latencies.append(math.inf if commit is None else commit - submit)
    if len(latencies) < 2:
        raise ValueError(f"fewer than two transactions submitted in "
                         f"[{start:g}, {end:g})")
    latencies.sort()
    failed = sum(1 for latency in latencies if latency > limit)
    attempted = len(latencies)
    span = max(submits) - min(submits)
    return {
        "attempted": attempted,
        "failed": failed,
        "p50_s": min(nearest_rank(latencies, 0.50), limit),
        "p99_s": min(nearest_rank(latencies, 0.99), limit),
        "goodput_per_s": (attempted - 1) / span * (attempted - failed) / attempted,
        "max_s": max((x for x in latencies if x != math.inf), default=math.inf),
    }


def commit_rate(times: Iterable[float], start: float, end: float) -> float:
    """Commits per second between the first and last commit inside
    ``[start, end]`` (not quantized by the window length, unlike a count
    over the window)."""
    inside = sorted(t for t in times if start <= t <= end)
    if len(inside) < 2 or inside[-1] == inside[0]:
        return 0.0
    return (len(inside) - 1) / (inside[-1] - inside[0])


def at_reference(times: Sequence[float], calibrations: Sequence[float],
                 reference: float) -> float:
    """Wall times summed at the reference speed.

    Each time is scaled by ``reference / calibration``, where its
    calibration is the time of the fixed kernel of ``hostspeed`` read next
    to it: work measured in a phase when the host runs the kernel at half
    speed counts half its wall time.

    Raises:
        ValueError: without times, or with a calibration missing.
    """
    if not times or len(times) != len(calibrations):
        raise ValueError("every time needs its own calibration")
    return sum(t * reference / c for t, c in zip(times, calibrations))


def judge(runs: List[Dict[str, object]]) -> List[Tuple[int, str]]:
    """The correctness gate: ``(run index, reason)`` for every failed run.

    A run fails when it raised, broke an invariant, committed nothing in
    the measured window, or replayed a different commit schedule than the
    first untraced run of the same workload and seed (its siblings, the
    traced pass included: tracing must not perturb the execution).
    """
    failures: List[Tuple[int, str]] = []
    reference = next((run.get("digest") for run in runs
                      if not run.get("traced") and not run.get("error")), None)
    for index, run in enumerate(runs):
        if run.get("error"):
            failures.append((index, f"raised: {run['error']}"))
            continue
        violations = run.get("violations") or []
        if violations:
            first = violations[0]
            failures.append((index, f"{len(violations)} invariant violation(s),"
                                    f" first {first['invariant']}: {first['detail']}"))
        if not run.get("window_commits"):
            failures.append((index, "no block committed at the observer in the "
                                    "measured window"))
        if run.get("digest") != reference:
            failures.append((index, f"commit digest {str(run.get('digest'))[:12]} "
                                    f"differs from its siblings' "
                                    f"{str(reference)[:12]}"))
    return failures


def layer_metrics(table, counters: Dict[str, object],
                  sim: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    Args:
        table: the run's :class:`spans.SpanTable`.
        counters: snapshot of the simulation's public counters.
        sim: simulated quantities (``fast_ratio``, ``compute_busy_frac``,
            ``compute_wait_s``, ``mempool_peak_depth``, ``blocks``).
    """
    def calls(name: str) -> int:
        return table.layer(name)[0]

    def self_s(name: str) -> float:
        return table.layer(name)[1]

    # Events the loop dispatched: handler and external-callback spans
    # opened directly under the loop (a fused sweep's inner per-message
    # handler calls are not events of their own).
    events = sum(row[0] for (name, parent), row in table.rows.items()
                 if parent == "runtime.loop"
                 and (name.startswith("handler.") or name == "workload.external"))
    delivered = counters["messages_delivered"]
    sent = counters["messages_sent"]
    blocks = max(sim["blocks"], 1)
    scheduler = counters["scheduler_stats"]
    dispatch = counters["dispatch_counts"]
    loop_self = self_s("runtime.loop")
    metrics = {
        "runtime.loop_self_s": loop_self,
        "runtime.loop_us_per_event": loop_self / max(events, 1) * 1e6,
        "runtime.delivered": delivered,
        "runtime.events": events,
        "runtime.schedule_self_s": self_s("runtime.schedule"),
        "runtime.calendar_hit_frac": (
            min(1.0, max(0.0, 1.0 - scheduler["inc_pops"] / max(events, 1)))
            if scheduler.get("backend") == "calendar" else 0.0),
        "runtime.sweep_frac": dispatch["swept_messages"] / max(delivered, 1),
        "runtime.runahead_frac": dispatch["runahead_members"] / max(delivered, 1),
        "runtime.compute_busy_frac": sim["compute_busy_frac"],
        "runtime.compute_wait_s": sim["compute_wait_s"],
        "net.transport_self_s": self_s("net.transport"),
        "net.transport_calls": calls("net.transport"),
        "net.msgs_per_block": sent / blocks,
        "net.bytes_per_block": counters["bytes_sent"] / blocks,
        "net.drop_frac": counters["messages_dropped"] / max(sent, 1),
        "protocols.self_s": self_s("handler"),
        "fastpath.calls": calls("fastpath"),
        "fastpath.self_s": self_s("fastpath"),
        "fastpath.calls_per_delivered": calls("fastpath") / max(delivered, 1),
        "fastpath.fast_ratio": sim["fast_ratio"],
        "quorum.calls": calls("quorum"),
        "quorum.self_s": self_s("quorum"),
        "quorum.noop_frac": table.counts.get("quorum.noop", 0) / max(
            calls("quorum.add_vote") + calls("quorum.add_voters"), 1),
        "blocktree.calls": calls("blocktree"),
        "blocktree.self_s": self_s("blocktree"),
        "blocktree.dup_frac": table.counts.get("blocktree.dup", 0) / max(
            calls("blocktree.add_block"), 1),
        "workload.submit_calls": calls("workload.external"),
        "workload.self_s": self_s("workload.external"),
        "workload.listener_self_s": self_s("workload.listener"),
        "mempool.self_s": self_s("mempool"),
        "mempool.peak_depth": sim["mempool_peak_depth"],
    }
    for kind in HANDLER_KINDS:
        count, seconds = table.layer("handler." + kind)
        metrics[f"handler.{kind}.calls"] = count
        metrics[f"handler.{kind}.self_us"] = seconds / max(count, 1) * 1e6
    return metrics


#: Handler span kinds reported one by one (``handler.<kind>``); ``other``
#: sums ``on_start``, fused ``on_messages`` sweeps and unknown messages.
HANDLER_KINDS = ("proposal", "vote.notarization", "vote.notarization_fast",
                 "vote.finalization", "certificate", "timer", "other")
