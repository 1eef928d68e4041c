"""One benchmark run in a fresh, single-threaded process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at MONOTONIC [--setup-only]

The run goes through the public entry point
``repro.eval.experiment.run_experiment``.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process; the system-wide
monotonic clock makes set-up time count from interpreter start.  With
``--trace 1`` the methods of every layer are wrapped at class level
*before* the :class:`Simulation` is built (its handler tables bind methods
at construction), so the traced run executes the same code path under
timing wrappers.  The simulation runs in :data:`SLICES` consecutive
``run(until=...)`` calls over equal slices of the simulated horizon, each
followed by a reading of the host's speed (``hostspeed.calibrate``), and
the record holds each slice's wall time and calibration.  Set-up is
calibrated before it starts and after it ends.  The last line of standard
output is one JSON record.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, calibrate  # noqa: E402
from measure import (  # noqa: E402
    at_reference, commit_digest, commit_rate, layer_metrics, longest_gap,
    nearest_rank, tx_outcomes,
)
from spans import SpanTable, wrap  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


#: Equal slices of the simulated horizon, each timed on its own.
SLICES = 40


class _SetupDone(Exception):
    """Raised at the first simulated event of a ``--setup-only`` run."""


def instrument(table: SpanTable, protocol: str) -> None:
    """Wrap every measured layer's methods at class level in spans.

    Span names are ``<layer>.<method>``; :meth:`SpanTable.layer` sums a
    layer by prefix.  Only public methods are wrapped, except the
    simulator's per-replica context, whose ``send`` / ``broadcast`` /
    ``set_timer`` / ``commit`` implement the public ``ReplicaContext``.
    """
    from repro.blocktree.tree import BlockTree
    from repro.core.fastpath import FastPathState
    from repro.net.transport import TRANSPORTS, Transport
    from repro.protocols.registry import protocol_factory
    from repro.runtime.simulator import Simulation, _SimContext
    from repro.smr.mempool import Mempool
    from repro.smr.quorum import CertificateCollector, QuorumTracker
    from repro.types.messages import BlockProposal, CertificateMessage, VoteMessage

    def wrap_public(cls, layer, skip=(), false_counts=None):
        for name, value in list(vars(cls).items()):
            if name.startswith("_") or name in skip or not inspect.isfunction(value):
                continue
            setattr(cls, name, wrap(table, value, f"{layer}.{name}",
                                    false_count=(false_counts or {}).get(name)))

    Simulation.run = wrap(table, Simulation.run, "runtime.loop", root=True)
    for name in ("send", "broadcast", "set_timer", "cancel_timer", "commit"):
        setattr(_SimContext, name, wrap(table, getattr(_SimContext, name),
                                        f"runtime.schedule.{name}"))

    kinds = {BlockProposal: "handler.proposal",
             CertificateMessage: "handler.certificate"}

    def message_kind(_self, _ctx, _sender, message):
        kind = kinds.get(type(message))
        if kind is not None:
            return kind
        if type(message) is VoteMessage:
            return "handler.vote." + "_".join(v.kind.value for v in message.votes)
        return "handler.other." + type(message).__name__

    replica_cls = protocol_factory(protocol)
    replica_cls.on_message = wrap(table, replica_cls.on_message, message_kind)
    replica_cls.on_messages = wrap(table, replica_cls.on_messages,
                                   "handler.other.batch")
    replica_cls.on_timer = wrap(table, replica_cls.on_timer, "handler.timer")
    replica_cls.on_start = wrap(table, replica_cls.on_start, "handler.other.start")

    for cls in {Transport, *TRANSPORTS.values()}:
        wrap_public(cls, "net.transport", skip=("stats", "reset"))
    wrap_public(FastPathState, "fastpath")
    wrap_public(QuorumTracker, "quorum",
                false_counts={"add_vote": "quorum.noop", "add_voters": "quorum.noop"})
    wrap_public(CertificateCollector, "quorum")
    wrap_public(BlockTree, "blocktree", false_counts={"add_block": "blocktree.dup"})
    wrap_public(Mempool, "mempool")

    schedule_external = Simulation.schedule_external
    add_commit_listener = Simulation.add_commit_listener

    def traced_schedule_external(self, delay, callback):
        return schedule_external(self, delay,
                                 wrap(table, callback, "workload.external"))

    def traced_add_commit_listener(self, listener):
        owner = type(getattr(listener, "__self__", None)).__module__
        name = ("workload.listener" if owner.startswith("repro.workload")
                else "listener." + owner.rsplit(".", 1)[-1])
        return add_commit_listener(self, wrap(table, listener, name))

    Simulation.schedule_external = traced_schedule_external
    Simulation.add_commit_listener = traced_add_commit_listener


def capture_pools(pools: list) -> None:
    """Keep every client pool the experiment builds (for per-tx records)."""
    from repro.workload.spec import WorkloadSpec

    build_pool = WorkloadSpec.build_pool

    def capturing_build_pool(self):
        pool = build_pool(self)
        pools.append(pool)
        return pool

    WorkloadSpec.build_pool = capturing_build_pool


def counters_of(simulation) -> dict:
    """Snapshot of the simulation's public counters."""
    return {
        "messages_sent": simulation.messages_sent,
        "messages_delivered": simulation.messages_delivered,
        "messages_dropped": simulation.messages_dropped,
        "bytes_sent": simulation.bytes_sent,
        "event_counts": simulation.event_counts(),
        "dispatch_counts": simulation.dispatch_counts(),
        "scheduler_stats": simulation.scheduler_stats(),
        "transport_stats": simulation.transport_stats(),
        "compute_stats": simulation.compute_stats(),
    }


def run(args, setup_calibration: float, calibration_cost: float) -> dict:
    """Run one workload and return its record.

    ``setup_calibration`` was read at interpreter start, which took
    ``calibration_cost`` seconds of the set-up time.
    """
    workload = WORKLOADS[args.workload]
    workload.validate()
    from repro.chaos.invariants import InvariantChecker
    from repro.eval.experiment import run_experiment

    imported_at = time.monotonic()
    table = SpanTable() if args.trace else None
    if table is not None:
        instrument(table, workload.protocol)
    pools: list = []
    capture_pools(pools)
    state: dict = {}

    def on_simulation(simulation):
        state["simulation"] = simulation
        state["checker"] = InvariantChecker(simulation.replica_ids).attach(simulation)
        state["first_event_at"] = time.monotonic()
        state["setup_calibration"] = (setup_calibration + calibrate()) / 2
        if args.setup_only:
            raise _SetupDone
        run_sim = simulation.run

        def sliced_run(until):
            # The same single run, entered once per slice of the simulated
            # horizon so each slice's wall time can be put next to the
            # host's speed (the commit digest checks that the execution is
            # unchanged).
            slices = state["slices"] = []
            calibrations = state["calibrations"] = []
            for k in range(1, SLICES + 1):
                start = time.perf_counter()
                run_sim(until if k == SLICES else until * k / SLICES)
                slices.append(time.perf_counter() - start)
                calibrations.append(calibrate())

        simulation.run = sliced_run

    config = workload.config(args.seed)
    record = {"workload": workload.name, "seed": args.seed,
              "traced": bool(args.trace), "setup_only": args.setup_only}
    try:
        result = run_experiment(config, on_simulation=on_simulation)
    except _SetupDone:
        result = None
    record["import_s"] = imported_at - args.spawned_at
    record["build_s"] = state["first_event_at"] - imported_at
    record["setup_s"] = (state["first_event_at"] - args.spawned_at
                         - calibration_cost)
    record["setup_calibration"] = state["setup_calibration"]
    record["ref_setup_s"] = at_reference(
        [record["setup_s"]], [record["setup_calibration"]], REFERENCE_S)
    numpy = sys.modules.get("numpy")
    record["numpy"] = numpy.__version__ if numpy is not None else None
    if result is None:
        return record

    simulation = state["simulation"]
    metrics = result.metrics
    observer = min(workload.never_crashed)
    record["slices"] = state["slices"]
    record["calibrations"] = state["calibrations"]
    record["run_s"] = sum(state["slices"])
    record["ref_run_s"] = at_reference(state["slices"], state["calibrations"],
                                       REFERENCE_S)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["digest"] = commit_digest(simulation)
    record["violations"] = [v.to_dict() for v in state["checker"].finalize(
        simulation, heal_time=workload.heal_time,
        liveness_bound=workload.liveness_bound, duration=workload.duration,
        never_crashed=workload.never_crashed)]
    record["window_commits"] = metrics.committed_blocks
    record["counters"] = counters_of(simulation)
    if not metrics.committed_blocks:
        return record  # unmeasurable: the gate fails it, with a message
    observer_commits = simulation.commits_for(observer)
    commit_times = [c.commit_time for c in observer_commits]
    proposed = {}
    for replica_id in simulation.replica_ids:
        proposed.update(simulation.protocol(replica_id).proposal_times)
    # Proposal -> finalization at every never-crashed replica.  RunMetrics
    # samples only at the proposer: about one sample per block, clustered by
    # the proposer's datacenter, so its median can sit between two clusters
    # and jump from one to the other with the seed.
    finalization = sorted(
        c.commit_time - proposed[c.block.id]
        for replica_id in workload.never_crashed
        for c in simulation.commits_for(replica_id)
        if workload.warmup <= proposed.get(c.block.id, -1.0) <= workload.duration)

    if workload.has_clients:
        correct = set(workload.never_crashed)
        records = pools[0].records()
        txs = [(r.submit_time, None if r.dropped else r.commit_time)
               for r in records if r.replica_id in correct]
        tx = tx_outcomes(txs, workload.tx_window, workload.latency_limit)
        record["stranded_tx"] = sum(1 for r in records if r.replica_id not in correct)
        record["ops"] = {"attempted": tx["attempted"], "failed": tx["failed"]}
        peak_depth = result.workload.peak_mempool_depth
    else:
        # Without clients each block's synthetic payload stands in for one
        # transaction: submitted when proposed, served when the observer
        # commits it.
        txs = [(proposed[c.block.id], c.commit_time) for c in observer_commits
               if c.block.id in proposed]
        tx = tx_outcomes(txs, (workload.warmup, workload.duration), float("inf"))
        record["ops"] = {"attempted": 1, "failed": 0}
        peak_depth = 0
    record["e2e"] = {
        "commit_p50_ms": nearest_rank(finalization, 0.5) * 1000,
        "blocks_per_s": commit_rate(commit_times, workload.warmup,
                                    workload.duration),
        "tx_p50_ms": tx["p50_s"] * 1000,
        "tx_p99_ms": tx["p99_s"] * 1000,
        "tx_max_ms": tx["max_s"] * 1000,
        "goodput_tx_per_s": tx["goodput_per_s"],
        "service_gap_ms": longest_gap(commit_times, workload.warmup,
                                      workload.duration) * 1000,
    }
    record["run_metrics"] = metrics.summary()
    record["sim"] = {
        "fast_ratio": metrics.fast_path_ratio,
        "compute_busy_frac": metrics.max_busy_fraction,
        "compute_wait_s": metrics.total_compute_queue_wait_s,
        "mempool_peak_depth": peak_depth,
        "blocks": len(observer_commits),
    }
    if table is not None:
        record["layers"] = layer_metrics(table, record["counters"], record["sim"])
        record["spans"] = table.to_dict()
    return record


def main(argv=None) -> int:
    started = time.monotonic()
    setup_calibration = calibrate()
    calibration_cost = time.monotonic() - started
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        record = run(args, setup_calibration, calibration_cost)
    except Exception:  # noqa: BLE001 - the parent counts it as a failed run
        print(json.dumps({"error": traceback.format_exc(limit=8)}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
