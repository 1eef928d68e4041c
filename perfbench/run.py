"""Benchmark of record: real protocol runs, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of the workload is one fresh single-threaded process
(``worker.py``).  With ``--trace 0`` an untraced run and a set-up-only
process alternate until about ``S`` seconds have passed (at least three
rounds), and the end-to-end metrics of ``BENCHMARK.json`` are reported
as medians over the processes.  ``run_s`` and ``setup_s`` are wall times
at a reference host speed (``hostspeed``), because this host's speed
changes in phases longer than an invocation.
With ``--trace 1`` untraced and traced runs alternate and the per-layer
metrics of the fastest traced run are reported, with the tracing
overhead.  Every run passes the correctness gate of ``measure.judge``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the invocation (stamps, counters, span tables) is written to
``.perfbench-runs/`` in the checkout.  See ``README.md`` for the
workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
from statistics import median
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import judge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Untraced runs per ``--trace 0`` invocation, at least (siblings for the
#: digest check and a median).
MIN_RUNS = 3
#: An invocation must finish within this many seconds.
HARD_LIMIT_S = 170.0
#: Environment of every run process: one thread, whatever numpy links.
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program, bad declaration)."""


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamps(seed: int) -> Dict[str, object]:
    """What a reader needs to compare this record with another."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "machine": platform.machine(),
    }


def spawn(workload: str, seed: int, traced: bool, setup_only: bool,
          deadline: float) -> Dict[str, object]:
    """Run one worker process; returns its record (``error`` on failure)."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced))]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"traced": traced, "error": "no time left for another run"}
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {timeout:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    record.setdefault("traced", traced)
    if proc.returncode and not record.get("error"):
        record["error"] = f"exit {proc.returncode}"
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool,
            started: float) -> Dict[str, object]:
    """Run the invocation's processes; returns the full invocation record."""
    deadline = started + HARD_LIMIT_S
    runs: List[Dict[str, object]] = []
    rounds = 0
    minimum = 1 if trace else MIN_RUNS
    setups: List[Dict[str, object]] = []
    while True:
        runs.append(spawn(workload, seed, False, False, deadline))
        if runs[0].get("error"):
            break  # a program that cannot run once will not run again
        # A traced run, or a set-up-only process: set-up samples spread
        # over the whole invocation, not bunched into one phase of the host.
        if trace:
            runs.append(spawn(workload, seed, True, False, deadline))
        else:
            setups.append(spawn(workload, seed, False, True, deadline))
        rounds += 1
        elapsed = time.monotonic() - started
        # Stop before a round that would end past the budget.
        if rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds:
            break
    return {"runs": runs, "setups": setups}


def operations(runs, failures) -> Dict[str, int]:
    """Attempted and failed operations: client transactions where the
    workload has clients, else runs.  A run that failed the gate counts
    all its operations as failed."""
    failed_runs = {index for index, _ in failures}
    attempted = failed = 0
    for index, run in enumerate(runs):
        ops = run.get("ops") or {"attempted": 1, "failed": 1}
        attempted += ops["attempted"]
        failed += ops["attempted"] if index in failed_runs else ops["failed"]
    return {"attempted": attempted, "failed": failed}


def end_to_end(runs, setups, ops) -> Dict[str, float]:
    """End-to-end metric values from the untraced runs."""
    good = [run for run in runs if not run.get("error") and run.get("e2e")]
    values = dict(good[0]["e2e"])  # simulated: identical in every sibling
    # At the reference speed: the host's own speed changes in phases that
    # can outlast an invocation (hostspeed.py, README.md "Measured spread").
    values["setup_s"] = median([r["ref_setup_s"] for r in good + setups
                                if not r.get("error")])
    values["run_s"] = median([r["ref_run_s"] for r in good])
    values["peak_rss_mb"] = median([r["peak_rss_mb"] for r in good])
    values["ok_frac"] = 1.0 - ops["failed"] / ops["attempted"]
    return values


def per_layer(runs) -> Dict[str, float]:
    """Per-layer metric values from the fastest traced run (so its self
    times add up to its ``run_s``), plus the set-up split and the tracing
    overhead: the traced run's time at the reference speed over the
    untraced runs' median."""
    traced = min((r for r in runs if r.get("traced") and r.get("layers")),
                 key=lambda r: r["run_s"])
    plain = [r for r in runs if not r.get("traced") and r.get("run_s")]
    values = dict(traced["layers"])
    values["setup.import_s"] = median([r["import_s"] for r in plain])
    values["setup.build_s"] = median([r["build_s"] for r in plain])
    values["trace.run_s"] = traced["run_s"]
    values["trace.overhead"] = traced["ref_run_s"] / median(
        [r["ref_run_s"] for r in plain])
    return values


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise SetupError(f"no program to measure: {ROOT / 'src' / 'repro'} "
                             f"is missing")
        if args.workload not in WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; known: "
                             f"{', '.join(sorted(WORKLOADS))}")
        workload = WORKLOADS[args.workload]
        try:
            workload.validate()
        except ValueError as exc:
            raise SetupError(f"unmeasurable workload: {exc}") from exc
    except (OSError, SetupError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     started)
    runs, setups = record["runs"], record["setups"]
    failures = judge(runs)
    for run in setups:
        if run.get("error"):
            failures.append((-1, f"set-up run raised: {run['error']}"))
    ops = operations(runs, [f for f in failures if f[0] >= 0])
    for index, reason in failures:
        print(f"perfbench: run {index} failed: {reason}", file=sys.stderr)
    record.update(workload=args.workload, stamps=stamps(args.seed),
                  declaration=dataclasses.asdict(workload), failures=failures)
    record["stamps"]["numpy"] = next(
        (r["numpy"] for r in runs if "numpy" in r), "unknown")
    result = None
    try:
        if args.trace:
            declared = spec["per_layer"]
            values = per_layer(runs)
        else:
            declared = spec["end_to_end"]
            values = end_to_end(runs, setups, ops)
        result = {
            "correct": not failures,
            "attempted": ops["attempted"],
            "failed": ops["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }
    except (IndexError, KeyError, ValueError) as exc:
        print(f"perfbench: no measurement: {type(exc).__name__}: {exc}",
              file=sys.stderr)
    record["result"] = result
    out = ROOT / ".perfbench-runs"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1, default=str))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
