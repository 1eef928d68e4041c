"""The benchmark's workloads, declared as validated data.

Each workload is one fixed protocol run: protocol, replica count, network,
compute model, client load and fault schedule, over a fixed simulated
horizon.  The seed given on the command line seeds the network (latency
jitter) and the client arrivals; nothing else varies between runs.

A declaration that cannot produce a measurement (warm-up at or past the
horizon, a transaction window that closes before it opens, a liveness
check that would fall after the horizon) is rejected by
:meth:`Workload.validate` before anything runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name used on the command line and in ``BENCHMARK.json``.
        protocol: registered protocol name.
        n, f, p: replica count, fault bound, Banyan's fast-path parameter.
        topology: ``"worldwide"`` or ``"global4"`` placement.
        latency_model: ``"geo"`` or ``"wan-matrix"``.
        transport: ``"direct"`` or ``"contended"``.
        compute: ``"zero"`` or ``"crypto"``.
        duration: simulated horizon in seconds.
        warmup: initial seconds excluded from every simulated metric.
        payload_size: synthetic block payload in bytes (no clients only).
        client_rate: open-loop Poisson client rate in tx/s; 0 means no
            clients (blocks carry synthetic payloads).
        tx_size: client transaction size in bytes.
        max_block_bytes: proposal byte budget drained from a mempool.
        latency_limit: seconds within which a client transaction must
            commit; a later or missing commit is a failed operation.
        crash_at: when ``crashed`` replicas crash (``None``: no faults).
        crashed: replicas that crash at ``crash_at``.
        recover_at: when ``recovered`` replicas come back.
        recovered: crashed replicas that come back at ``recover_at``.
        liveness_bound: seconds after the last fault heals (or after the
            start) within which every never-crashed replica must commit.
    """

    name: str
    protocol: str
    n: int
    f: int
    p: int
    topology: str
    latency_model: str
    transport: str
    compute: str
    duration: float
    warmup: float
    payload_size: int = 0
    client_rate: float = 0.0
    tx_size: int = 256
    max_block_bytes: int = 65_536
    latency_limit: float = 0.0
    crash_at: Optional[float] = None
    crashed: Tuple[int, ...] = ()
    recover_at: Optional[float] = None
    recovered: Tuple[int, ...] = ()
    liveness_bound: float = 5.0

    @property
    def has_clients(self) -> bool:
        """Whether client transactions are the workload's operations."""
        return self.client_rate > 0

    @property
    def heal_time(self) -> float:
        """When the last timed fault heals (0 without faults)."""
        if self.recover_at is not None:
            return self.recover_at
        return self.crash_at if self.crash_at is not None else 0.0

    @property
    def tx_window(self) -> Tuple[float, float]:
        """Submit-time window of the judged transactions: each one had at
        least ``latency_limit`` simulated seconds to commit."""
        return self.warmup, self.duration - self.latency_limit

    @property
    def never_crashed(self) -> Tuple[int, ...]:
        """Replicas that stay correct for the whole run."""
        return tuple(r for r in range(self.n) if r not in self.crashed)

    def validate(self) -> None:
        """Reject a declaration that cannot produce a measurement.

        Raises:
            ValueError: naming the first problem found.
        """
        if not 0 <= self.warmup < self.duration:
            raise ValueError(
                f"{self.name}: warm-up {self.warmup:g}s must be below the "
                f"{self.duration:g}s horizon, or nothing is measured")
        if self.has_clients:
            if self.latency_limit <= 0:
                raise ValueError(f"{self.name}: a client workload needs a "
                                 f"positive latency limit")
            start, end = self.tx_window
            if end <= start:
                raise ValueError(
                    f"{self.name}: no transaction has {self.latency_limit:g}s "
                    f"to commit between warm-up {start:g}s and horizon "
                    f"{self.duration:g}s")
        elif self.payload_size <= 0:
            raise ValueError(f"{self.name}: a workload without clients needs "
                             f"a synthetic payload size")
        if set(self.recovered) - set(self.crashed):
            raise ValueError(f"{self.name}: only crashed replicas can recover")
        if self.crashed and self.crash_at is None:
            raise ValueError(f"{self.name}: crashed replicas need a crash time")
        if self.recovered and (self.recover_at is None
                               or self.crash_at is None
                               or self.recover_at <= self.crash_at):
            raise ValueError(f"{self.name}: recovery must follow the crash")
        if self.heal_time + self.liveness_bound > self.duration:
            raise ValueError(
                f"{self.name}: liveness after the last fault ({self.heal_time:g}s"
                f" + {self.liveness_bound:g}s) is not checkable before the "
                f"{self.duration:g}s horizon")
        if not self.never_crashed:
            raise ValueError(f"{self.name}: every replica crashes")

    def config(self, seed: int):
        """The :class:`repro.eval.experiment.ExperimentConfig` of one run."""
        from repro.eval.experiment import ExperimentConfig
        from repro.net.faults import CrashSchedule, FaultPlan
        from repro.net.topology import four_global_datacenters, worldwide_datacenters
        from repro.protocols.base import ProtocolParams
        from repro.workload.spec import WorkloadSpec

        placements = {"worldwide": worldwide_datacenters,
                      "global4": four_global_datacenters}
        faults = FaultPlan.none()
        if self.crashed:
            faults = FaultPlan(crash_schedule=CrashSchedule(
                crash_times={r: self.crash_at for r in self.crashed},
                recover_times={r: self.recover_at for r in self.recovered},
            ))
        workload = None
        if self.has_clients:
            workload = WorkloadSpec(mode="open", arrival="poisson",
                                    rate=self.client_rate, tx_size=self.tx_size,
                                    max_block_bytes=self.max_block_bytes,
                                    seed=seed)
        return ExperimentConfig(
            protocol=self.protocol,
            params=ProtocolParams(n=self.n, f=self.f, p=self.p,
                                  payload_size=self.payload_size),
            topology=placements[self.topology](self.n),
            duration=self.duration,
            warmup=self.warmup,
            seed=seed,
            faults=faults,
            latency_model=self.latency_model,
            workload=workload,
            transport=self.transport,
            compute=self.compute,
        )


#: The workloads of record; why each was chosen is in README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="banyan-n64-wan", protocol="banyan", n=64, f=12, p=12,
        topology="worldwide", latency_model="wan-matrix",
        transport="direct", compute="zero",
        duration=3.0, warmup=1.0, payload_size=1000,
        liveness_bound=3.0,
    ),
    Workload(
        name="icc-n19-clients", protocol="icc", n=19, f=6, p=1,
        topology="global4", latency_model="geo",
        transport="contended", compute="crypto",
        duration=20.0, warmup=2.0,
        client_rate=2000.0, tx_size=256, max_block_bytes=1_000_000,
        latency_limit=8.0,
    ),
    Workload(
        name="banyan-n19-crash", protocol="banyan", n=19, f=6, p=1,
        topology="global4", latency_model="geo",
        transport="direct", compute="zero",
        duration=35.0, warmup=2.0,
        client_rate=200.0, tx_size=256,
        latency_limit=15.0,
        crash_at=10.0, crashed=(1, 2, 3, 4),
        recover_at=25.0, recovered=(1, 2),
    ),
)}
