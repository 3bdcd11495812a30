"""The discrete-event cluster simulator: pure virtual time, pure seeds.

The event loop is a single heap keyed by ``(virtual_time, sequence)`` —
the sequence number makes simultaneous events replay in push order, so a
whole simulation is a pure function of (fleet, scheduler, trace, failure
plan). No wall clock is read anywhere; the same discipline as
:class:`~repro.serving.router.FleetRouter`, upgraded from closed-form
queue updates to full event-by-event execution.

Four event kinds drive it:

* **arrival** — the job joins the pending queue;
* **complete** — the node's active run finishes; ground-truth energy is
  charged and the deadline verdict recorded;
* **fail** — the node drops offline (seeded
  :class:`~repro.cluster.faults.NodeFailurePlan` stream); an active run
  is charged for the energy it burned and its job is *rescheduled*;
* **recover** — the node returns and the next failure is drawn.

The loop keeps the pending queue and the free-node pools as
incrementally maintained :mod:`~repro.cluster.state` views, so an event
costs O(log n) bookkeeping, not a fleet scan or a queue re-sort. After
every event the pluggable scheduler sees (pending, free nodes, now)
through those views and dispatches; a dispatched job runs to completion
at its chosen V-F configuration, charged at the device's measured power
× time — the same accounting the online manager uses, so schedulers are
graded against ground truth, not against their own predictions.

Telemetry flows through the standard recorder: one ``cluster.run`` span
plus ``cluster.*`` counters (arrivals, dispatched, completed,
deadline_misses, rescheduled, node_failures, node_recoveries, and
per-device ``cluster.energy_joules``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.faults import NodeFailurePlan
from repro.cluster.jobs import JobTrace
from repro.cluster.node import ActiveRun, GPUNode
from repro.cluster.schedulers import Scheduler
from repro.cluster.state import FreeNodes, PendingJobs
from repro.errors import ValidationError
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder

__all__ = ["ClusterSimulator", "ClusterReport", "JobRecord"]

_ARRIVAL, _FAIL, _RECOVER, _COMPLETE = range(4)


@dataclass(frozen=True)
class JobRecord:
    """The completed life of one job."""

    job_id: int
    kernel_name: str
    node_name: str
    device_name: str
    core_mhz: float
    memory_mhz: float
    arrival_s: float
    start_s: float
    finish_s: float
    deadline_s: float
    energy_joules: float
    #: 1 for a first-try completion; +1 per failure-triggered reschedule.
    attempts: int

    @property
    def missed(self) -> bool:
        return self.finish_s > self.deadline_s

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.arrival_s


@dataclass(frozen=True)
class ClusterReport:
    """Everything a finished simulation knows — virtual quantities only.

    Deliberately contains no wall-clock-derived field: two same-seed runs
    serialize to byte-identical JSON (the determinism acceptance test).
    """

    scheduler: str
    shape_name: str
    seed: int
    device_mix: Tuple[Tuple[str, int], ...]
    records: Tuple[JobRecord, ...]
    fleet_energy_joules: float
    energy_by_device: Tuple[Tuple[str, float], ...]
    makespan_s: float
    deadline_misses: int
    rescheduled: int
    node_failures: int

    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def n_nodes(self) -> int:
        return sum(count for _, count in self.device_mix)

    @property
    def miss_rate(self) -> float:
        if not self.records:
            return 0.0
        return self.deadline_misses / len(self.records)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheduler": self.scheduler,
            "shape": self.shape_name,
            "seed": self.seed,
            "device_mix": {device: count for device, count in self.device_mix},
            "nodes": self.n_nodes,
            "jobs": self.n_jobs,
            "fleet_energy_joules": self.fleet_energy_joules,
            "energy_by_device": {
                device: energy for device, energy in self.energy_by_device
            },
            "makespan_s": self.makespan_s,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.miss_rate,
            "rescheduled": self.rescheduled,
            "node_failures": self.node_failures,
            "records": [
                {
                    "job_id": record.job_id,
                    "kernel": record.kernel_name,
                    "node": record.node_name,
                    "device": record.device_name,
                    "core_mhz": record.core_mhz,
                    "memory_mhz": record.memory_mhz,
                    "arrival_s": record.arrival_s,
                    "start_s": record.start_s,
                    "finish_s": record.finish_s,
                    "deadline_s": record.deadline_s,
                    "energy_joules": record.energy_joules,
                    "attempts": record.attempts,
                    "missed": record.missed,
                }
                for record in self.records
            ],
        }


class ClusterSimulator:
    """Virtual-time executor of one job trace over one fleet."""

    def __init__(
        self,
        nodes: Sequence[GPUNode],
        scheduler: Scheduler,
        recorder: Optional[TelemetryRecorder] = None,
        failure_plan: Optional[NodeFailurePlan] = None,
    ) -> None:
        if not nodes:
            raise ValidationError("a cluster needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValidationError("node names must be unique")
        self.nodes = sorted(nodes, key=lambda node: node.name)
        self.scheduler = scheduler
        self.recorder = recorder or NULL_RECORDER
        self.failure_plan = failure_plan

    # ------------------------------------------------------------------
    def run(self, trace: JobTrace) -> ClusterReport:
        """Execute the trace to completion; returns the full report."""
        nodes = self.nodes
        for node in nodes:
            node.reset()

        heap: List[Tuple[float, int, int, tuple]] = []
        seq = 0

        def push(time_s: float, kind: int, payload: tuple) -> None:
            nonlocal seq
            heapq.heappush(heap, (time_s, seq, kind, payload))
            seq += 1

        for job in trace.jobs:
            push(job.arrival_s, _ARRIVAL, (job,))
        streams = {}
        if self.failure_plan is not None:
            for index, node in enumerate(nodes):
                rng = self.failure_plan.stream(node.name)
                streams[index] = rng
                push(
                    self.failure_plan.time_to_failure(rng), _FAIL, (index,)
                )

        pending = PendingJobs()
        free = FreeNodes(nodes, nodes)
        attempts: Dict[int, int] = {}
        records: List[JobRecord] = []
        energy_by_device: Dict[str, float] = {}
        fleet_energy = 0.0
        makespan = 0.0
        deadline_misses = 0
        rescheduled = 0
        node_failures = 0
        total = len(trace.jobs)
        recorder = self.recorder

        def charge(node: GPUNode, joules: float) -> None:
            nonlocal fleet_energy
            node.energy_joules += joules
            fleet_energy += joules
            device = node.device_name
            energy_by_device[device] = (
                energy_by_device.get(device, 0.0) + joules
            )
            recorder.add("cluster.energy_joules", joules, device=device)

        with recorder.span(
            "cluster.run",
            scheduler=self.scheduler.name,
            nodes=len(nodes),
            jobs=total,
        ) as run_span:
            while len(records) < total:
                if not heap:
                    raise ValidationError(
                        "simulation stalled: jobs remain but no events are "
                        "queued (scheduler returned no assignments?)"
                    )
                now, _, kind, payload = heapq.heappop(heap)

                if kind == _ARRIVAL:
                    (job,) = payload
                    pending.add(job)
                    attempts[job.job_id] = attempts.get(job.job_id, 0) + 1
                    recorder.add("cluster.arrivals")

                elif kind == _COMPLETE:
                    (index, epoch) = payload
                    node = nodes[index]
                    if node.epoch != epoch or node.running is None:
                        continue  # Stale: the node failed mid-run.
                    run = node.running
                    node.running = None
                    free.add(index)
                    node.jobs_completed += 1
                    charge(node, run.energy_joules)
                    job = run.job
                    record = JobRecord(
                        job_id=job.job_id,
                        kernel_name=job.kernel.name,
                        node_name=node.name,
                        device_name=node.device_name,
                        core_mhz=run.config.core_mhz,
                        memory_mhz=run.config.memory_mhz,
                        arrival_s=job.arrival_s,
                        start_s=run.start_s,
                        finish_s=now,
                        deadline_s=job.deadline_s,
                        energy_joules=run.energy_joules,
                        attempts=attempts[job.job_id],
                    )
                    records.append(record)
                    makespan = max(makespan, now)
                    recorder.add("cluster.completed")
                    if record.missed:
                        deadline_misses += 1
                        recorder.add("cluster.deadline_misses")

                elif kind == _FAIL:
                    (index,) = payload
                    node = nodes[index]
                    if node.online:
                        node.online = False
                        node.epoch += 1
                        node_failures += 1
                        recorder.add("cluster.node_failures")
                        if node.running is None:
                            free.remove(index)
                        else:
                            run = node.running
                            node.running = None
                            # Charge the energy the doomed run burned.
                            elapsed = max(0.0, now - run.start_s)
                            charge(node, run.watts * elapsed)
                            pending.add(run.job)
                            attempts[run.job.job_id] += 1
                            rescheduled += 1
                            recorder.add("cluster.rescheduled")
                        rng = streams[index]
                        push(
                            now + self.failure_plan.repair_time(rng),
                            _RECOVER,
                            (index,),
                        )

                elif kind == _RECOVER:
                    (index,) = payload
                    nodes[index].online = True  # A failure cleared its run.
                    free.add(index)
                    recorder.add("cluster.node_recoveries")
                    rng = streams[index]
                    push(
                        now + self.failure_plan.time_to_failure(rng),
                        _FAIL,
                        (index,),
                    )

                if pending and free:
                    self._dispatch(pending, free, now, push)

            run_span.set(
                energy_joules=fleet_energy,
                deadline_misses=deadline_misses,
                makespan_s=makespan,
            )

        records.sort(key=lambda record: record.job_id)
        return ClusterReport(
            scheduler=self.scheduler.name,
            shape_name=trace.shape.name,
            seed=trace.seed,
            device_mix=self._device_mix(),
            records=tuple(records),
            fleet_energy_joules=fleet_energy,
            energy_by_device=tuple(sorted(energy_by_device.items())),
            makespan_s=makespan,
            deadline_misses=deadline_misses,
            rescheduled=rescheduled,
            node_failures=node_failures,
        )

    # ------------------------------------------------------------------
    def _dispatch(
        self, pending: PendingJobs, free: FreeNodes, now: float, push
    ) -> None:
        for assignment in self.scheduler.dispatch(pending, free, now):
            job, node = assignment.job, assignment.node
            if not pending.remove(job):
                raise ValidationError(
                    f"scheduler {self.scheduler.name!r} dispatched job "
                    f"{job.job_id} which is not pending"
                )
            index = free.position(node)
            if index is None:
                raise ValidationError(
                    f"scheduler {self.scheduler.name!r} dispatched node "
                    f"{node.name!r} which is not in this fleet"
                )
            if not free.remove(index):
                raise ValidationError(
                    f"scheduler {self.scheduler.name!r} dispatched to busy "
                    f"or offline node {node.name!r}"
                )
            watts, seconds = node.oracle.measured(
                job.kernel, assignment.score.config
            )
            duration = seconds * job.invocations
            node.running = ActiveRun(
                job=job,
                config=assignment.score.config,
                start_s=now,
                finish_s=now + duration,
                watts=watts,
                energy_joules=watts * duration,
            )
            push(now + duration, _COMPLETE, (index, node.epoch))
            self.recorder.add("cluster.dispatched")

    def _device_mix(self) -> Tuple[Tuple[str, int], ...]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.device_name] = counts.get(node.device_name, 0) + 1
        return tuple(sorted(counts.items()))
