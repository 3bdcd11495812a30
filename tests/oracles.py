"""Reference walks the production fast paths are differenced against.

**Campaign.** 
:func:`scalar_campaign` measures every (kernel, configuration) cell one at
a time — pin the application clocks, take the Sec. V-A median of repeats —
the way a hand-driven campaign would, and emits the campaign telemetry as
it goes: ``campaign``/``profile``/``measure``/``cell`` spans and the
``rows.collected``, ``rows.degraded``, ``cells.skipped`` and
``kernels.skipped`` counters. The production campaign
(:func:`repro.core.dataset.collect_campaign`, serial or sharded) batches
the same measurements through ``measure_grid_columns`` and derives its
telemetry from the measured columns afterwards; the differential tests
demand that its dataset and report be bitwise equal to this walk's, and
that its trace have this walk's span tree and counters.

Clock-set faults are the one path-dependent fault class: the walk sets the
clocks once per cell, the columnar campaign never does. Chaos comparisons
therefore run the oracle under :func:`oracle_plan`, the campaign's fault
plan with clock-set faults switched off.

**Cluster event loop.** :func:`full_scan_cluster_run` is the simulator's
event loop without incremental state: after every event it scans the
whole fleet for free nodes and rebuilds the scheduler's
:class:`~repro.cluster.state.FreeNodes` and
:class:`~repro.cluster.state.PendingJobs` views from scratch. The
differential tests demand that :class:`~repro.cluster.ClusterSimulator`
report and count exactly what this walk does.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.faults import NodeFailurePlan
from repro.cluster.jobs import Job, JobTrace
from repro.cluster.node import ActiveRun, GPUNode
from repro.cluster.schedulers import Scheduler
from repro.cluster.simulator import ClusterReport, JobRecord
from repro.cluster.state import FreeNodes, PendingJobs

from repro.core.dataset import CampaignReport, TrainingDataset, TrainingRow
from repro.core.metrics import MetricCalculator
from repro.driver import faults as faultlib
from repro.driver.faults import FaultPlan
from repro.driver.session import ProfilingSession
from repro.errors import PersistentDriverError, ValidationError
from repro.hardware.specs import FrequencyConfig
from repro.kernels.kernel import KernelDescriptor
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder


def oracle_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """``plan`` without clock-set faults (the columnar path sets no clocks)."""
    if plan is None:
        return None
    return dataclasses.replace(plan, clock_set_failure_rate=0.0)


def scalar_campaign(
    session: ProfilingSession,
    kernels: Sequence[KernelDescriptor],
    configs: Optional[Sequence[FrequencyConfig]] = None,
) -> Tuple[TrainingDataset, CampaignReport]:
    """The campaign as a cell-by-cell scalar walk; same contract as
    :func:`repro.core.dataset.collect_campaign`."""
    spec = session.gpu.spec
    if configs is None:
        configs = spec.all_configurations()
    configs = [spec.validate_configuration(config) for config in configs]
    calculator = MetricCalculator(spec)
    recorder = session.recorder
    stats = session.fault_stats
    baseline = dataclasses.replace(stats)
    backoff_before = session.backoff_clock.total_seconds

    with recorder.span(
        "campaign", device=spec.name, kernels=len(kernels), configs=len(configs)
    ) as campaign_span:
        utilization_by_kernel = {}
        skipped_kernels: List[str] = []
        for kernel in kernels:
            with recorder.span("profile", kernel=kernel.name) as profile_span:
                try:
                    record = session.collect_events(kernel)
                except PersistentDriverError:
                    profile_span.set(skipped=True)
                    recorder.add("kernels.skipped")
                    skipped_kernels.append(kernel.name)
                    continue
            utilization_by_kernel[kernel.name] = calculator.utilizations(record)

        rows: List[TrainingRow] = []
        skipped_cells: List[Tuple[str, FrequencyConfig]] = []
        for kernel in kernels:
            if kernel.name not in utilization_by_kernel:
                continue
            with recorder.span("measure", kernel=kernel.name):
                for config in configs:
                    try:
                        measurement = session.measure_power(kernel, config)
                    except PersistentDriverError:
                        with recorder.span(
                            "cell",
                            core=config.core_mhz,
                            memory=config.memory_mhz,
                        ) as cell_span:
                            cell_span.set(skipped=True)
                            recorder.add("cells.skipped")
                        skipped_cells.append((kernel.name, config))
                        continue
                    applied = measurement.applied_config
                    with recorder.span(
                        "cell", core=applied.core_mhz, memory=applied.memory_mhz
                    ) as cell_span:
                        if measurement.quality:
                            cell_span.set(quality=list(measurement.quality))
                            recorder.add("rows.degraded")
                        recorder.add("rows.collected")
                    rows.append(
                        TrainingRow(
                            kernel_name=kernel.name,
                            config=applied,
                            measured_watts=measurement.average_watts,
                            utilizations=utilization_by_kernel[kernel.name],
                            quality=measurement.quality,
                        )
                    )
        campaign_span.set(
            rows=len(rows),
            skipped_cells=len(skipped_cells),
            skipped_kernels=len(skipped_kernels),
        )
    if not rows:
        raise ValidationError(
            "measurement campaign produced no usable rows (every kernel or "
            "cell was skipped)"
        )

    def flagged(flag: str) -> int:
        return sum(1 for row in rows if flag in row.quality)

    report = CampaignReport(
        device_name=spec.name,
        kernel_count=len(utilization_by_kernel),
        config_count=len(configs),
        row_count=len(rows),
        clean_rows=sum(1 for row in rows if not row.quality),
        retried_rows=flagged(faultlib.RETRIED),
        dropout_rows=flagged(faultlib.DROPOUTS),
        throttle_injected_rows=flagged(faultlib.THROTTLE_INJECTED),
        skipped_cells=tuple(skipped_cells),
        skipped_kernels=tuple(skipped_kernels),
        read_faults=stats.read_faults - baseline.read_faults,
        clock_faults=stats.clock_faults - baseline.clock_faults,
        event_faults=stats.event_faults - baseline.event_faults,
        dropped_samples=stats.dropped_samples - baseline.dropped_samples,
        injected_throttles=(
            stats.injected_throttles - baseline.injected_throttles
        ),
        corrupted_counters=(
            stats.corrupted_counters - baseline.corrupted_counters
        ),
        backoff_seconds=session.backoff_clock.total_seconds - backoff_before,
    )
    return TrainingDataset(spec=spec, rows=tuple(rows)), report


def full_scan_cluster_run(
    nodes: Sequence[GPUNode],
    scheduler: Scheduler,
    trace: JobTrace,
    recorder: Optional[TelemetryRecorder] = None,
    failure_plan: Optional[NodeFailurePlan] = None,
) -> ClusterReport:
    """The cluster simulation with a full fleet scan at every event; same
    contract as :meth:`repro.cluster.ClusterSimulator.run`."""
    nodes = sorted(nodes, key=lambda node: node.name)
    recorder = recorder or NULL_RECORDER
    for node in nodes:
        node.reset()
    arrival, fail, recover, complete = range(4)
    heap: List[Tuple[float, int, int, tuple]] = []
    sequence = itertools.count()

    def push(time_s: float, kind: int, payload: tuple) -> None:
        heapq.heappush(heap, (time_s, next(sequence), kind, payload))

    for job in trace.jobs:
        push(job.arrival_s, arrival, (job,))
    streams = {}
    if failure_plan is not None:
        for node in nodes:
            rng = streams[node.name] = failure_plan.stream(node.name)
            push(failure_plan.time_to_failure(rng), fail, (node,))

    pending: List[Job] = []
    attempts: Dict[int, int] = {}
    records: List[JobRecord] = []
    energy_by_device: Dict[str, float] = {}
    fleet_energy = makespan = 0.0
    deadline_misses = rescheduled = node_failures = 0

    def charge(node: GPUNode, joules: float) -> None:
        nonlocal fleet_energy
        node.energy_joules += joules
        fleet_energy += joules
        device = node.device_name
        energy_by_device[device] = energy_by_device.get(device, 0.0) + joules
        recorder.add("cluster.energy_joules", joules, device=device)

    with recorder.span(
        "cluster.run",
        scheduler=scheduler.name,
        nodes=len(nodes),
        jobs=len(trace.jobs),
    ) as run_span:
        while len(records) < len(trace.jobs):
            if not heap:
                raise ValidationError("simulation stalled")
            now, _, kind, payload = heapq.heappop(heap)
            if kind == arrival:
                (job,) = payload
                pending.append(job)
                attempts[job.job_id] = attempts.get(job.job_id, 0) + 1
                recorder.add("cluster.arrivals")
            elif kind == complete:
                node, epoch = payload
                if node.epoch != epoch or node.running is None:
                    continue
                run, node.running = node.running, None
                node.jobs_completed += 1
                charge(node, run.energy_joules)
                record = JobRecord(
                    job_id=run.job.job_id,
                    kernel_name=run.job.kernel.name,
                    node_name=node.name,
                    device_name=node.device_name,
                    core_mhz=run.config.core_mhz,
                    memory_mhz=run.config.memory_mhz,
                    arrival_s=run.job.arrival_s,
                    start_s=run.start_s,
                    finish_s=now,
                    deadline_s=run.job.deadline_s,
                    energy_joules=run.energy_joules,
                    attempts=attempts[run.job.job_id],
                )
                records.append(record)
                makespan = max(makespan, now)
                recorder.add("cluster.completed")
                if record.missed:
                    deadline_misses += 1
                    recorder.add("cluster.deadline_misses")
            elif kind == fail:
                (node,) = payload
                if node.online:
                    node.online = False
                    node.epoch += 1
                    node_failures += 1
                    recorder.add("cluster.node_failures")
                    if node.running is not None:
                        run, node.running = node.running, None
                        charge(node, run.watts * max(0.0, now - run.start_s))
                        pending.append(run.job)
                        attempts[run.job.job_id] += 1
                        rescheduled += 1
                        recorder.add("cluster.rescheduled")
                    rng = streams[node.name]
                    push(now + failure_plan.repair_time(rng), recover, (node,))
            elif kind == recover:
                (node,) = payload
                node.online = True
                recorder.add("cluster.node_recoveries")
                rng = streams[node.name]
                push(now + failure_plan.time_to_failure(rng), fail, (node,))

            free = [node for node in nodes if node.is_free]
            if not pending or not free:
                continue
            views = (PendingJobs(pending), FreeNodes(nodes, free))
            pending_ids = {job.job_id for job in pending}
            for assignment in scheduler.dispatch(*views, now):
                job, node = assignment.job, assignment.node
                valid = job.job_id in pending_ids and node in free
                if not valid or not node.is_free:
                    raise ValidationError("invalid assignment")
                config = assignment.score.config
                watts, seconds = node.oracle.measured(job.kernel, config)
                duration = seconds * job.invocations
                node.running = ActiveRun(
                    job=job,
                    config=config,
                    start_s=now,
                    finish_s=now + duration,
                    watts=watts,
                    energy_joules=watts * duration,
                )
                pending_ids.remove(job.job_id)
                push(now + duration, complete, (node, node.epoch))
                recorder.add("cluster.dispatched")
            pending = [job for job in pending if job.job_id in pending_ids]

        run_span.set(
            energy_joules=fleet_energy,
            deadline_misses=deadline_misses,
            makespan_s=makespan,
        )

    mix: Dict[str, int] = {}
    for node in nodes:
        mix[node.device_name] = mix.get(node.device_name, 0) + 1
    return ClusterReport(
        scheduler=scheduler.name,
        shape_name=trace.shape.name,
        seed=trace.seed,
        device_mix=tuple(sorted(mix.items())),
        records=tuple(sorted(records, key=lambda record: record.job_id)),
        fleet_energy_joules=fleet_energy,
        energy_by_device=tuple(sorted(energy_by_device.items())),
        makespan_s=makespan,
        deadline_misses=deadline_misses,
        rescheduled=rescheduled,
        node_failures=node_failures,
    )
