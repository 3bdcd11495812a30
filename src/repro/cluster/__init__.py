"""Deadline-aware energy scheduling over a simulated GPU fleet.

The paper fits a DVFS-aware power model; PR 8's
:class:`~repro.core.perf_estimation.EnergyModel` married it to a fitted
runtime model. This package is the product-shaped payoff: a discrete-event
**cluster simulator** in pure virtual time, where thousands of simulated
GPU nodes (any heterogeneous mix of the three device specs) execute seeded
job traces, and pluggable fleet schedulers use the fitted model as an
*oracle* to pick a per-job V-F configuration — energy accounting always
against the device ground truth, so a scheduler is graded on what its
predictions actually bought.

Layout:

* :mod:`~repro.cluster.jobs` — seeded job traces on the shared
  :mod:`repro.traffic` arrival shapes (each job: kernel, size, deadline);
* :mod:`~repro.cluster.node` — the per-device model oracle
  (power + runtime + energy, with ground-truth memoization) and the
  lightweight :class:`GPUNode` state machine;
* :mod:`~repro.cluster.schedulers` — max-clocks FIFO baseline,
  energy-greedy placement, deadline-aware EDF, and a power-capped
  variant reusing :mod:`repro.runtime.policies`;
* :mod:`~repro.cluster.state` — the incrementally maintained free-node
  pools and pending queue the schedulers read;
* :mod:`~repro.cluster.faults` — seeded node failure/recovery plans
  (the chaos layer's discipline at fleet scale);
* :mod:`~repro.cluster.simulator` — the virtual-time event loop,
  ``cluster.*`` telemetry, and the :class:`ClusterReport`;
* :mod:`~repro.cluster.bench` — the ``BENCH_cluster.json`` gate.
"""

from repro.cluster.faults import NodeFailurePlan
from repro.cluster.jobs import (
    Job,
    JobTrace,
    fleet_reference_seconds,
    generate_job_trace,
)
from repro.cluster.node import DeviceOracle, GPUNode, build_fleet
from repro.cluster.schedulers import (
    SCHEDULER_NAMES,
    Assignment,
    DeadlineAwareEdfScheduler,
    EnergyGreedyScheduler,
    MaxClocksFifoScheduler,
    PowerCappedEdfScheduler,
    Scheduler,
    scheduler_by_name,
)
from repro.cluster.simulator import ClusterReport, ClusterSimulator, JobRecord

__all__ = [
    "Job",
    "JobTrace",
    "generate_job_trace",
    "fleet_reference_seconds",
    "DeviceOracle",
    "GPUNode",
    "build_fleet",
    "Scheduler",
    "Assignment",
    "MaxClocksFifoScheduler",
    "EnergyGreedyScheduler",
    "DeadlineAwareEdfScheduler",
    "PowerCappedEdfScheduler",
    "SCHEDULER_NAMES",
    "scheduler_by_name",
    "NodeFailurePlan",
    "ClusterSimulator",
    "ClusterReport",
    "JobRecord",
]
