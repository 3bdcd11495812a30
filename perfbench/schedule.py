"""``schedule``: a fleet simulation with the fitted models as its oracle.

Set-up fits the three devices' power models in a ``Lab`` and generates
the seeded burst trace (6000 jobs) and node-churn plan (MTBF 0.5 s, MTTR
0.1 s). Every pass fits fresh ``DeviceOracle``s on fresh sessions, so
score tables, energy frontiers and the ground-truth memo start cold,
then runs the ``edf`` scheduler over a 1024-node 40/40/20 fleet.

The operation latency of this workload is one ``Scheduler.dispatch``
call, timed by a scheduler that delegates to ``edf``. Checks: every job
completes, and the per-device energies sum to the fleet energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import List

from perfbench.common import DEVICES, PassResult
from perfbench.tracing import Tracer
from repro.cluster import (
    ClusterSimulator,
    DeviceOracle,
    NodeFailurePlan,
    Scheduler,
    build_fleet,
    fleet_reference_seconds,
    generate_job_trace,
    scheduler_by_name,
)
from repro.experiments.cluster_savings import (
    HORIZON_S,
    build_oracles,
    default_mix,
)
from repro.experiments.common import Lab
from repro.telemetry import NULL_RECORDER, TraceRecorder

NODES = 1024
JOBS = 6000
SHAPE = "burst"
SCHEDULER = "edf"
MTBF_S = 0.5
MTTR_S = 0.1

HEADLINE_ALIASES = {"sim_jobs_per_s": "ops_per_s"}
HEADLINE_OUTPUTS = {"fleet_energy_kj": "kJ", "deadline_miss_pct": "%"}


@dataclass
class ScheduleState:
    lab: object
    kernels: tuple
    trace: object
    failure_plan: object


def setup(seed: int) -> ScheduleState:
    lab = Lab()
    for device in DEVICES:
        lab.model(device)
    kernels = tuple(lab.workloads(DEVICES[0]))
    oracles = build_oracles(kernels, lab=lab)
    references = fleet_reference_seconds(
        [oracles[device] for device in sorted(oracles)], kernels
    )
    trace = generate_job_trace(
        SHAPE, JOBS, seed, kernels, references, horizon_s=HORIZON_S
    )
    plan = NodeFailurePlan(mtbf_s=MTBF_S, mttr_s=MTTR_S, seed=seed)
    return ScheduleState(lab, kernels, trace, plan)


class _PassLab(Lab):
    """A Lab with fresh devices that reuses ``fitted``'s models."""

    def __init__(self, fitted: Lab) -> None:
        super().__init__(fitted.settings)
        self._fitted = fitted

    def dataset(self, device):
        return self._fitted.dataset(device)

    def model(self, device):
        return self._fitted.model(device)


class _TimedScheduler(Scheduler):
    """Delegates to ``inner``, timing every ``dispatch`` call."""

    def __init__(self, inner: Scheduler, tracer: Tracer) -> None:
        self.name = inner.name
        self.inner = inner
        self.tracer = tracer
        self.latencies_ms: List[float] = []

    def dispatch(self, pending, free_nodes, now):
        index = self.tracer.open("cluster.dispatch")
        start = perf_counter()
        try:
            return self.inner.dispatch(pending, free_nodes, now)
        finally:
            self.latencies_ms.append((perf_counter() - start) * 1e3)
            self.tracer.close(index)


def run_pass(state: ScheduleState, tracer: Tracer) -> PassResult:
    recorder = TraceRecorder() if tracer.enabled else NULL_RECORDER
    scheduler = _TimedScheduler(scheduler_by_name(SCHEDULER), tracer)
    lab = _PassLab(state.lab)
    fit = tracer.wrap("cluster.oracle_fit", DeviceOracle.fit)
    start = perf_counter()
    with tracer.span("pass"):
        oracles = {
            device: fit(device, state.kernels, lab=lab, recorder=recorder)
            for device in DEVICES
        }
        if tracer.enabled:
            for oracle in oracles.values():
                oracle.frontier = tracer.wrap(
                    "cluster.oracle_frontier", oracle.frontier
                )
                oracle.scores = tracer.wrap(
                    "cluster.oracle_scores", oracle.scores
                )
                oracle.measured = tracer.wrap(
                    "cluster.oracle_measure", oracle.measured
                )
        with tracer.span("cluster.build_fleet"):
            nodes = build_fleet(oracles, default_mix(NODES))
            simulator = ClusterSimulator(
                nodes,
                scheduler,
                recorder=recorder,
                failure_plan=state.failure_plan,
            )
        with tracer.span("cluster.simulate"):
            report = simulator.run(state.trace)
    wall = perf_counter() - start

    problems = []
    completed = {record.job_id for record in report.records}
    missing = len(state.trace.jobs) - len(completed)
    if missing:
        problems.append(f"{missing} of {len(state.trace.jobs)} jobs never completed")
    by_device = math.fsum(energy for _, energy in report.energy_by_device)
    if not math.isclose(by_device, report.fleet_energy_joules, rel_tol=1e-9):
        problems.append(
            f"energy_by_device sums to {by_device!r} J, fleet energy is "
            f"{report.fleet_energy_joules!r} J"
        )
    result = PassResult(
        started=start,
        wall_s=wall,
        ops=report.n_jobs,
        latencies_ms=scheduler.latencies_ms,
        attempted=len(state.trace.jobs),
        failed=missing,
        fixed={
            "jobs": report.n_jobs,
            "fleet_energy_kj": report.fleet_energy_joules / 1e3,
            "deadline_misses": report.deadline_misses,
            "deadline_miss_pct": 100.0 * report.miss_rate,
            "node_failures": report.node_failures,
            "rescheduled": report.rescheduled,
            "makespan_s": report.makespan_s,
        },
        problems=problems,
    )
    if tracer.enabled:
        result.layers.update(_layers(tracer, recorder, report, result.fixed))
    return result


def _layers(tracer: Tracer, recorder, report, fixed) -> dict:
    layers = tracer.layers()

    def layer(name: str, key: str = "total_s") -> float:
        return layers.get(name, {}).get(key, 0.0)

    events = int(
        recorder.counter("cluster.arrivals")
        + recorder.counter("cluster.completed")
        + recorder.counter("cluster.node_failures")
        + recorder.counter("cluster.node_recoveries")
    )
    simulate_s = layer("cluster.simulate")
    return {
        "cluster.oracle_fit_s": layer("cluster.oracle_fit"),
        "cluster.dispatch_s": layer("cluster.dispatch"),
        "cluster.dispatch_calls": layers.get("cluster.dispatch", {}).get(
            "calls", 0
        ),
        "cluster.oracle_score_s": layer("cluster.oracle_frontier", "self_s")
        + layer("cluster.oracle_scores", "self_s"),
        "cluster.oracle_measure_s": layer("cluster.oracle_measure"),
        "cluster.simulate_s": simulate_s,
        "cluster.loop_self_s": layer("cluster.simulate", "self_s"),
        "cluster.events": events,
        "cluster.host_us_per_event": simulate_s * 1e6 / events,
        "cluster.node_failures": report.node_failures,
        "cluster.rescheduled": report.rescheduled,
        "cluster.fleet_energy_kj": fixed["fleet_energy_kj"],
        "cluster.deadline_miss_pct": fixed["deadline_miss_pct"],
    }
