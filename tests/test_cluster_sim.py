"""Cluster simulator + scheduler tests: determinism, dominance, chaos.

The fleet here is deliberately tiny (a handful of nodes, two device
types, a short kernel pool) — the simulator's costs are per *device
type*, so small fleets exercise every code path the 2048-node bench
uses. The acceptance-critical assertions: same-seed runs are bitwise
identical (report bytes and telemetry counters) for every scheduler, and
the deadline-aware scheduler beats the max-clocks baseline on energy
without giving up deadline misses.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import (
    ClusterSimulator,
    DeviceOracle,
    NodeFailurePlan,
    build_fleet,
    fleet_reference_seconds,
    generate_job_trace,
    scheduler_by_name,
)
from repro.cluster.node import EnergyFrontier, GPUNode
from repro.cluster.schedulers import SCHEDULER_NAMES, Assignment, Scheduler
from repro.errors import ValidationError
from repro.telemetry import TraceRecorder

DEVICES = ("Titan Xp", "GTX Titan X")
N_KERNELS = 5
N_JOBS = 60
SEED = 1234


@pytest.fixture(scope="module")
def kernels(lab):
    return tuple(lab.workloads(DEVICES[0]))[:N_KERNELS]


@pytest.fixture(scope="module")
def oracles(lab, kernels):
    return {
        device: DeviceOracle.fit(device, kernels, lab=lab)
        for device in DEVICES
    }


@pytest.fixture(scope="module")
def trace(oracles, kernels):
    references = fleet_reference_seconds(
        [oracles[device] for device in sorted(oracles)], kernels
    )
    return generate_job_trace(
        "burst", N_JOBS, SEED, kernels, references, horizon_s=1.0
    )


@pytest.fixture(scope="module")
def fleet(oracles):
    return build_fleet(oracles, {"Titan Xp": 3, "GTX Titan X": 3})


def run_scheduler(fleet, trace, name, recorder=None, failure_plan=None):
    simulator = ClusterSimulator(
        fleet,
        scheduler_by_name(name),
        recorder=recorder,
        failure_plan=failure_plan,
    )
    return simulator.run(trace)


class TestDeterminism:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_same_seed_bitwise_identical(self, fleet, trace, name):
        first_recorder = TraceRecorder()
        second_recorder = TraceRecorder()
        first = run_scheduler(fleet, trace, name, recorder=first_recorder)
        second = run_scheduler(fleet, trace, name, recorder=second_recorder)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )
        assert first_recorder.counters() == second_recorder.counters()

    def test_chaos_runs_deterministic_too(self, fleet, trace):
        plan = NodeFailurePlan(mtbf_s=0.3, mttr_s=0.05, seed=SEED)
        first = run_scheduler(fleet, trace, "edf", failure_plan=plan)
        second = run_scheduler(fleet, trace, "edf", failure_plan=plan)
        assert first.to_dict() == second.to_dict()


#: SHA-256 of ``json.dumps(report.to_dict(), sort_keys=True)`` for this
#: module's fleet and trace. Any drift in dispatch order, tie-breaks or
#: accounting changes these bytes.
GOLDEN_REPORT_SHA256 = {
    "max-clocks": "a59f5a5fb189c8c15c1c7f3459a88d40b4eab5599660aef85a374cd68cfda8b5",
    "energy-greedy": "5479d73f06081aaa95c5e4f27c1960da48c7a89f7601f055ff2a4199cd564172",
    "edf": "734ffd470fd5b0aa30a3ae876aaa50110c3682fd8b6d4b55ca18c0afd61b936d",
    "powercap-edf": "2a6db4e0a9280e7b1cae5a49dfefa0e1c57fae579380b849eeb0d7bc26ed940d",
}
GOLDEN_CHURN_EDF_SHA256 = (
    "3c2f8e04a8e14dced6f7e3dfac91845c5d1e0b560eb06f4b8bc27690bdb38bea"
)


def report_sha256(report) -> str:
    payload = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGoldenPin:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_report_bytes_pinned(self, fleet, trace, name):
        report = run_scheduler(fleet, trace, name)
        assert report_sha256(report) == GOLDEN_REPORT_SHA256[name]

    def test_churned_edf_report_bytes_pinned(self, fleet, trace):
        plan = NodeFailurePlan(mtbf_s=0.15, mttr_s=0.05, seed=SEED)
        report = run_scheduler(fleet, trace, "edf", failure_plan=plan)
        assert report_sha256(report) == GOLDEN_CHURN_EDF_SHA256


class TestCompletionAccounting:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_every_job_completes_once(self, fleet, trace, name):
        report = run_scheduler(fleet, trace, name)
        assert report.n_jobs == len(trace)
        assert sorted(r.job_id for r in report.records) == list(
            range(len(trace))
        )
        for record in report.records:
            assert record.start_s >= record.arrival_s
            assert record.finish_s > record.start_s
            assert record.energy_joules > 0
            assert record.attempts == 1

    def test_energy_totals_are_consistent(self, fleet, trace):
        report = run_scheduler(fleet, trace, "edf")
        assert report.fleet_energy_joules == pytest.approx(
            sum(r.energy_joules for r in report.records)
        )
        assert report.fleet_energy_joules == pytest.approx(
            sum(energy for _, energy in report.energy_by_device)
        )
        assert report.makespan_s == max(r.finish_s for r in report.records)

    def test_telemetry_counters(self, fleet, trace):
        recorder = TraceRecorder()
        report = run_scheduler(fleet, trace, "edf", recorder=recorder)
        counters = recorder.counters()
        assert counters["cluster.arrivals"] == len(trace)
        assert counters["cluster.completed"] == len(trace)
        assert counters["cluster.dispatched"] == len(trace)
        assert (
            counters.get("cluster.deadline_misses", 0.0)
            == report.deadline_misses
        )

    def test_max_clocks_baseline_pins_max_configuration(self, fleet, trace):
        report = run_scheduler(fleet, trace, "max-clocks")
        specs = {node.name: node.spec for node in fleet}
        for record in report.records:
            maximum = specs[record.node_name].max_configuration
            assert record.core_mhz == maximum.core_mhz
            assert record.memory_mhz == maximum.memory_mhz


class TestSchedulerQuality:
    def test_edf_beats_max_clocks_on_energy_and_misses(self, fleet, trace):
        baseline = run_scheduler(fleet, trace, "max-clocks")
        edf = run_scheduler(fleet, trace, "edf")
        assert edf.fleet_energy_joules < baseline.fleet_energy_joules
        assert edf.deadline_misses <= baseline.deadline_misses

    def test_energy_greedy_minimizes_energy(self, fleet, trace):
        baseline = run_scheduler(fleet, trace, "max-clocks")
        greedy = run_scheduler(fleet, trace, "energy-greedy")
        assert greedy.fleet_energy_joules < baseline.fleet_energy_joules

    def test_power_cap_respected_when_feasible(self, oracles, trace, fleet):
        cap = 150.0
        report = ClusterSimulator(
            fleet, scheduler_by_name("powercap-edf", cap_watts=cap)
        ).run(trace)
        uncapped = run_scheduler(fleet, trace, "edf")
        by_kernel = {job.kernel.name: job.kernel for job in trace.jobs}
        oracle_by_device = {
            oracle.device_name: oracle for oracle in oracles.values()
        }

        def predicted_watts(record):
            oracle = oracle_by_device[record.device_name]
            kernel = by_kernel[record.kernel_name]
            config = record_config(record, oracle)
            return oracle.score_at(kernel, config).predicted_power_watts

        # The cap binds: plain EDF would break it, so capping changes runs.
        assert any(predicted_watts(r) > cap for r in uncapped.records)
        assert report.records != uncapped.records
        for record in report.records:
            oracle = oracle_by_device[record.device_name]
            scores = oracle.scores(by_kernel[record.kernel_name])
            if any(s.predicted_power_watts <= cap for s in scores):
                assert predicted_watts(record) <= cap


def record_config(record, oracle):
    from repro.hardware.specs import FrequencyConfig

    return oracle.spec.validate_configuration(
        FrequencyConfig(record.core_mhz, record.memory_mhz)
    )


class TestChaos:
    def test_node_failures_reschedule_and_complete(self, fleet, trace):
        recorder = TraceRecorder()
        plan = NodeFailurePlan(mtbf_s=0.15, mttr_s=0.05, seed=SEED)
        report = run_scheduler(
            fleet, trace, "edf", recorder=recorder, failure_plan=plan
        )
        assert report.node_failures > 0
        assert report.n_jobs == len(trace)  # nothing lost to churn
        counters = recorder.counters()
        assert counters["cluster.node_failures"] == report.node_failures
        assert (
            counters["cluster.dispatched"]
            == len(trace) + report.rescheduled
        )
        if report.rescheduled:
            assert any(r.attempts > 1 for r in report.records)

    def test_churn_costs_energy_not_jobs(self, fleet, trace):
        plan = NodeFailurePlan(mtbf_s=0.15, mttr_s=0.05, seed=SEED)
        calm = run_scheduler(fleet, trace, "edf")
        churned = run_scheduler(fleet, trace, "edf", failure_plan=plan)
        if churned.rescheduled:
            # Partial runs burn energy that completed work repeats.
            assert (
                churned.fleet_energy_joules > calm.fleet_energy_joules
            )


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValidationError):
            ClusterSimulator([], scheduler_by_name("edf"))

    def test_duplicate_node_names_rejected(self, oracles):
        oracle = oracles[DEVICES[0]]
        nodes = [GPUNode("twin", oracle), GPUNode("twin", oracle)]
        with pytest.raises(ValidationError, match="unique"):
            ClusterSimulator(nodes, scheduler_by_name("edf"))

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValidationError, match="unknown scheduler"):
            scheduler_by_name("round-robin")

    def test_power_cap_must_be_positive(self):
        with pytest.raises(ValidationError):
            scheduler_by_name("powercap-edf", cap_watts=0.0)

    def test_node_outside_the_fleet_rejected(self, fleet, trace):
        impostor = GPUNode(fleet[0].name, fleet[0].oracle)
        scheduler = _StubScheduler(lambda free_nodes: [impostor])
        with pytest.raises(ValidationError, match="not in this fleet"):
            ClusterSimulator(fleet, scheduler).run(trace)

    def test_busy_node_rejected(self, fleet, trace):
        def twice(free_nodes):
            index = next(free_nodes.in_name_order())
            return [free_nodes.fleet[index]] * 2

        with pytest.raises(ValidationError, match="busy or offline"):
            ClusterSimulator(fleet, _StubScheduler(twice)).run(trace)


class _StubScheduler(Scheduler):
    """Puts the EDF-first pending jobs on whatever ``pick`` returns."""

    name = "stub"

    def __init__(self, pick):
        self.pick = pick

    def dispatch(self, pending, free_nodes, now):
        return [
            Assignment(
                job=job,
                node=node,
                score=node.oracle.score_at(
                    job.kernel, node.spec.max_configuration
                ),
            )
            for job, node in zip(pending.edf(), self.pick(free_nodes))
        ]


class TestEnergyFrontier:
    def test_best_within_matches_linear_scan(self, oracles, kernels):
        oracle = oracles[DEVICES[1]]
        kernel = kernels[0]
        frontier = oracle.frontier(kernel)
        scores = oracle.scores(kernel)
        for budget in (0.0, 5e-4, 1e-3, 2e-3, 1e-2, 1.0):
            expected = [
                s for s in scores if s.time_seconds <= budget
            ]
            got = frontier.best_within(budget)
            if not expected:
                assert got is None
            else:
                best = min(expected, key=lambda s: s.energy_joules)
                assert got.energy_joules == best.energy_joules

    def test_fastest_is_min_runtime(self, oracles, kernels):
        oracle = oracles[DEVICES[0]]
        frontier = oracle.frontier(kernels[1])
        scores = oracle.scores(kernels[1])
        assert frontier.fastest.time_seconds == min(
            s.time_seconds for s in scores
        )

    def test_empty_frontier_rejected(self):
        with pytest.raises(ValidationError):
            EnergyFrontier.build([])
