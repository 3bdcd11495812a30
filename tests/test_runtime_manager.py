"""Integration tests for the online DVFS manager and traces
(:mod:`repro.runtime.manager` / :mod:`repro.runtime.trace`)."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.hardware.specs import FrequencyConfig, GTX_TITAN_X
from repro.runtime.manager import OnlineDVFSManager
from repro.runtime.policies import EnergyPolicy, PowerCapPolicy, StaticPolicy
from repro.runtime.trace import ApplicationTrace, TracePhase, TraceReport
from repro.workloads import all_workloads, workload_by_name


@pytest.fixture(scope="module")
def manager(lab) -> OnlineDVFSManager:
    device = "GTX Titan X"
    return OnlineDVFSManager(
        lab.model(device),
        lab.session(device),
        EnergyPolicy(max_slowdown=1.10),
    )


@pytest.fixture(scope="module")
def solver_trace() -> ApplicationTrace:
    return ApplicationTrace.from_pairs(
        "solver",
        [
            (workload_by_name("gemm"), 40),
            (workload_by_name("lbm"), 20),
            (workload_by_name("gemm"), 40),
        ],
    )


class TestTraceStructures:
    def test_phase_rejects_nonpositive_invocations(self):
        with pytest.raises(ValidationError):
            TracePhase(kernel=workload_by_name("gemm"), invocations=0)

    def test_trace_rejects_empty(self):
        with pytest.raises(ValidationError):
            ApplicationTrace(name="empty", phases=())

    def test_distinct_kernels(self, solver_trace):
        names = [k.name for k in solver_trace.distinct_kernels()]
        assert names == ["gemm", "lbm"]

    def test_total_invocations(self, solver_trace):
        assert solver_trace.total_invocations == 100


class TestPlanning:
    def test_prefetched_plans_equal_serial_plans(self, lab):
        """Worker-profiled plans (the campaign's shard task, profiling
        only) match plans built by profiling in-process, kernel by
        kernel — across more kernels than one shard holds."""
        device = "GTX Titan X"

        def fresh_manager():
            return OnlineDVFSManager(
                lab.model(device),
                lab.session(device),
                EnergyPolicy(max_slowdown=1.10),
            )

        kernels = all_workloads()[:6]
        prefetched = fresh_manager().prefetch_plans(kernels, workers=2)
        serial = fresh_manager()
        assert [plan.kernel_name for plan in prefetched] == [
            kernel.name for kernel in kernels
        ]
        for plan, kernel in zip(prefetched, kernels):
            assert plan == serial.plan_for(kernel)

    def test_plans_are_cached_per_kernel(self, manager):
        kernel = workload_by_name("gemm")
        assert manager.plan_for(kernel) is manager.plan_for(kernel)

    def test_plan_has_reference_comparison(self, manager):
        plan = manager.plan_for(workload_by_name("gemm"))
        assert plan.reference.config == GTX_TITAN_X.reference
        assert 0.0 <= plan.predicted_energy_saving < 1.0

    def test_plan_respects_candidate_restriction(self, lab):
        device = "GTX Titan X"
        candidates = [GTX_TITAN_X.reference, FrequencyConfig(785, 3505)]
        manager = OnlineDVFSManager(
            lab.model(device),
            lab.session(device),
            EnergyPolicy(),
            candidate_configs=candidates,
        )
        plan = manager.plan_for(workload_by_name("cutcp"))
        assert plan.config in candidates


class TestTraceExecution:
    def test_report_accounting_consistent(self, manager, solver_trace):
        report = manager.run_trace(solver_trace)
        assert isinstance(report, TraceReport)
        assert len(report.executions) == 3
        assert report.total_energy_joules > 0
        assert report.total_time_seconds > 0
        assert report.baseline_energy_joules > 0

    def test_energy_policy_saves_energy(self, manager, solver_trace):
        report = manager.run_trace(solver_trace)
        assert report.energy_saving_fraction > 0.05
        assert report.slowdown < 1.15

    def test_profiling_happens_once_per_kernel(self, lab, solver_trace):
        device = "GTX Titan X"
        fresh_manager = OnlineDVFSManager(
            lab.model(device),
            lab.session(device),
            EnergyPolicy(max_slowdown=1.10),
        )
        report = fresh_manager.run_trace(solver_trace)
        profiled_phases = [e for e in report.executions if e.profiled]
        # gemm profiled in phase 0, lbm in phase 1; phase 2 reuses the plan.
        assert len(profiled_phases) == 2
        assert not report.executions[2].profiled

    def test_static_reference_policy_matches_baseline(self, lab, solver_trace):
        device = "GTX Titan X"
        manager = OnlineDVFSManager(
            lab.model(device),
            lab.session(device),
            StaticPolicy(GTX_TITAN_X.reference),
        )
        report = manager.run_trace(solver_trace)
        assert report.total_energy_joules == pytest.approx(
            report.baseline_energy_joules, rel=1e-9
        )
        assert report.slowdown == pytest.approx(1.0)

    def test_power_cap_policy_respects_cap(self, lab, solver_trace):
        device = "GTX Titan X"
        cap = 120.0
        manager = OnlineDVFSManager(
            lab.model(device),
            lab.session(device),
            PowerCapPolicy(cap_watts=cap),
        )
        manager.run_trace(solver_trace)
        for name in manager.planned_kernels:
            plan = manager._plans[name]
            assert plan.chosen.predicted_power_watts <= cap

    def test_chosen_configs_cover_all_kernels(self, manager, solver_trace):
        report = manager.run_trace(solver_trace)
        assert set(report.chosen_configs()) == {"gemm", "lbm"}
