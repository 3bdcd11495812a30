"""The online DVFS manager (the paper's Sec. VII real-time deployment).

Flow, per distinct kernel of an application trace:

1. the kernel's **first invocation** runs at the device's current (reference)
   configuration while CUPTI collects its events — the profiling cost the
   paper argues is amortized by the iterative nature of GPU applications;
2. utilizations are computed (Eq. 8-10) and the DVFS-aware model predicts
   the power at every candidate configuration — no further execution needed,
   "a considerable decrease of the design search space" (Sec. III-E);
3. a :class:`~repro.runtime.policies.FrequencyPolicy` picks the kernel's
   configuration, which all remaining invocations use.

Energy accounting uses the device's measured power and per-invocation
execution time at the applied configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.dvfs import ConfigurationScore
from repro.core.metrics import MetricCalculator, UtilizationVector
from repro.core.model import DVFSPowerModel
from repro.core.perf_estimation import DevicePerformanceModel
from repro.driver.session import ProfilingSession
from repro.hardware.specs import FrequencyConfig
from repro.kernels.kernel import KernelDescriptor
from repro.runtime.policies import FrequencyPolicy
from repro.runtime.trace import (
    ApplicationTrace,
    PhaseExecution,
    TraceReport,
)
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder


@dataclass(frozen=True)
class KernelPlan:
    """The manager's decision for one kernel."""

    kernel_name: str
    utilizations: UtilizationVector
    chosen: ConfigurationScore
    reference: ConfigurationScore

    @property
    def config(self) -> FrequencyConfig:
        return self.chosen.config

    @property
    def predicted_energy_saving(self) -> float:
        if self.reference.energy_joules <= 0:
            return 0.0
        return 1.0 - self.chosen.energy_joules / self.reference.energy_joules


class OnlineDVFSManager:
    """Profile-once-then-pin DVFS management for kernel traces."""

    def __init__(
        self,
        model: DVFSPowerModel,
        session: ProfilingSession,
        policy: FrequencyPolicy,
        candidate_configs: Optional[Sequence[FrequencyConfig]] = None,
        recorder: Optional[TelemetryRecorder] = None,
        performance: Optional["DevicePerformanceModel"] = None,
        oracle_durations: bool = False,
    ) -> None:
        """``recorder`` defaults to the session's; it traces one ``plan``
        span per profiled kernel plus ``runtime.plans`` /
        ``runtime.plan_cache_hits`` counters and a ``trace`` span per
        executed application trace.

        ``performance`` (a fitted
        :class:`~repro.core.perf_estimation.DevicePerformanceModel`) makes
        planning fully model-driven: candidate durations come from
        ``predict_runtime`` instead of per-candidate executions. Kernels the
        model does not know fall back to measurement. ``oracle_durations=
        True`` keeps measured durations even when ``performance`` is set —
        the comparison baseline for policy-regret evaluation. Energy
        *accounting* (``run_trace``) always uses measured power and time,
        so reports grade the plans against ground truth either way."""
        self.model = model
        self.session = session
        self.policy = policy
        self.performance = performance
        self.oracle_durations = oracle_durations
        if recorder is None:
            recorder = getattr(session, "recorder", None) or NULL_RECORDER
        self.recorder = recorder
        spec = session.gpu.spec
        self.candidates = tuple(
            spec.validate_configuration(c)
            for c in (candidate_configs or spec.all_configurations())
        )
        self._calculator = MetricCalculator(spec)
        self._plans: Dict[str, KernelPlan] = {}

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_for(self, kernel: KernelDescriptor) -> KernelPlan:
        """The (cached) plan for a kernel; profiles it on first sight."""
        if kernel.name not in self._plans:
            self._plans[kernel.name] = self._build_plan(kernel)
        else:
            self.recorder.add("runtime.plan_cache_hits")
        return self._plans[kernel.name]

    @property
    def planned_kernels(self) -> List[str]:
        return list(self._plans)

    def prefetch_plans(
        self,
        kernels: Sequence[KernelDescriptor],
        workers: int = 2,
        executor=None,
    ) -> List[KernelPlan]:
        """Profile a batch of unseen kernels on worker processes, then plan.

        Event collection is a pure function of (device seed, kernel), so the
        utilizations workers report — and hence the plans built from them —
        are identical to what serial :meth:`plan_for` calls would produce.
        Kernels whose event collection keeps failing under an active fault
        plan are left unplanned (a later direct :meth:`plan_for` raises the
        same :class:`~repro.errors.PersistentDriverError` deterministically).
        Returns the newly built plans, in first-sight order.
        """
        from concurrent.futures import ProcessPoolExecutor

        from repro.parallel import worker as workerlib
        from repro.parallel.planner import MAX_SHARD_KERNELS
        from repro.parallel.spec import DeviceSpec

        unseen: List[KernelDescriptor] = []
        seen = set(self._plans)
        for kernel in kernels:
            if kernel.name not in seen:
                unseen.append(kernel)
                seen.add(kernel.name)
        if not unseen:
            return []
        device = DeviceSpec.from_session(self.session)
        chunks = [
            tuple(unseen[start : start + MAX_SHARD_KERNELS])
            for start in range(0, len(unseen), MAX_SHARD_KERNELS)
        ]
        own_pool = executor is None
        pool = (
            executor
            if executor is not None
            else ProcessPoolExecutor(max_workers=max(1, workers))
        )
        utilization_by_kernel: Dict[str, UtilizationVector] = {}
        clock = self.session.backoff_clock
        try:
            # The campaign's shard task with no configurations profiles
            # only; its outcome folds back exactly like a campaign shard's.
            futures = [
                pool.submit(
                    workerlib.run_shard_columns, device, index, chunk, (), 0
                )
                for index, chunk in enumerate(chunks)
            ]
            for chunk, future in zip(chunks, futures):
                result = future.result()
                if result.recorder is not None:
                    self.recorder.absorb(result.recorder)
                workerlib.apply_stats(self.session.fault_stats, result.stats)
                for seconds in result.profile_sleeps:
                    clock.total_seconds += seconds
                    clock.sleep_log.append(seconds)
                for kernel, utilization in zip(chunk, result.utilizations):
                    if utilization is not None:
                        utilization_by_kernel[kernel.name] = utilization
        finally:
            if own_pool:
                pool.shutdown(wait=True)
        plans: List[KernelPlan] = []
        for kernel in unseen:
            utilizations = utilization_by_kernel.get(kernel.name)
            if utilizations is None:
                continue
            plan = self._build_plan(kernel, utilizations=utilizations)
            self._plans[kernel.name] = plan
            plans.append(plan)
        return plans

    def _build_plan(
        self,
        kernel: KernelDescriptor,
        utilizations: Optional[UtilizationVector] = None,
    ) -> KernelPlan:
        spec = self.session.gpu.spec
        with self.recorder.span(
            "plan", kernel=kernel.name, candidates=len(self.candidates)
        ) as plan_span:
            if utilizations is None:
                # First invocation: profile at the reference configuration.
                events = self.session.collect_events(kernel)
                utilizations = self._calculator.utilizations(events)

            scores = []
            reference_score: Optional[ConfigurationScore] = None
            for config in self.candidates:
                predicted = self.model.predict_power(utilizations, config)
                time = self._plan_time(kernel, config)
                score = ConfigurationScore(
                    config=config,
                    predicted_power_watts=predicted,
                    time_seconds=time,
                )
                scores.append(score)
                if config == spec.reference:
                    reference_score = score
            if reference_score is None:
                # Candidates exclude the reference: score it anyway for the
                # policies that need the comparison point.
                reference_score = ConfigurationScore(
                    config=spec.reference,
                    predicted_power_watts=self.model.predict_power(
                        utilizations, spec.reference
                    ),
                    time_seconds=self._plan_time(kernel, spec.reference),
                )
            chosen = self.policy.choose(scores, reference_score)
            plan_span.set(
                core=chosen.config.core_mhz, memory=chosen.config.memory_mhz
            )
        self.recorder.add("runtime.plans")
        return KernelPlan(
            kernel_name=kernel.name,
            utilizations=utilizations,
            chosen=chosen,
            reference=reference_score,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_trace(self, trace: ApplicationTrace) -> TraceReport:
        """Execute a trace under the policy and account the outcome."""
        spec = self.session.gpu.spec
        with self.recorder.span(
            "trace", trace=trace.name, phases=len(trace.phases)
        ):
            executions, _ = self._execute_phases(trace)

        baseline_energy = 0.0
        baseline_time = 0.0
        for phase in trace.phases:
            single_energy = self._invocation_energy(
                phase.kernel, spec.reference
            )
            single_time = self._invocation_time(phase.kernel, spec.reference)
            baseline_energy += phase.invocations * single_energy
            baseline_time += phase.invocations * single_time
        return TraceReport(
            trace_name=trace.name,
            device_name=spec.name,
            executions=tuple(executions),
            baseline_energy_joules=baseline_energy,
            baseline_time_seconds=baseline_time,
        )

    def _execute_phases(self, trace: ApplicationTrace):
        spec = self.session.gpu.spec
        executions: List[PhaseExecution] = []
        profiled: set = set()
        for phase in trace.phases:
            kernel = phase.kernel
            first_sight = kernel.name not in self._plans
            plan = self.plan_for(kernel)
            invocations = phase.invocations
            energy = 0.0
            time = 0.0
            remaining = invocations
            if first_sight and kernel.name not in profiled:
                # The profiling invocation ran at the reference.
                energy += self._invocation_energy(kernel, spec.reference)
                time += self._invocation_time(kernel, spec.reference)
                remaining -= 1
                profiled.add(kernel.name)
            if remaining > 0:
                energy += remaining * self._invocation_energy(
                    kernel, plan.config
                )
                time += remaining * self._invocation_time(kernel, plan.config)
            executions.append(
                PhaseExecution(
                    kernel_name=kernel.name,
                    invocations=invocations,
                    config=plan.config,
                    profiled=first_sight,
                    energy_joules=energy,
                    time_seconds=time,
                )
            )
        return executions, profiled

    # ------------------------------------------------------------------
    def _plan_time(
        self, kernel: KernelDescriptor, config: FrequencyConfig
    ) -> float:
        """Candidate duration during planning: predicted when a performance
        model knows the kernel (and oracle mode is off), measured otherwise."""
        if (
            self.performance is not None
            and not self.oracle_durations
            and self.performance.has_kernel(kernel.name)
        ):
            return self.performance.predict_runtime(kernel.name, config)
        return self.session.measure_time(kernel, config)

    def _invocation_time(
        self, kernel: KernelDescriptor, config: FrequencyConfig
    ) -> float:
        return self.session.measure_time(kernel, config)

    def _invocation_energy(
        self, kernel: KernelDescriptor, config: FrequencyConfig
    ) -> float:
        measurement = self.session.measure_power(kernel, config, median=False)
        duration = self.session.measure_time(kernel, config)
        return measurement.average_watts * duration
