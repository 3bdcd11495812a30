"""Profiling session: the Sec. V-A measurement methodology in one object.

A :class:`ProfilingSession` bundles an NVML handle and a CUPTI context for
one device and exposes the two operations the modeling pipeline needs:

* ``measure_power(kernel, config)`` — set the application clocks, run the
  kernel repeatedly (>= 1 s at the fastest configuration), average the power
  samples, repeat 10 times, report the median;
* ``collect_events(kernel)`` — gather the Table-I raw events at the
  reference configuration.

``observe`` combines both into the tuple the estimator trains on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import SimulationSettings
from repro.driver.cupti import CuptiContext, EventRecord
from repro.driver.faults import (
    DEFAULT_RETRY_POLICY,
    BackoffClock,
    FaultPlan,
    FaultStats,
    RetryPolicy,
)
from repro.driver.nvml import NVMLDevice, PowerColumns, PowerMeasurement
from repro.errors import PersistentDriverError, TransientCuptiError
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import FrequencyConfig
from repro.kernels.kernel import KernelDescriptor
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder


@dataclass(frozen=True)
class TimingMeasurement:
    """Host-side timing of one kernel launch, with the throttle outcome.

    TDP throttling can run a kernel at a lower core frequency than
    requested (Fig. 9 footnote), so timing-sensitive consumers — the
    performance estimator's probe fit, the runtime validation sweep — need
    the *applied* configuration next to the elapsed seconds. A bare
    :meth:`ProfilingSession.measure_time` keeps returning the float for
    callers that don't care.
    """

    kernel_name: str
    requested_config: FrequencyConfig
    applied_config: FrequencyConfig
    seconds: float

    @property
    def throttled(self) -> bool:
        return self.requested_config != self.applied_config


@dataclass(frozen=True)
class KernelObservation:
    """Everything measured about one kernel at one configuration."""

    kernel: KernelDescriptor
    power: PowerMeasurement
    #: Raw events, collected at the reference configuration only (the
    #: paper's methodology) — ``None`` for non-reference observations.
    events: Optional[EventRecord]

    @property
    def config(self) -> FrequencyConfig:
        return self.power.applied_config

    @property
    def measured_watts(self) -> float:
        return self.power.average_watts


class ProfilingSession:
    """Measurement front-end for one simulated device."""

    def __init__(
        self,
        gpu: SimulatedGPU,
        settings: Optional[SimulationSettings] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        recorder: Optional[TelemetryRecorder] = None,
    ) -> None:
        """``fault_plan`` defaults to the plan attached to the board (if
        any); the session then shares one retry policy, virtual backoff
        clock and fault tally across its NVML and CUPTI handles.
        ``recorder`` (default: the board's, else the no-op recorder) is
        shared the same way — the campaign/estimator layers read it back
        via :attr:`recorder`."""
        self.gpu = gpu
        self.settings = settings or gpu.settings
        if fault_plan is None:
            fault_plan = getattr(gpu, "fault_plan", None)
        self.fault_plan = fault_plan
        if recorder is None:
            recorder = getattr(gpu, "recorder", None) or NULL_RECORDER
        self.recorder = recorder
        self.retry_policy = retry or DEFAULT_RETRY_POLICY
        self.backoff_clock = BackoffClock(recorder=recorder)
        self.fault_stats = FaultStats()
        self.nvml = NVMLDevice(
            gpu,
            self.settings,
            fault_plan=fault_plan,
            retry=self.retry_policy,
            clock=self.backoff_clock,
            stats=self.fault_stats,
            recorder=recorder,
        )
        self.cupti = CuptiContext(
            gpu,
            self.settings,
            fault_plan=fault_plan,
            stats=self.fault_stats,
            recorder=recorder,
        )

    @property
    def reference(self) -> FrequencyConfig:
        return self.gpu.spec.reference

    def device_spec(self):
        """The frozen, picklable reconstruction recipe for this session.

        Worker processes of the sharded campaign executor rebuild an
        equivalent session from it — see :mod:`repro.parallel.spec`.
        """
        from repro.parallel.spec import DeviceSpec

        return DeviceSpec.from_session(self)

    # ------------------------------------------------------------------
    def measure_power(
        self,
        kernel: KernelDescriptor,
        config: Optional[FrequencyConfig] = None,
        median: bool = True,
    ) -> PowerMeasurement:
        """Median (or single) power measurement at a configuration."""
        target = config or self.reference
        self.nvml.set_application_clocks(target.core_mhz, target.memory_mhz)
        if median:
            return self.nvml.measure_median_power(kernel)
        return self.nvml.measure_power(kernel)

    def measure_grid_columns(
        self,
        kernels: Sequence[KernelDescriptor],
        configs: Optional[Sequence[FrequencyConfig]] = None,
        on_unreadable: str = "raise",
    ) -> PowerColumns:
        """The whole kernel x configuration power matrix, as columns.

        Delegates to :meth:`NVMLDevice.measure_power_grid_columns`; every
        cell is bitwise identical to a scalar :meth:`measure_power` call at
        the same (kernel, configuration). The application clocks are left
        untouched. ``on_unreadable`` (``"raise"``/``"skip"``) controls what
        happens to cells that stay unreadable under an active fault plan.
        This is the measurement step of every campaign, serial or sharded.
        """
        return self.nvml.measure_power_grid_columns(
            kernels, configs, on_unreadable=on_unreadable
        )

    def collect_events(
        self, kernel: KernelDescriptor, config: Optional[FrequencyConfig] = None
    ) -> EventRecord:
        """Raw Table-I events (defaults to the reference configuration).

        Under an active fault plan, transient CUPTI failures retry with
        backoff on the session's virtual clock; an exhausted budget raises
        :class:`PersistentDriverError`.
        """
        target = config or self.reference
        plan = self.fault_plan
        if plan is None or not plan.enabled:
            return self.cupti.collect_events(kernel, target)
        policy = self.retry_policy
        last_error: Optional[TransientCuptiError] = None
        for attempt in range(policy.max_attempts):
            try:
                return self.cupti.collect_events(kernel, target, attempt=attempt)
            except TransientCuptiError as error:
                last_error = error
                if attempt + 1 < policy.max_attempts:
                    self.recorder.add("cupti.retries")
                    self.backoff_clock.sleep(policy.delay_for(attempt))
        raise PersistentDriverError(
            f"event collection for {kernel.name} on {self.gpu.spec.name} "
            f"still failing after {policy.max_attempts} attempts"
        ) from last_error

    def measure_time(
        self, kernel: KernelDescriptor, config: Optional[FrequencyConfig] = None
    ) -> float:
        """Host-side execution time of one kernel launch, in seconds."""
        return self.gpu.run(kernel, config or self.reference).duration_seconds

    def measure_elapsed(
        self, kernel: KernelDescriptor, config: Optional[FrequencyConfig] = None
    ) -> TimingMeasurement:
        """Host-side execution time plus the applied (post-throttle) clocks.

        Identical timing source as :meth:`measure_time`; the richer return
        type exists for consumers that must anchor a model or a comparison
        at the configuration the board actually ran (the performance
        estimator and the runtime-MAE validation harness).
        """
        result = self.gpu.run(kernel, config or self.reference)
        return TimingMeasurement(
            kernel_name=kernel.name,
            requested_config=result.requested_config,
            applied_config=result.applied_config,
            seconds=result.duration_seconds,
        )

    def observe(
        self,
        kernel: KernelDescriptor,
        config: Optional[FrequencyConfig] = None,
        with_events: Optional[bool] = None,
    ) -> KernelObservation:
        """Power (always) + events (at the reference configuration only).

        ``with_events`` overrides the default policy of collecting events
        exactly when the observation is taken at the reference configuration.
        """
        target = self.gpu.spec.validate_configuration(config or self.reference)
        power = self.measure_power(kernel, target)
        if with_events is None:
            with_events = target == self.reference
        events = self.collect_events(kernel) if with_events else None
        return KernelObservation(kernel=kernel, power=power, events=events)
