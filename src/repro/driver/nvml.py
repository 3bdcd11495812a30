"""NVML-like device management: clocks and the sampled power sensor.

Mirrors the subset of NVML the paper uses (Sec. V-A):

* querying supported memory/graphics clocks and setting application clocks
  ("the NVML library was used for monitoring and changing the operating
  frequencies of the GPU domains (while the voltage is automatically set)");
* reading the power sensor, whose value refreshes only every ~35 ms on the
  Titan Xp, ~100 ms on the GTX Titan X and ~15 ms on the Tesla K40c — hence
  the paper's rule of repeating kernels until runs last at least one second.

The measured power of one run is the mean of all sensor samples gathered
while the kernel executes; the first sample is partially contaminated by the
pre-run idle level, reproducing why single-shot measurements of very short
kernels are misleading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimulationSettings
from repro.driver import faults as faultlib
from repro.driver.faults import (
    DEFAULT_RETRY_POLICY,
    BackoffClock,
    FaultPlan,
    FaultStats,
    RetryPolicy,
    robust_median,
)
from repro.errors import NVMLError, PersistentDriverError, TransientNVMLError
from repro.hardware.gpu import KernelRunResult, SimulatedGPU
from repro.hardware.noise import sensor_noise_matrix, sensor_noise_stack
from repro.hardware.specs import FrequencyConfig
from repro.kernels.kernel import KernelDescriptor, idle_kernel
from repro.kernels.launch import repetitions_for_min_duration
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder
from repro.units import closest_lower_level


@dataclass(frozen=True)
class PowerMeasurement:
    """One power measurement of a (possibly repeated) kernel execution."""

    kernel_name: str
    requested_config: FrequencyConfig
    applied_config: FrequencyConfig
    average_watts: float
    sample_count: int
    repetitions: int
    total_seconds: float
    #: Quality flags recording how faults touched this cell (empty when the
    #: measurement was clean) — see :mod:`repro.driver.faults`.
    quality: Tuple[str, ...] = ()
    #: Transient-fault retries this measurement needed (0 when clean).
    retries: int = 0

    @property
    def throttled(self) -> bool:
        return self.requested_config != self.applied_config

    @property
    def clean(self) -> bool:
        """No fault touched this measurement."""
        return not self.quality


@dataclass(frozen=True)
class PowerColumns:
    """Struct-of-arrays power matrix of one measurement campaign.

    One entry per (kernel, configuration) cell, flattened kernel-major,
    with no per-cell :class:`PowerMeasurement` objects.
    ``watts[k * n_configs + j]`` is bitwise identical to the
    ``average_watts`` a scalar :meth:`NVMLDevice.measure_median_power`
    call reports for the same cell (NaN for unreadable cells),
    ``quality`` carries the
    :data:`repro.driver.faults.QUALITY_BITS` bitmask, and the applied
    clocks are the post-TDP (or post-injected-throttle) frequencies.
    Requested configurations are implicit: cell ``j`` of every kernel is
    ``configs[j]``.
    """

    kernel_names: Tuple[str, ...]
    configs: Tuple[FrequencyConfig, ...]
    watts: np.ndarray
    applied_core_mhz: np.ndarray
    applied_mem_mhz: np.ndarray
    quality: np.ndarray

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    def __len__(self) -> int:
        return int(self.watts.shape[0])


class NVMLDevice:
    """Handle to one simulated device, in the style of an NVML session."""

    def __init__(
        self,
        gpu: SimulatedGPU,
        settings: Optional[SimulationSettings] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Optional[BackoffClock] = None,
        stats: Optional[FaultStats] = None,
        recorder: Optional[TelemetryRecorder] = None,
    ) -> None:
        """``fault_plan`` defaults to the plan attached to the board (if
        any); ``retry``/``clock``/``stats`` let a session share one retry
        policy, virtual backoff clock and fault tally across its NVML and
        CUPTI handles. ``recorder`` (default: the board's, else no-op)
        mirrors the fault tallies into telemetry counters."""
        self._gpu = gpu
        self._settings = settings or gpu.settings
        self._clocks = gpu.spec.reference
        self._open = True
        if fault_plan is None:
            fault_plan = getattr(gpu, "fault_plan", None)
        self.fault_plan = fault_plan
        if recorder is None:
            recorder = getattr(gpu, "recorder", None) or NULL_RECORDER
        self.recorder = recorder
        self.retry_policy = retry or DEFAULT_RETRY_POLICY
        self.backoff_clock = (
            clock if clock is not None else BackoffClock(recorder=recorder)
        )
        self.fault_stats = stats if stats is not None else FaultStats()
        # Hot paths branch on this once instead of re-testing the plan.
        self._faults_active = fault_plan is not None and fault_plan.enabled
        # Driver calls that mutate clocks are numbered so clock-set fault
        # decisions are keyed by call sequence (the operation has no stable
        # per-cell identity: the grid fast path never sets clocks at all).
        self._clock_set_calls = 0
        # Repetition counts are a function of the kernel alone (they are
        # derived at the fastest configuration), but computing one requires
        # a full performance-model elapsed-time solve — memoized because the
        # measurement campaign re-asks for every kernel at every grid point.
        self._repetitions_cache: Dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Device queries
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._gpu.spec.name

    @property
    def power_limit_watts(self) -> float:
        return self._gpu.spec.tdp_watts

    @property
    def refresh_seconds(self) -> float:
        """Power-sensor refresh period."""
        return self._gpu.spec.nvml_refresh_ms / 1000.0

    def supported_memory_clocks(self) -> Tuple[float, ...]:
        self._require_open()
        return tuple(sorted(self._gpu.spec.memory_frequencies_mhz, reverse=True))

    def supported_graphics_clocks(self, memory_mhz: float) -> Tuple[float, ...]:
        """Core levels available at a memory clock (same set on all levels)."""
        self._require_open()
        self._gpu.spec.validate_configuration(
            FrequencyConfig(self._gpu.spec.default_core_mhz, memory_mhz)
        )
        return tuple(sorted(self._gpu.spec.core_frequencies_mhz, reverse=True))

    # ------------------------------------------------------------------
    # Clock control
    # ------------------------------------------------------------------
    def set_application_clocks(self, core_mhz: float, memory_mhz: float) -> None:
        """Pin the device to a V-F configuration (voltage set automatically).

        Under an active fault plan the driver call itself may fail
        transiently; such failures are retried with backoff, and a
        :class:`PersistentDriverError` signals an exhausted retry budget
        (the clocks are left unchanged in that case).
        """
        self._require_open()
        validated = self._gpu.spec.validate_configuration(
            FrequencyConfig(core_mhz, memory_mhz)
        )
        if self._faults_active and self.fault_plan.clock_set_failure_rate > 0:
            policy = self.retry_policy
            for attempt in range(policy.max_attempts):
                self._clock_set_calls += 1
                if not self.fault_plan.clock_set_fails(
                    self.name,
                    validated.core_mhz,
                    validated.memory_mhz,
                    self._clock_set_calls,
                ):
                    break
                self.fault_stats.clock_faults += 1
                self.recorder.add("faults.clock_set")
                self.recorder.add("faults.injected")
                if attempt + 1 >= policy.max_attempts:
                    raise PersistentDriverError(
                        f"set_application_clocks({validated.core_mhz:.0f}, "
                        f"{validated.memory_mhz:.0f}) on {self.name} still "
                        f"failing after {policy.max_attempts} attempts"
                    )
                self.backoff_clock.sleep(policy.delay_for(attempt))
        self._clocks = validated

    def reset_application_clocks(self) -> None:
        self._require_open()
        self._clocks = self._gpu.spec.reference

    @property
    def application_clocks(self) -> FrequencyConfig:
        return self._clocks

    # ------------------------------------------------------------------
    # Power measurement
    # ------------------------------------------------------------------
    def measure_power(
        self,
        kernel: KernelDescriptor,
        repetitions: Optional[int] = None,
        measurement_index: int = 0,
    ) -> PowerMeasurement:
        """Run a kernel at the current clocks and average the sensor samples.

        ``repetitions`` defaults to the Sec. V-A rule: enough back-to-back
        launches to last at least one second at the *fastest* configuration.
        ``measurement_index`` distinguishes repeated measurements so that each
        draws fresh sensor noise.

        Under an active fault plan the sensor read may fail transiently;
        failed reads are retried with backoff and the successful re-read is
        flagged ``retried``.
        """
        self._require_open()
        run = self._gpu.run(kernel, self._clocks)
        if not self._faults_active:
            return self._single_measurement(
                kernel, run, repetitions, measurement_index
            )
        policy = self.retry_policy
        cell = f"{self._cell_label(run.requested_config)}-rep{measurement_index}"
        for attempt in range(policy.max_attempts):
            if not self.fault_plan.nvml_read_fails(
                self.name, kernel.name, cell, attempt
            ):
                return self._single_measurement(
                    kernel, run, repetitions, measurement_index, attempt
                )
            self.fault_stats.read_faults += 1
            self.recorder.add("faults.nvml_read")
            self.recorder.add("faults.injected")
            if attempt + 1 < policy.max_attempts:
                self.recorder.add("nvml.retries")
                self.backoff_clock.sleep(policy.delay_for(attempt))
        self.fault_stats.unreadable_cells += 1
        self.recorder.add("cells.unreadable")
        raise PersistentDriverError(
            f"power read for {kernel.name} at {cell} on {self.name} still "
            f"failing after {policy.max_attempts} attempts"
        )

    def measure_median_power(
        self, kernel: KernelDescriptor, repeats: Optional[int] = None
    ) -> PowerMeasurement:
        """The paper's methodology: repeat the measurement and report the
        median (Sec. V-A: "all benchmarks were repeated 10 times, with the
        presented values corresponding to the median value").

        Under an active fault plan the resilient path takes over: transient
        read failures retry with backoff, dropout-thinned repeats go
        through an outlier-rejecting median, and the returned measurement
        carries quality flags. With faults disabled the arithmetic below is
        untouched (bitwise identical to the pre-chaos implementation).
        """
        self._require_open()
        if repeats is None:
            repeats = self._settings.measurement_repeats
        if repeats <= 0:
            raise NVMLError("measurement repeats must be positive")
        if self._faults_active:
            return self._measure_median_resilient(kernel, self._clocks, repeats)
        repetitions = self._default_repetitions(kernel)
        run = self._gpu.run(kernel, self._clocks)
        total_seconds = run.duration_seconds * repetitions
        averages = self._repeat_averages(run, total_seconds, repeats)
        return PowerMeasurement(
            kernel_name=kernel.name,
            requested_config=run.requested_config,
            applied_config=run.applied_config,
            average_watts=float(np.median(averages)),
            sample_count=self._sample_count(total_seconds),
            repetitions=repetitions,
            total_seconds=total_seconds,
        )

    def measure_power_grid_columns(
        self,
        kernels: Sequence[KernelDescriptor],
        configs: Optional[Sequence[FrequencyConfig]] = None,
        repeats: Optional[int] = None,
        on_unreadable: str = "raise",
    ) -> PowerColumns:
        """Median power of every (kernel, configuration) cell, as columns.

        The Sec. V-A measurement campaign in batched numpy: ground truth
        comes from :meth:`SimulatedGPU.run_grid_columns`, repetition counts
        are derived once per kernel, and the repeat-median arithmetic
        (noise, first-sample contamination, per-repeat means) runs on
        stacked arrays. Every column entry is bitwise identical to the
        corresponding field of a scalar :meth:`measure_median_power` call
        at the same configuration — same seed labels, same draw shapes —
        but no per-cell measurement/run object is ever built, so worker
        processes can ship the float64/uint8 columns through shared memory
        without pickling. The device clocks are not stepped.

        Under an active fault plan, cells a first-attempt fault touches
        fall back to the scalar resilient routine (which draws the same
        seeded decisions, so a scalar walk measures identical cells);
        unreadable cells become NaN watts with the ``unreadable`` bit set
        (``on_unreadable="skip"``) or raise (``"raise"``).
        """
        self._require_open()
        if on_unreadable not in ("raise", "skip"):
            raise NVMLError(
                f"on_unreadable must be 'raise' or 'skip', got {on_unreadable!r}"
            )
        if configs is None:
            configs = self._gpu.spec.all_configurations()
        if repeats is None:
            repeats = self._settings.measurement_repeats
        if repeats <= 0:
            raise NVMLError("measurement repeats must be positive")
        requested = tuple(
            self._gpu.spec.validate_configuration(config) for config in configs
        )
        n_configs = len(requested)
        n_cells = len(kernels) * n_configs
        watts = np.empty(n_cells, dtype=float)
        applied_core = np.empty(n_cells, dtype=float)
        applied_mem = np.empty(n_cells, dtype=float)
        quality = np.zeros(n_cells, dtype=np.uint8)
        idle_cache: Dict[Tuple[float, float], float] = {}
        plan = self.fault_plan
        for k, kernel in enumerate(kernels):
            base = k * n_configs
            cols = self._gpu.run_grid_columns(kernel, requested)
            repetitions = self._default_repetitions(kernel)
            # Python-float totals: the scalar path computes
            # ``float(duration) * repetitions`` exactly like this.
            totals = [
                float(duration) * repetitions
                for duration in cols.duration_seconds
            ]
            counts = [self._sample_count(total) for total in totals]
            applied_core[base : base + n_configs] = cols.applied_core_mhz
            applied_mem[base : base + n_configs] = cols.applied_mem_mhz
            if self._faults_active:
                clean: List[int] = []
                faulted: List[int] = []
                for i in range(n_configs):
                    cell = self._cell_label(requested[i])
                    if (
                        plan.nvml_read_fails(self.name, kernel.name, cell, 0)
                        or plan.spurious_throttle(
                            self.name, kernel.name, cell, 0
                        )
                        or plan.dropout_episode(self.name, kernel.name, cell, 0)
                    ):
                        faulted.append(i)
                    else:
                        clean.append(i)
            else:
                clean, faulted = list(range(n_configs)), []
            if clean:
                medians = self._median_batch(
                    kernel,
                    [cols.applied_core_mhz[i] for i in clean],
                    [cols.applied_mem_mhz[i] for i in clean],
                    [cols.true_power_watts[i] for i in clean],
                    [totals[i] for i in clean],
                    [counts[i] for i in clean],
                    repeats,
                    idle_cache,
                )
                for j, i in enumerate(clean):
                    watts[base + i] = medians[j]
            for i in faulted:
                try:
                    measurement = self._measure_median_resilient(
                        kernel, requested[i], repeats
                    )
                except PersistentDriverError:
                    if on_unreadable == "raise":
                        raise
                    watts[base + i] = float("nan")
                    quality[base + i] = faultlib.QUALITY_BITS[
                        faultlib.UNREADABLE
                    ]
                    continue
                watts[base + i] = measurement.average_watts
                applied_core[base + i] = measurement.applied_config.core_mhz
                applied_mem[base + i] = measurement.applied_config.memory_mhz
                quality[base + i] = faultlib.encode_quality(
                    measurement.quality
                )
        return PowerColumns(
            kernel_names=tuple(kernel.name for kernel in kernels),
            configs=requested,
            watts=watts,
            applied_core_mhz=applied_core,
            applied_mem_mhz=applied_mem,
            quality=quality,
        )

    def close(self) -> None:
        """Release the handle. Idempotent: closing an already-closed handle
        is a no-op, mirroring ``nvmlShutdown`` semantics — only *using* a
        closed handle is an error."""
        self._open = False

    @property
    def closed(self) -> bool:
        return not self._open

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if not self._open:
            raise NVMLError(
                f"NVML handle for {self._gpu.spec.name!r} has been closed; "
                "open a new NVMLDevice to keep measuring"
            )

    def _default_repetitions(self, kernel: KernelDescriptor) -> int:
        cached = self._repetitions_cache.get(kernel.cache_key)
        if cached is not None:
            return cached
        fastest = self._gpu.spec.max_configuration
        single = self._gpu.performance_model.elapsed_seconds(kernel, fastest)
        repetitions = repetitions_for_min_duration(
            single, self._settings.min_run_seconds
        )
        self._repetitions_cache[kernel.cache_key] = repetitions
        return repetitions

    def _sample_count(self, total_seconds: float) -> int:
        return max(1, int(total_seconds / self.refresh_seconds))

    def _sample_average(
        self, run: KernelRunResult, total_seconds: float, measurement_index: int
    ) -> float:
        count = self._sample_count(total_seconds)
        label = (
            f"{run.applied_config.core_mhz:.0f}-"
            f"{run.applied_config.memory_mhz:.0f}-rep{measurement_index}"
        )
        noise = sensor_noise_matrix(
            self._gpu.spec.architecture,
            run.kernel.name,
            label,
            1,
            count,
            self._settings,
            profile=self._gpu.noise_profile,
        )[0]
        samples = run.true_power_watts * np.asarray(noise, dtype=float)
        self._contaminate_first_sample(run, total_seconds, samples)
        return float(np.mean(samples))

    def _repeat_averages(
        self, run: KernelRunResult, total_seconds: float, repeats: int
    ) -> np.ndarray:
        """Per-repeat sample averages, drawn from one batched noise matrix."""
        return self._noisy_samples(run, total_seconds, repeats).mean(axis=1)

    def _noisy_samples(
        self,
        run: KernelRunResult,
        total_seconds: float,
        repeats: int,
        label_suffix: str = "",
    ) -> np.ndarray:
        """Contaminated ``(repeats, samples)`` sensor-sample matrix.

        ``label_suffix`` keys retried attempts to fresh noise draws; the
        empty suffix reproduces the original first-attempt labels exactly.
        """
        count = self._sample_count(total_seconds)
        label = (
            f"{run.applied_config.core_mhz:.0f}-"
            f"{run.applied_config.memory_mhz:.0f}-median{label_suffix}"
        )
        noise = sensor_noise_matrix(
            self._gpu.spec.architecture,
            run.kernel.name,
            label,
            repeats,
            count,
            self._settings,
            profile=self._gpu.noise_profile,
        )
        samples = run.true_power_watts * np.asarray(noise, dtype=float)
        for row in samples:
            self._contaminate_first_sample(run, total_seconds, row)
        return samples

    # ------------------------------------------------------------------
    # Fault-aware measurement paths
    # ------------------------------------------------------------------
    @staticmethod
    def _cell_label(config: FrequencyConfig) -> str:
        """Stable cell identity used to key per-cell fault decisions."""
        return f"{config.core_mhz:.0f}-{config.memory_mhz:.0f}"

    def _single_measurement(
        self,
        kernel: KernelDescriptor,
        run: KernelRunResult,
        repetitions: Optional[int],
        measurement_index: int,
        attempt: int = 0,
    ) -> PowerMeasurement:
        """The original single-shot arithmetic, annotated with the retry
        count when a fault plan made earlier attempts fail."""
        if repetitions is None:
            repetitions = self._default_repetitions(kernel)
        total_seconds = run.duration_seconds * repetitions
        average = self._sample_average(run, total_seconds, measurement_index)
        return PowerMeasurement(
            kernel_name=kernel.name,
            requested_config=run.requested_config,
            applied_config=run.applied_config,
            average_watts=average,
            sample_count=self._sample_count(total_seconds),
            repetitions=repetitions,
            total_seconds=total_seconds,
            quality=(faultlib.RETRIED,) if attempt else (),
            retries=attempt,
        )

    def _measure_median_resilient(
        self,
        kernel: KernelDescriptor,
        requested: FrequencyConfig,
        repeats: int,
    ) -> PowerMeasurement:
        """Retry loop around one median measurement under an active plan.

        Backoff accumulates on the shared virtual clock; an exhausted
        budget surfaces as :class:`PersistentDriverError` so campaigns can
        skip-and-record instead of aborting.
        """
        policy = self.retry_policy
        last_error: Optional[TransientNVMLError] = None
        for attempt in range(policy.max_attempts):
            try:
                return self._attempt_median(kernel, requested, repeats, attempt)
            except TransientNVMLError as error:
                last_error = error
                if attempt + 1 < policy.max_attempts:
                    self.recorder.add("nvml.retries")
                    self.backoff_clock.sleep(policy.delay_for(attempt))
        self.fault_stats.unreadable_cells += 1
        self.recorder.add("cells.unreadable")
        cell = self._cell_label(requested)
        raise PersistentDriverError(
            f"cell {kernel.name}@{cell} on {self.name} unreadable after "
            f"{policy.max_attempts} attempts"
        ) from last_error

    def _attempt_median(
        self,
        kernel: KernelDescriptor,
        requested: FrequencyConfig,
        repeats: int,
        attempt: int,
    ) -> PowerMeasurement:
        """One measurement attempt with the plan's faults applied.

        A clean first attempt follows the exact clean-path arithmetic
        (same labels, same draw shapes, plain ``np.median``), so a cell no
        fault touches is bitwise identical to the fault-free measurement.
        """
        plan = self.fault_plan
        run = self._gpu.run(kernel, requested)
        cell = self._cell_label(run.requested_config)
        if plan.nvml_read_fails(self.name, kernel.name, cell, attempt):
            self.fault_stats.read_faults += 1
            self.recorder.add("faults.nvml_read")
            self.recorder.add("faults.injected")
            raise TransientNVMLError(
                f"transient power-read failure for {kernel.name} at {cell} "
                f"on {self.name} (attempt {attempt})"
            )
        quality: List[str] = []
        reported_requested = run.requested_config
        if plan.spurious_throttle(self.name, kernel.name, cell, attempt):
            lower = closest_lower_level(
                run.applied_config.core_mhz,
                self._gpu.spec.core_frequencies_mhz,
            )
            if lower is not None:
                run = self._gpu.run(
                    kernel,
                    FrequencyConfig(lower, run.applied_config.memory_mhz),
                )
                quality.append(faultlib.THROTTLE_INJECTED)
                self.fault_stats.injected_throttles += 1
                self.recorder.add("throttle.injected")
                self.recorder.add("faults.injected")
        repetitions = self._default_repetitions(kernel)
        total_seconds = run.duration_seconds * repetitions
        count = self._sample_count(total_seconds)
        suffix = f"-a{attempt}" if attempt else ""
        samples = self._noisy_samples(run, total_seconds, repeats, suffix)
        mask = plan.dropout_mask(
            self.name, kernel.name, cell, attempt, repeats, count
        )
        if mask is None:
            average = float(np.median(samples.mean(axis=1)))
        else:
            quality.append(faultlib.DROPOUTS)
            self.fault_stats.dropped_samples += int(mask.sum())
            self.recorder.add("samples.dropped", float(mask.sum()))
            kept_averages: List[float] = []
            for row, lost in zip(samples, mask):
                keep = ~lost
                if keep.any():
                    kept_averages.append(float(np.mean(row[keep])))
            if not kept_averages:
                self.fault_stats.read_faults += 1
                self.recorder.add("faults.nvml_read")
                self.recorder.add("faults.injected")
                raise TransientNVMLError(
                    f"every power sample dropped for {kernel.name} at {cell} "
                    f"on {self.name} (attempt {attempt})"
                )
            average = robust_median(np.asarray(kept_averages))
        if attempt > 0:
            quality.insert(0, faultlib.RETRIED)
        return PowerMeasurement(
            kernel_name=kernel.name,
            requested_config=reported_requested,
            applied_config=run.applied_config,
            average_watts=average,
            sample_count=count,
            repetitions=repetitions,
            total_seconds=total_seconds,
            quality=tuple(quality),
            retries=attempt,
        )

    def _median_batch(
        self,
        kernel: KernelDescriptor,
        applied_core: Sequence[float],
        applied_mem: Sequence[float],
        true_watts: Sequence[float],
        totals: Sequence[float],
        counts: Sequence[int],
        repeats: int,
        idle_cache: Dict[Tuple[float, float], float],
    ) -> List[float]:
        """Median measured watts per cell from columnar ground truth.

        Cells sharing a sample count stack into one ``(cells, repeats,
        samples)`` noise tensor; the contamination and per-repeat means then
        run as array ops. Expression order matches the scalar helpers
        (``_repeat_averages`` / ``_contaminate_first_sample``) exactly.
        Idle levels of uncached (core, memory) pairs come from one columnar
        idle-kernel execution, bitwise identical to scalar idle runs.
        """
        contaminate = not kernel.is_idle
        if contaminate:
            pending: List[Tuple[float, float]] = []
            seen = set()
            for core, mem in zip(applied_core, applied_mem):
                key = (core, mem)
                if key not in idle_cache and key not in seen:
                    seen.add(key)
                    pending.append(key)
            if pending:
                idle = self._gpu.run_grid_columns(
                    idle_kernel(),
                    [FrequencyConfig(core, mem) for core, mem in pending],
                )
                for key, idle_watts in zip(pending, idle.true_power_watts):
                    idle_cache[key] = idle_watts
        by_count: Dict[int, List[int]] = {}
        for i, count in enumerate(counts):
            by_count.setdefault(count, []).append(i)
        medians = [0.0] * len(counts)
        for count, indices in by_count.items():
            labels = [
                f"{applied_core[i]:.0f}-{applied_mem[i]:.0f}-median"
                for i in indices
            ]
            noise = sensor_noise_stack(
                self._gpu.spec.architecture,
                kernel.name,
                labels,
                repeats,
                count,
                self._settings,
                profile=self._gpu.noise_profile,
            )
            power = np.asarray(
                [true_watts[i] for i in indices], dtype=float
            )
            samples = power[:, None, None] * np.asarray(noise, dtype=float)
            if contaminate and count >= 1:
                # Per-cell stale fractions and idle offsets are computed with
                # the same Python-float arithmetic as the scalar helper.
                stale = [
                    min(0.5, self.refresh_seconds / max(totals[i], 1e-9))
                    for i in indices
                ]
                offsets = np.asarray(
                    [
                        fraction * idle_cache[(applied_core[i], applied_mem[i])]
                        for fraction, i in zip(stale, indices)
                    ]
                )
                keep = np.asarray([1.0 - fraction for fraction in stale])
                samples[:, :, 0] = (
                    offsets[:, None] + keep[:, None] * samples[:, :, 0]
                )
            averages = samples.mean(axis=2)
            cell_medians = np.median(averages, axis=1)
            for j, i in enumerate(indices):
                medians[i] = float(cell_medians[j])
        return medians

    def _contaminate_first_sample(
        self, run: KernelRunResult, total_seconds: float, samples: np.ndarray
    ) -> None:
        """The first sensor window straddles the launch: it still contains a
        fraction of the pre-run idle power level."""
        if samples.size >= 1 and not run.kernel.is_idle:
            idle = self._gpu.idle_power_watts(run.applied_config)
            stale_fraction = min(
                0.5, self.refresh_seconds / max(total_seconds, 1e-9)
            )
            samples[0] = (
                stale_fraction * idle + (1.0 - stale_fraction) * samples[0]
            )
