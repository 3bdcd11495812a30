"""The simulated GPU device.

:class:`SimulatedGPU` stands in for one physical board. It combines the
public spec sheet (:class:`~repro.hardware.specs.GPUSpec`) with the hidden
ground truth — voltage curves, power parameters, noise profile — and executes
kernel descriptors, producing the true execution profile and power draw that
the driver layer (:mod:`repro.driver`) then observes imperfectly.

``debug_*`` methods expose the hidden state for experiments that the paper
also performed out-of-band (e.g. reading voltages with NVIDIA Inspector for
Fig. 6) and for tests. The modeling code in :mod:`repro.core` must never call
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.driver.faults import FaultPlan

import numpy as np

from repro.config import DEFAULT_SETTINGS, SimulationSettings
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder
from repro.hardware.components import Domain
from repro.hardware.noise import NoiseProfile, noise_profile_for  # noqa: F401
from repro.hardware.performance import ExecutionProfile, PerformanceModel
from repro.units import closest_lower_level
from repro.hardware.power import (
    GroundTruthParameters,
    GroundTruthPowerModel,
    PowerBreakdown,
)
from repro.hardware.specs import FrequencyConfig, GPUSpec
from repro.hardware.thermal import TDPPolicy, ThrottleDecision
from repro.hardware.voltage import VoltageTable, default_voltage_table
from repro.kernels.kernel import KernelDescriptor


@dataclass(frozen=True)
class KernelRunResult:
    """Ground-truth outcome of executing one kernel on the device."""

    kernel: KernelDescriptor
    requested_config: FrequencyConfig
    applied_config: FrequencyConfig
    profile: ExecutionProfile
    true_power_watts: float
    breakdown: PowerBreakdown

    @property
    def throttled(self) -> bool:
        """Whether TDP throttling lowered the core frequency (Fig. 9)."""
        return self.requested_config != self.applied_config

    @property
    def duration_seconds(self) -> float:
        """Elapsed time of a single kernel run."""
        return self.profile.duration_seconds


@dataclass(frozen=True)
class GridRunColumns:
    """Struct-of-arrays outcome of one kernel over many configurations.

    One float64 entry per requested configuration, in request order, with
    no per-cell :class:`KernelRunResult`/:class:`ExecutionProfile` objects
    materialized. Every entry is bitwise identical to the corresponding
    field of a scalar :meth:`SimulatedGPU.run` result
    (``duration_seconds``, ``true_power_watts``, ``applied_config``) — the
    :class:`~repro.hardware.power.GridBreakdown` totals replicate the
    scalar operation order exactly, and the TDP throttle walk is the
    scalar policy's walk over the batched powers. Arrays are cached per
    (kernel, configuration tuple); callers must treat them as read-only.
    """

    requested: Tuple[FrequencyConfig, ...]
    duration_seconds: np.ndarray
    true_power_watts: np.ndarray
    applied_core_mhz: np.ndarray
    applied_mem_mhz: np.ndarray

    def __len__(self) -> int:
        return len(self.requested)


class SimulatedGPU:
    """One simulated device (Titan Xp, GTX Titan X or Tesla K40c)."""

    def __init__(
        self,
        spec: GPUSpec,
        settings: SimulationSettings = DEFAULT_SETTINGS,
        parameters: Optional[GroundTruthParameters] = None,
        voltage_table: Optional[VoltageTable] = None,
        tdp_throttling: bool = True,
        noise_profile: Optional[NoiseProfile] = None,
        fault_plan: Optional["FaultPlan"] = None,
        recorder: TelemetryRecorder = NULL_RECORDER,
    ) -> None:
        """``noise_profile`` overrides the architecture's measurement-chain
        noise — the knob of the noise-sweep experiment. ``fault_plan``
        attaches a :class:`~repro.driver.faults.FaultPlan` to the board:
        driver handles opened on this device inherit it, so a chaos
        campaign needs the plan in exactly one place. ``recorder`` counts
        run-cache hits/misses; driver handles opened on this device inherit
        it the same way they inherit the fault plan."""
        self.spec = spec
        self.settings = settings
        #: Telemetry recorder inherited by driver layers opened on this
        #: device (no-op by default; observation only, never arithmetic).
        self.recorder = recorder
        #: Fault plan inherited by driver layers opened on this device.
        #: The plan never alters the ground-truth physics — only how the
        #: NVML/CUPTI observation layer perceives it.
        self.fault_plan = fault_plan
        self._noise_profile = noise_profile or noise_profile_for(
            spec.architecture
        )
        self.voltage_table = voltage_table or default_voltage_table(spec)
        self.performance_model = PerformanceModel(spec)
        self.power_model = GroundTruthPowerModel(
            spec,
            parameters=parameters,
            voltage_table=self.voltage_table,
            settings=settings,
            noise_profile=self._noise_profile,
        )
        self.tdp_policy = TDPPolicy(spec, enabled=tdp_throttling)
        # Kernel execution is deterministic in (kernel work, configuration),
        # so results are memoized — the measurement layer re-runs the same
        # kernel many times (median-of-10, sensor sampling, TDP probing).
        self._run_cache: dict = {}
        # Voltage arrays over a (core, memory) pair list are kernel
        # independent; the grid path reuses them across the whole campaign.
        self._voltage_grid_cache: dict = {}
        # Columnar grid results (run_grid_columns), keyed by (kernel,
        # configuration tuple) — separate from the per-cell object cache so
        # the zero-copy campaign path never materializes run objects.
        self._columns_cache: dict = {}
        # Spec validation snaps frequencies to grid levels by scanning the
        # level lists; campaigns validate the same few dozen configurations
        # thousands of times, so the canonical results are memoized.
        self._validated_configs: dict = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, kernel: KernelDescriptor, config: Optional[FrequencyConfig] = None
    ) -> KernelRunResult:
        """Execute a kernel at a configuration (default: device defaults).

        TDP throttling is resolved first: the device may run at a lower core
        frequency than requested (Fig. 9 footnote). The returned result
        reports both the requested and the applied configuration.
        """
        requested = self._validated(config or self.spec.reference)
        cache_key = (
            kernel.cache_key, requested.core_mhz, requested.memory_mhz
        )
        cached = self._run_cache.get(cache_key)
        if cached is not None:
            self.recorder.add("run.cache_hits")
            return cached
        self.recorder.add("run.cache_misses")
        decision = self._resolve_throttle(kernel, requested)
        profile = self.performance_model.profile(kernel, decision.applied)
        breakdown = self.power_model.breakdown(profile)
        result = KernelRunResult(
            kernel=kernel,
            requested_config=decision.requested,
            applied_config=decision.applied,
            profile=profile,
            true_power_watts=breakdown.total_watts,
            breakdown=breakdown,
        )
        self._run_cache[cache_key] = result
        return result

    def run_grid_columns(
        self,
        kernel: KernelDescriptor,
        configs: Optional[Sequence[FrequencyConfig]] = None,
    ) -> GridRunColumns:
        """Execute one kernel at many configurations in batched numpy.

        The hardware half of the measurement campaign: the elapsed-time,
        utilization and power arithmetic runs once over (n_configs,)
        arrays, and the TDP throttle decision walks the batched powers.
        Results stay in float64 columns — every entry bitwise identical to
        the field of a per-configuration :meth:`run` call — and are cached
        per (kernel, configuration tuple). The per-cell run cache (and its
        telemetry counters) is left untouched.
        """
        if configs is None:
            configs = self.spec.all_configurations()
        requested = tuple(self._validated(c) for c in configs)
        cache_key = (
            kernel.cache_key,
            tuple((c.core_mhz, c.memory_mhz) for c in requested),
        )
        cached = self._columns_cache.get(cache_key)
        if cached is not None:
            return cached
        index, totals, profiles = self._candidate_grid(kernel, requested)
        n = len(requested)
        duration = np.empty(n, dtype=float)
        watts = np.empty(n, dtype=float)
        applied_core = np.empty(n, dtype=float)
        applied_mem = np.empty(n, dtype=float)
        for j, config in enumerate(requested):
            applied = self._applied_for(config, totals, index)
            i = index[(applied.core_mhz, applied.memory_mhz)]
            duration[j] = profiles.duration_seconds[i]
            watts[j] = totals[i]
            applied_core[j] = applied.core_mhz
            applied_mem[j] = applied.memory_mhz
        result = GridRunColumns(
            requested=requested,
            duration_seconds=duration,
            true_power_watts=watts,
            applied_core_mhz=applied_core,
            applied_mem_mhz=applied_mem,
        )
        self._columns_cache[cache_key] = result
        return result

    def _candidate_grid(self, kernel: KernelDescriptor, requested):
        """Vectorized candidate batch of :meth:`run_grid_columns`.

        The candidate set is the cross product of *all* core levels with the
        requested memory levels: TDP throttling only ever walks the core
        frequency downward (Fig. 9 footnote), so every probe the scalar
        policy would make is already in the batch. Returns ``(index, totals,
        profiles)`` where ``index`` maps (core, memory) pairs to batch
        positions.
        """
        memories = list(dict.fromkeys(c.memory_mhz for c in requested))
        cores = list(self.spec.core_frequencies_mhz)
        pairs = [(fc, fm) for fm in memories for fc in cores]
        index = {pair: i for i, pair in enumerate(pairs)}
        core_arr = np.asarray([fc for fc, _ in pairs], dtype=float)
        mem_arr = np.asarray([fm for _, fm in pairs], dtype=float)

        profiles = self.performance_model.profile_grid(kernel, core_arr, mem_arr)
        voltage_key = tuple(pairs)
        cached_voltages = self._voltage_grid_cache.get(voltage_key)
        if cached_voltages is None:
            v_core = np.asarray(
                [
                    self.voltage_table.voltage(Domain.CORE, FrequencyConfig(fc, fm))
                    for fc, fm in pairs
                ]
            )
            v_mem = np.asarray(
                [
                    self.voltage_table.voltage(Domain.MEMORY, FrequencyConfig(fc, fm))
                    for fc, fm in pairs
                ]
            )
            cached_voltages = (v_core, v_mem)
            self._voltage_grid_cache[voltage_key] = cached_voltages
        v_core, v_mem = cached_voltages
        grid = self.power_model.breakdown_grid(
            profiles, core_arr, mem_arr, v_core, v_mem
        )
        return index, grid.total_watts, profiles

    def _applied_for(
        self, config: FrequencyConfig, totals: np.ndarray, index
    ) -> FrequencyConfig:
        """TDP throttle decision against the batched powers (same walk as
        :meth:`~repro.hardware.thermal.TDPPolicy.apply`)."""
        if not self.tdp_policy.enabled:
            return config
        core = config.core_mhz
        while totals[index[(core, config.memory_mhz)]] > self.spec.tdp_watts:
            lower = closest_lower_level(core, self.spec.core_frequencies_mhz)
            if lower is None:
                break
            core = lower
        if core != config.core_mhz:
            return self._validated(FrequencyConfig(core, config.memory_mhz))
        return config

    def _validated(self, config: FrequencyConfig) -> FrequencyConfig:
        """Memoized :meth:`GPUSpec.validate_configuration`."""
        key = (config.core_mhz, config.memory_mhz)
        cached = self._validated_configs.get(key)
        if cached is None:
            cached = self.spec.validate_configuration(config)
            self._validated_configs[key] = cached
        return cached

    def idle_power_watts(self, config: Optional[FrequencyConfig] = None) -> float:
        """True power of the awake-but-idle device at a configuration."""
        from repro.kernels.kernel import idle_kernel

        return self.run(idle_kernel(), config).true_power_watts

    def _resolve_throttle(
        self, kernel: KernelDescriptor, requested: FrequencyConfig
    ) -> ThrottleDecision:
        def power_at(candidate: FrequencyConfig) -> float:
            profile = self.performance_model.profile(kernel, candidate)
            return self.power_model.average_power_watts(profile)

        return self.tdp_policy.apply(requested, power_at)

    # ------------------------------------------------------------------
    # Privileged (out-of-band) accessors
    # ------------------------------------------------------------------
    def debug_true_voltage(self, domain: Domain, config: FrequencyConfig) -> float:
        """Hidden normalized voltage — the Fig. 6 "measured voltage" stand-in
        for the third-party read-out tools used in the paper."""
        return self.voltage_table.voltage(
            domain, self.spec.validate_configuration(config)
        )

    def debug_true_breakdown(
        self, kernel: KernelDescriptor, config: Optional[FrequencyConfig] = None
    ) -> PowerBreakdown:
        """Hidden ground-truth power decomposition (tests only)."""
        return self.run(kernel, config).breakdown

    @property
    def noise_profile(self) -> NoiseProfile:
        """The measurement-chain noise magnitudes of this device."""
        return self._noise_profile

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulatedGPU({self.spec.name!r}, {self.spec.architecture}, "
            f"{self.spec.sm_count} SMs)"
        )
