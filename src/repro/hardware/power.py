"""Hidden ground-truth power model of the simulated GPUs.

This is the "silicon": the physics the estimation pipeline has to recover
from the outside. Its functional form follows the same CMOS principles the
paper builds on (Eq. 1/2 → Eq. 4), but it is deliberately *richer* than the
fitted model of :mod:`repro.core`:

* it uses the **true** per-configuration utilizations (the fitted model only
  sees utilizations measured at the reference configuration);
* it contains a **non-modeled component** (instruction fetch/decode power
  driven by the issue activity) for which Table I exposes no event;
* every kernel carries a fixed multiplicative **residual** on its dynamic
  power (see :mod:`repro.hardware.noise`).

Per-component magnitudes are expressed as *full-utilization watts at the
reference configuration* — e.g. ``dynamic_full_watts[DRAM] = 85`` means the
DRAM subsystem adds 85 W at 100 % utilization at the default memory frequency
and reference voltage — and converted internally to the per-MHz coefficients
of Eq. 4. They are calibrated against the paper's anchors (see DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.config import SimulationSettings, DEFAULT_SETTINGS
from repro.hardware.components import (
    CORE_COMPONENTS,
    Component,
    Domain,
)
from repro.hardware.noise import NoiseProfile, kernel_residual_factor
from repro.hardware.performance import ExecutionProfile, GridProfiles
from repro.hardware.specs import GPUSpec
from repro.hardware.voltage import VoltageTable, default_voltage_table


@dataclass(frozen=True)
class GroundTruthParameters:
    """Hidden physical parameters of one device."""

    #: Static power (W) of each domain at the reference voltage.
    static_core_watts: float
    static_mem_watts: float
    #: Utilization-independent dynamic power (W) of each domain at the
    #: reference frequency and voltage ("idle power of that V-F level").
    idle_core_watts: float
    idle_mem_watts: float
    #: Full-utilization dynamic power (W) per component at the reference
    #: frequency and voltage.
    dynamic_full_watts: Mapping[Component, float]
    #: Full-activity fetch/decode power (W) — the non-modeled component.
    issue_full_watts: float

    def __post_init__(self) -> None:
        for name in (
            "static_core_watts", "static_mem_watts",
            "idle_core_watts", "idle_mem_watts", "issue_full_watts",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for component, watts in self.dynamic_full_watts.items():
            if watts < 0:
                raise ValueError(f"dynamic power of {component} must be >= 0")


#: Calibrated hidden parameters (DESIGN.md §6 explains the anchor arithmetic).
GROUND_TRUTH_PARAMETERS: Dict[str, GroundTruthParameters] = {
    "GTX Titan X": GroundTruthParameters(
        static_core_watts=14.0,
        static_mem_watts=8.0,
        idle_core_watts=28.0,
        idle_mem_watts=34.0,
        dynamic_full_watts={
            Component.INT: 36.0,
            Component.SP: 48.0,
            Component.DP: 20.0,
            Component.SF: 30.0,
            Component.SHARED: 40.0,
            Component.L2: 26.0,
            Component.DRAM: 85.0,
        },
        issue_full_watts=14.0,
    ),
    "Titan Xp": GroundTruthParameters(
        static_core_watts=16.0,
        static_mem_watts=9.0,
        idle_core_watts=26.0,
        idle_mem_watts=38.0,
        dynamic_full_watts={
            Component.INT: 24.0,
            Component.SP: 30.0,
            Component.DP: 14.0,
            Component.SF: 22.0,
            Component.SHARED: 28.0,
            Component.L2: 20.0,
            Component.DRAM: 95.0,
        },
        issue_full_watts=10.0,
    ),
    "Tesla K40c": GroundTruthParameters(
        static_core_watts=20.0,
        static_mem_watts=10.0,
        idle_core_watts=22.0,
        idle_mem_watts=30.0,
        dynamic_full_watts={
            Component.INT: 34.0,
            Component.SP: 40.0,
            Component.DP: 55.0,
            Component.SF: 25.0,
            Component.SHARED: 30.0,
            Component.L2: 20.0,
            Component.DRAM: 75.0,
        },
        issue_full_watts=12.0,
    ),
}


def ground_truth_parameters_for(spec: GPUSpec) -> GroundTruthParameters:
    """Hidden parameters of a device (Maxwell-like fallback for others)."""
    if spec.name in GROUND_TRUTH_PARAMETERS:
        return GROUND_TRUTH_PARAMETERS[spec.name]
    return GROUND_TRUTH_PARAMETERS["GTX Titan X"]


@dataclass(frozen=True)
class GridBreakdown:
    """Vectorized ground-truth power terms over many configurations.

    Arrays are indexed by configuration, in supply order; every term is
    bitwise identical to the matching :class:`PowerBreakdown` term of the
    scalar path (same operation order, hence the same bits)."""

    static_watts: np.ndarray
    idle_core_watts: np.ndarray
    idle_mem_watts: np.ndarray
    component_watts: Mapping[Component, np.ndarray]
    issue_watts: np.ndarray
    residual_factor: float
    total_watts: np.ndarray


@dataclass(frozen=True)
class PowerBreakdown:
    """Ground-truth decomposition of one execution's average power."""

    static_watts: float
    idle_core_watts: float
    idle_mem_watts: float
    component_watts: Mapping[Component, float]
    issue_watts: float
    residual_factor: float

    @property
    def constant_watts(self) -> float:
        """Utilization-independent power (static + both idle terms)."""
        return self.static_watts + self.idle_core_watts + self.idle_mem_watts

    @property
    def dynamic_watts(self) -> float:
        """Utilization-dependent power, with the kernel residual applied."""
        raw = sum(self.component_watts.values()) + self.issue_watts
        return raw * self.residual_factor

    @property
    def total_watts(self) -> float:
        return self.constant_watts + self.dynamic_watts


class GroundTruthPowerModel:
    """Computes the true average power of a kernel execution."""

    def __init__(
        self,
        spec: GPUSpec,
        parameters: GroundTruthParameters | None = None,
        voltage_table: VoltageTable | None = None,
        settings: SimulationSettings = DEFAULT_SETTINGS,
        noise_profile: "NoiseProfile | None" = None,
    ) -> None:
        self.spec = spec
        self.parameters = parameters or ground_truth_parameters_for(spec)
        self.voltage_table = voltage_table or default_voltage_table(spec)
        self.settings = settings
        self.noise_profile = noise_profile
        # The residual is deterministic in (settings, architecture, kernel
        # name) but costs a seed derivation + RNG construction per call —
        # memoized because the measurement campaign evaluates every kernel
        # at dozens of configurations.
        self._residual_cache: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def breakdown(self, profile: ExecutionProfile) -> PowerBreakdown:
        """Full ground-truth power decomposition of an execution profile."""
        params = self.parameters
        spec = self.spec
        config = profile.config
        v_core = self.voltage_table.voltage(Domain.CORE, config)
        v_mem = self.voltage_table.voltage(Domain.MEMORY, config)
        core_scale = v_core**2 * (config.core_mhz / spec.default_core_mhz)
        mem_scale = v_mem**2 * (config.memory_mhz / spec.default_memory_mhz)

        static = params.static_core_watts * v_core + params.static_mem_watts * v_mem
        idle_core = params.idle_core_watts * core_scale
        idle_mem = params.idle_mem_watts * mem_scale

        component_watts: Dict[Component, float] = {}
        for component in CORE_COMPONENTS:
            full = params.dynamic_full_watts.get(component, 0.0)
            component_watts[component] = (
                full * profile.utilizations[component] * core_scale
            )
        dram_full = params.dynamic_full_watts.get(Component.DRAM, 0.0)
        component_watts[Component.DRAM] = (
            dram_full * profile.utilizations[Component.DRAM] * mem_scale
        )
        issue = params.issue_full_watts * profile.issue_activity * core_scale

        residual = self.residual_factor(profile.kernel.name)
        return PowerBreakdown(
            static_watts=static,
            idle_core_watts=idle_core,
            idle_mem_watts=idle_mem,
            component_watts=component_watts,
            issue_watts=issue,
            residual_factor=residual,
        )

    def average_power_watts(self, profile: ExecutionProfile) -> float:
        """True average power (W) of one execution, before sensor effects."""
        return self.breakdown(profile).total_watts

    def residual_factor(self, kernel_name: str) -> float:
        """Memoized fixed per-kernel dynamic-power residual."""
        factor = self._residual_cache.get(kernel_name)
        if factor is None:
            factor = kernel_residual_factor(
                self.spec.architecture,
                kernel_name,
                self.settings,
                profile=self.noise_profile,
            )
            self._residual_cache[kernel_name] = factor
        return factor

    # ------------------------------------------------------------------
    def breakdown_grid(
        self,
        profiles: GridProfiles,
        core_mhz: np.ndarray,
        memory_mhz: np.ndarray,
        v_core: np.ndarray,
        v_mem: np.ndarray,
    ) -> GridBreakdown:
        """Vectorized :meth:`breakdown` over configuration arrays.

        Term-by-term the arithmetic mirrors the scalar path (including the
        sequential component summation of ``PowerBreakdown.dynamic_watts``),
        so each array entry is bitwise identical to the scalar result."""
        params = self.parameters
        core_scale = v_core**2 * (core_mhz / self.spec.default_core_mhz)
        mem_scale = v_mem**2 * (memory_mhz / self.spec.default_memory_mhz)

        static = params.static_core_watts * v_core + params.static_mem_watts * v_mem
        idle_core = params.idle_core_watts * core_scale
        idle_mem = params.idle_mem_watts * mem_scale

        component_watts: Dict[Component, np.ndarray] = {}
        for component in CORE_COMPONENTS:
            full = params.dynamic_full_watts.get(component, 0.0)
            component_watts[component] = (
                full * profiles.utilizations[component] * core_scale
            )
        dram_full = params.dynamic_full_watts.get(Component.DRAM, 0.0)
        component_watts[Component.DRAM] = (
            dram_full * profiles.utilizations[Component.DRAM] * mem_scale
        )
        issue = params.issue_full_watts * profiles.issue_activity * core_scale
        residual = self.residual_factor(profiles.kernel.name)

        # Replicate ``sum(component_watts.values()) + issue`` left to right.
        raw = np.zeros_like(static)
        for watts in component_watts.values():
            raw = raw + watts
        dynamic = (raw + issue) * residual
        constant = static + idle_core + idle_mem
        return GridBreakdown(
            static_watts=static,
            idle_core_watts=idle_core,
            idle_mem_watts=idle_mem,
            component_watts=component_watts,
            issue_watts=issue,
            residual_factor=residual,
            total_watts=constant + dynamic,
        )
