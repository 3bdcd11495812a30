"""repro — reproduction of "GPGPU Power Modeling for Multi-Domain
Voltage-Frequency Scaling" (Guerreiro, Ilic, Roma, Tomás — HPCA 2018).

The library builds, on a simulated-GPU substrate, the paper's full pipeline:
a DVFS-aware GPU power model estimated from 83 microbenchmarks that predicts
total and per-component power at every core/memory voltage-frequency
configuration from performance events measured at a single configuration.

Quickstart::

    import repro

    gpu = repro.SimulatedGPU(repro.GTX_TITAN_X)
    session = repro.ProfilingSession(gpu)
    model, report = repro.fit_power_model(session)

    kernel = repro.workload_by_name("blackscholes")
    utilizations = repro.MetricCalculator(gpu.spec).utilizations(
        session.collect_events(kernel)
    )
    watts = model.predict_power(
        utilizations, repro.FrequencyConfig(595, 810)
    )

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.config import (
    DEFAULT_SETTINGS,
    NOISELESS_SETTINGS,
    SimulationSettings,
)
from repro.errors import (
    DriverError,
    PersistentDriverError,
    ReproError,
    TransientDriverError,
)
from repro.driver.faults import (
    BackoffClock,
    FaultPlan,
    FaultStats,
    RetryPolicy,
    robust_median,
)
from repro.hardware.components import Component, Domain
from repro.hardware.specs import (
    ALL_GPUS,
    FrequencyConfig,
    GPUSpec,
    GTX_TITAN_X,
    TESLA_K40C,
    TITAN_XP,
    gpu_spec_by_name,
)
from repro.hardware.gpu import KernelRunResult, SimulatedGPU
from repro.hardware.scaling import (
    CONSERVATIVE,
    ITRS,
    SCALING_TABLES,
    TECH_NODES,
    ScalingFactors,
    ScalingTable,
    scaling_table,
)
from repro.hardware.families import (
    DeviceFamily,
    FamilyMember,
    standard_members,
)
from repro.driver.session import ProfilingSession
from repro.driver.nvml import NVMLDevice
from repro.driver.cupti import CuptiContext
from repro.kernels.kernel import KernelDescriptor, idle_kernel
from repro.microbench import build_suite
from repro.workloads import (
    all_workloads,
    kernel_from_utilizations,
    workload_by_name,
)
from repro.core.metrics import MetricCalculator, UtilizationVector
from repro.core.model import DVFSPowerModel, ModelParameters
from repro.core.dataset import (
    CampaignReport,
    TrainingDataset,
    collect_campaign,
    collect_training_dataset,
)
from repro.core.estimation import (
    EstimatorReport,
    ModelEstimator,
    fit_power_model,
)
from repro.core.perf_estimation import (
    DevicePerformanceModel,
    EnergyModel,
    KernelPerformanceModel,
    PerformanceEstimator,
    PerformanceEstimatorReport,
    fit_performance_model,
)
from repro.core.baselines import (
    AbeLinearModel,
    FixedConfigurationModel,
    LinearFrequencyModel,
)
from repro.analysis.validation import ValidationResult, validate_model
from repro.analysis.breakdown import BreakdownReport, breakdown_report
from repro.analysis.voltage import fit_voltage_regions
from repro.analysis.dvfs import DVFSAdvisor
from repro.serialization import (
    load_family_member,
    load_model,
    load_performance_model,
    save_family_member,
    save_model,
    save_performance_model,
)
from repro.serving import (
    FleetConfig,
    FleetRouter,
    ModelRegistry,
    PredictionEngine,
    PredictionFleet,
    PredictionServer,
    ServerConfig,
)
from repro.parallel import (
    DeviceSpec,
    collect_campaign_sharded,
    collect_training_dataset_sharded,
)
from repro.traffic import TrafficShape, sample_arrivals, shape_by_name
from repro.cluster import (
    ClusterReport,
    ClusterSimulator,
    DeadlineAwareEdfScheduler,
    DeviceOracle,
    EnergyGreedyScheduler,
    GPUNode,
    Job,
    JobRecord,
    JobTrace,
    MaxClocksFifoScheduler,
    NodeFailurePlan,
    PowerCappedEdfScheduler,
    Scheduler,
    build_fleet,
    fleet_reference_seconds,
    generate_job_trace,
    scheduler_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SimulationSettings", "DEFAULT_SETTINGS", "NOISELESS_SETTINGS",
    # errors
    "ReproError", "DriverError", "TransientDriverError",
    "PersistentDriverError",
    # fault injection & resilience
    "FaultPlan", "FaultStats", "RetryPolicy", "BackoffClock",
    "robust_median",
    # hardware
    "Component", "Domain", "GPUSpec", "FrequencyConfig",
    "TITAN_XP", "GTX_TITAN_X", "TESLA_K40C", "ALL_GPUS", "gpu_spec_by_name",
    "SimulatedGPU", "KernelRunResult",
    # technology scaling & synthetic device families
    "ScalingTable", "ScalingFactors", "ITRS", "CONSERVATIVE",
    "SCALING_TABLES", "TECH_NODES", "scaling_table",
    "DeviceFamily", "FamilyMember", "standard_members",
    # driver
    "ProfilingSession", "NVMLDevice", "CuptiContext",
    # kernels & workloads
    "KernelDescriptor", "idle_kernel", "build_suite",
    "all_workloads", "workload_by_name", "kernel_from_utilizations",
    # core model
    "MetricCalculator", "UtilizationVector",
    "DVFSPowerModel", "ModelParameters",
    "TrainingDataset", "collect_training_dataset",
    "CampaignReport", "collect_campaign",
    "ModelEstimator", "EstimatorReport", "fit_power_model",
    "AbeLinearModel", "LinearFrequencyModel", "FixedConfigurationModel",
    # performance + energy model
    "PerformanceEstimator", "PerformanceEstimatorReport",
    "DevicePerformanceModel", "KernelPerformanceModel",
    "EnergyModel", "fit_performance_model",
    # analysis
    "ValidationResult", "validate_model",
    "BreakdownReport", "breakdown_report",
    "fit_voltage_regions", "DVFSAdvisor",
    # serialization
    "save_model", "load_model",
    "save_performance_model", "load_performance_model",
    "save_family_member", "load_family_member",
    # serving
    "ModelRegistry", "PredictionEngine", "PredictionServer", "ServerConfig",
    "PredictionFleet", "FleetConfig", "FleetRouter",
    # sharded campaign
    "DeviceSpec",
    "collect_campaign_sharded", "collect_training_dataset_sharded",
    # traffic shapes
    "TrafficShape", "shape_by_name", "sample_arrivals",
    # cluster scheduling
    "Job", "JobTrace", "generate_job_trace", "fleet_reference_seconds",
    "DeviceOracle", "GPUNode", "build_fleet",
    "Scheduler", "MaxClocksFifoScheduler", "EnergyGreedyScheduler",
    "DeadlineAwareEdfScheduler", "PowerCappedEdfScheduler",
    "scheduler_by_name", "NodeFailurePlan",
    "ClusterSimulator", "ClusterReport", "JobRecord",
]
