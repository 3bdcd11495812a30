"""NVML/CUPTI-like driver layer.

The estimation pipeline never talks to the simulated hardware directly; it
goes through this layer, which mirrors the tooling of Sec. V-A:

* :mod:`repro.driver.nvml` — clock control and the sampled power sensor
  (NVML), including each device's sensor refresh period;
* :mod:`repro.driver.events` — the raw performance-event tables of Table I,
  including the undisclosed numeric event IDs;
* :mod:`repro.driver.cupti` — event collection (CUPTI), with the
  per-architecture counter inaccuracies;
* :mod:`repro.driver.session` — a convenience profiling session combining
  the two, implementing the paper's repetition/median methodology;
* :mod:`repro.driver.faults` — the seeded fault-injection chaos layer
  (transient read failures, sample dropouts, counter saturation, spurious
  throttling) and the resilience primitives (retry policy, virtual backoff
  clock, robust median).
"""

from repro.driver.events import EventTable, event_table_for
from repro.driver.faults import (
    DEFAULT_RETRY_POLICY,
    BackoffClock,
    FaultPlan,
    FaultStats,
    RetryPolicy,
    robust_median,
)
from repro.driver.nvml import NVMLDevice, PowerColumns, PowerMeasurement
from repro.driver.cupti import CuptiContext, EventRecord
from repro.driver.session import ProfilingSession, KernelObservation

__all__ = [
    "EventTable",
    "event_table_for",
    "NVMLDevice",
    "PowerColumns",
    "PowerMeasurement",
    "CuptiContext",
    "EventRecord",
    "ProfilingSession",
    "KernelObservation",
    "FaultPlan",
    "FaultStats",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "BackoffClock",
    "robust_median",
]
