"""Scalar reference walk of the measurement campaign: the test oracle.

:func:`scalar_campaign` measures every (kernel, configuration) cell one at
a time — pin the application clocks, take the Sec. V-A median of repeats —
the way a hand-driven campaign would, and emits the campaign telemetry as
it goes: ``campaign``/``profile``/``measure``/``cell`` spans and the
``rows.collected``, ``rows.degraded``, ``cells.skipped`` and
``kernels.skipped`` counters. The production campaign
(:func:`repro.core.dataset.collect_campaign`, serial or sharded) batches
the same measurements through ``measure_grid_columns`` and derives its
telemetry from the measured columns afterwards; the differential tests
demand that its dataset and report be bitwise equal to this walk's, and
that its trace have this walk's span tree and counters.

Clock-set faults are the one path-dependent fault class: the walk sets the
clocks once per cell, the columnar campaign never does. Chaos comparisons
therefore run the oracle under :func:`oracle_plan`, the campaign's fault
plan with clock-set faults switched off.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.dataset import CampaignReport, TrainingDataset, TrainingRow
from repro.core.metrics import MetricCalculator
from repro.driver import faults as faultlib
from repro.driver.faults import FaultPlan
from repro.driver.session import ProfilingSession
from repro.errors import PersistentDriverError, ValidationError
from repro.hardware.specs import FrequencyConfig
from repro.kernels.kernel import KernelDescriptor


def oracle_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """``plan`` without clock-set faults (the columnar path sets no clocks)."""
    if plan is None:
        return None
    return dataclasses.replace(plan, clock_set_failure_rate=0.0)


def scalar_campaign(
    session: ProfilingSession,
    kernels: Sequence[KernelDescriptor],
    configs: Optional[Sequence[FrequencyConfig]] = None,
) -> Tuple[TrainingDataset, CampaignReport]:
    """The campaign as a cell-by-cell scalar walk; same contract as
    :func:`repro.core.dataset.collect_campaign`."""
    spec = session.gpu.spec
    if configs is None:
        configs = spec.all_configurations()
    configs = [spec.validate_configuration(config) for config in configs]
    calculator = MetricCalculator(spec)
    recorder = session.recorder
    stats = session.fault_stats
    baseline = dataclasses.replace(stats)
    backoff_before = session.backoff_clock.total_seconds

    with recorder.span(
        "campaign", device=spec.name, kernels=len(kernels), configs=len(configs)
    ) as campaign_span:
        utilization_by_kernel = {}
        skipped_kernels: List[str] = []
        for kernel in kernels:
            with recorder.span("profile", kernel=kernel.name) as profile_span:
                try:
                    record = session.collect_events(kernel)
                except PersistentDriverError:
                    profile_span.set(skipped=True)
                    recorder.add("kernels.skipped")
                    skipped_kernels.append(kernel.name)
                    continue
            utilization_by_kernel[kernel.name] = calculator.utilizations(record)

        rows: List[TrainingRow] = []
        skipped_cells: List[Tuple[str, FrequencyConfig]] = []
        for kernel in kernels:
            if kernel.name not in utilization_by_kernel:
                continue
            with recorder.span("measure", kernel=kernel.name):
                for config in configs:
                    try:
                        measurement = session.measure_power(kernel, config)
                    except PersistentDriverError:
                        with recorder.span(
                            "cell",
                            core=config.core_mhz,
                            memory=config.memory_mhz,
                        ) as cell_span:
                            cell_span.set(skipped=True)
                            recorder.add("cells.skipped")
                        skipped_cells.append((kernel.name, config))
                        continue
                    applied = measurement.applied_config
                    with recorder.span(
                        "cell", core=applied.core_mhz, memory=applied.memory_mhz
                    ) as cell_span:
                        if measurement.quality:
                            cell_span.set(quality=list(measurement.quality))
                            recorder.add("rows.degraded")
                        recorder.add("rows.collected")
                    rows.append(
                        TrainingRow(
                            kernel_name=kernel.name,
                            config=applied,
                            measured_watts=measurement.average_watts,
                            utilizations=utilization_by_kernel[kernel.name],
                            quality=measurement.quality,
                        )
                    )
        campaign_span.set(
            rows=len(rows),
            skipped_cells=len(skipped_cells),
            skipped_kernels=len(skipped_kernels),
        )
    if not rows:
        raise ValidationError(
            "measurement campaign produced no usable rows (every kernel or "
            "cell was skipped)"
        )

    def flagged(flag: str) -> int:
        return sum(1 for row in rows if flag in row.quality)

    report = CampaignReport(
        device_name=spec.name,
        kernel_count=len(utilization_by_kernel),
        config_count=len(configs),
        row_count=len(rows),
        clean_rows=sum(1 for row in rows if not row.quality),
        retried_rows=flagged(faultlib.RETRIED),
        dropout_rows=flagged(faultlib.DROPOUTS),
        throttle_injected_rows=flagged(faultlib.THROTTLE_INJECTED),
        skipped_cells=tuple(skipped_cells),
        skipped_kernels=tuple(skipped_kernels),
        read_faults=stats.read_faults - baseline.read_faults,
        clock_faults=stats.clock_faults - baseline.clock_faults,
        event_faults=stats.event_faults - baseline.event_faults,
        dropped_samples=stats.dropped_samples - baseline.dropped_samples,
        injected_throttles=(
            stats.injected_throttles - baseline.injected_throttles
        ),
        corrupted_counters=(
            stats.corrupted_counters - baseline.corrupted_counters
        ),
        backoff_seconds=session.backoff_clock.total_seconds - backoff_before,
    )
    return TrainingDataset(spec=spec, rows=tuple(rows)), report
