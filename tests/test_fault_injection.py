"""Unit tests for the fault-injection layer (:mod:`repro.driver.faults`)
and the driver stack's resilience hooks.

Everything here is deterministic: fault decisions are pure functions of the
plan seed and stable labels, and retry backoff accumulates on a virtual
clock — no test ever sleeps on the wall clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.driver import faults as faultlib
from repro.driver.faults import (
    DEFAULT_RETRY_POLICY,
    BackoffClock,
    FaultPlan,
    FaultStats,
    RetryPolicy,
    robust_median,
)
from repro.driver.nvml import NVMLDevice
from repro.driver.session import ProfilingSession
from repro.errors import (
    DriverError,
    NVMLError,
    PersistentDriverError,
    TransientCuptiError,
    TransientDriverError,
    TransientNVMLError,
)
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import GTX_TITAN_X, FrequencyConfig
from repro.workloads import workload_by_name


def _gpu(plan=None):
    return SimulatedGPU(GTX_TITAN_X, fault_plan=plan)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(nvml_read_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(sample_dropout_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(dropout_density=2.0)

    def test_enabled_property(self):
        assert not FaultPlan().enabled
        assert FaultPlan(nvml_read_rate=0.01).enabled
        # dropout_density alone enables nothing (it only shapes episodes).
        assert not FaultPlan(dropout_density=0.9).enabled

    def test_transient_plan_excludes_counter_corruption(self):
        plan = FaultPlan.transient(0.05, seed=3)
        assert plan.enabled
        assert plan.nvml_read_rate == 0.05
        assert plan.cupti_read_rate == 0.05
        assert plan.sample_dropout_rate == 0.05
        assert plan.thermal_throttle_rate == 0.05
        assert plan.clock_set_failure_rate == 0.05
        # Saturation biases systematically — it is not a transient fault.
        assert plan.counter_corruption_rate == 0.0

    def test_decisions_deterministic_in_seed_and_labels(self):
        a = FaultPlan(nvml_read_rate=0.3, seed=11)
        b = FaultPlan(nvml_read_rate=0.3, seed=11)
        c = FaultPlan(nvml_read_rate=0.3, seed=12)
        labels = [("dev", "k", f"{core}-810", attempt)
                  for core in (595, 705, 810) for attempt in range(4)]
        decisions_a = [a.nvml_read_fails(*label) for label in labels]
        decisions_b = [b.nvml_read_fails(*label) for label in labels]
        decisions_c = [c.nvml_read_fails(*label) for label in labels]
        assert decisions_a == decisions_b
        assert decisions_a != decisions_c

    def test_rate_endpoints(self):
        never = FaultPlan(nvml_read_rate=0.0)
        always = FaultPlan(nvml_read_rate=1.0)
        assert not never.nvml_read_fails("d", "k", "c", 0)
        assert always.nvml_read_fails("d", "k", "c", 0)

    def test_observed_rate_tracks_configured_rate(self):
        plan = FaultPlan(nvml_read_rate=0.05, seed=5)
        hits = sum(
            plan.nvml_read_fails("dev", f"kernel{i}", f"cell{j}", 0)
            for i in range(40)
            for j in range(50)
        )
        assert 0.03 <= hits / 2000 <= 0.07

    def test_dropout_mask_shape_and_determinism(self):
        plan = FaultPlan(sample_dropout_rate=1.0, dropout_density=0.25, seed=2)
        mask = plan.dropout_mask("d", "k", "c", 0, 10, 28)
        assert mask is not None and mask.shape == (10, 28)
        again = plan.dropout_mask("d", "k", "c", 0, 10, 28)
        assert np.array_equal(mask, again)

    def test_dropout_mask_none_without_episode(self):
        plan = FaultPlan(sample_dropout_rate=0.0)
        assert plan.dropout_mask("d", "k", "c", 0, 10, 28) is None

    def test_corrupted_events_systematic(self):
        plan = FaultPlan(counter_corruption_rate=0.5, seed=9)
        names = tuple(f"event_{i}" for i in range(20))
        first = plan.corrupted_events("d", "k", names)
        assert first == plan.corrupted_events("d", "k", names)
        assert 0 < len(first) < len(names)
        # Independent per kernel.
        assert first != plan.corrupted_events("d", "other", names)


# ----------------------------------------------------------------------
# Retry policy / backoff clock / robust median
# ----------------------------------------------------------------------
class TestResiliencePrimitives:
    def test_retry_policy_exponential_schedule(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base_seconds=0.05, backoff_multiplier=2.0
        )
        assert [policy.delay_for(i) for i in range(4)] == pytest.approx(
            [0.05, 0.1, 0.2, 0.4]
        )

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_seconds=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_backoff_clock_is_virtual(self, monkeypatch):
        import time

        def forbidden(_seconds):  # pragma: no cover - should never run
            raise AssertionError("wall-clock sleep in a virtual backoff")

        monkeypatch.setattr(time, "sleep", forbidden)
        clock = BackoffClock()
        clock.sleep(0.05)
        clock.sleep(0.1)
        assert clock.total_seconds == pytest.approx(0.15)
        assert clock.sleep_log == [0.05, 0.1]

    def test_backoff_clock_custom_sleeper(self):
        calls = []
        clock = BackoffClock(sleeper=calls.append)
        clock.sleep(0.2)
        assert calls == [0.2]

    def test_robust_median_matches_numpy_without_outliers(self):
        rng = np.random.default_rng(0)
        values = 100.0 + rng.normal(0, 0.5, size=10)
        assert robust_median(values) == float(np.median(values))

    def test_robust_median_rejects_outlier(self):
        values = np.asarray([100.0, 100.2, 99.9, 100.1, 100.05, 40.0])
        robust = robust_median(values)
        plain = float(np.median(values))
        # The outlier is rejected: the result is the median of the clean
        # subset, not the even-count interpolation the outlier drags down.
        assert robust == float(np.median(values[:-1]))
        assert robust != plain

    def test_robust_median_constant_and_empty(self):
        assert robust_median(np.full(5, 42.0)) == 42.0
        with pytest.raises(ValueError):
            robust_median(np.asarray([]))


# ----------------------------------------------------------------------
# Error hierarchy
# ----------------------------------------------------------------------
def test_transient_errors_are_catchable_by_layer_and_kind():
    assert issubclass(TransientNVMLError, NVMLError)
    assert issubclass(TransientNVMLError, TransientDriverError)
    assert issubclass(TransientCuptiError, TransientDriverError)
    assert issubclass(PersistentDriverError, DriverError)
    assert not issubclass(PersistentDriverError, TransientDriverError)


# ----------------------------------------------------------------------
# NVML resilience
# ----------------------------------------------------------------------
class TestNVMLFaults:
    def test_device_inherits_plan_from_board(self):
        plan = FaultPlan.transient(0.05)
        device = NVMLDevice(_gpu(plan))
        assert device.fault_plan is plan

    def test_all_zero_plan_is_bitwise_clean(self):
        kernel = workload_by_name("gemm")
        clean = NVMLDevice(_gpu()).measure_median_power(kernel)
        gated = NVMLDevice(_gpu(FaultPlan())).measure_median_power(kernel)
        assert gated == clean
        assert gated.quality == () and gated.retries == 0

    def test_retry_recovers_and_flags_measurement(self):
        # rate=0.5 guarantees some cell faults at attempt 0 and recovers on
        # a later attempt; scan the grid for one deterministic instance.
        plan = FaultPlan(nvml_read_rate=0.5, seed=123)
        device = NVMLDevice(_gpu(plan))
        kernel = workload_by_name("gemm")
        retried = None
        for config in GTX_TITAN_X.all_configurations():
            device.set_application_clocks(config.core_mhz, config.memory_mhz)
            sleeps_before = len(device.backoff_clock.sleep_log)
            try:
                measurement = device.measure_median_power(kernel)
            except PersistentDriverError:
                continue  # at rate 0.5 some cells legitimately exhaust
            if measurement.retries:
                retried = (measurement, sleeps_before)
                break
        assert retried is not None, "no cell needed a retry at rate 0.5"
        measurement, sleeps_before = retried
        assert faultlib.RETRIED in measurement.quality
        log = device.backoff_clock.sleep_log[sleeps_before:]
        policy = device.retry_policy
        assert log == [policy.delay_for(i) for i in range(measurement.retries)]

    def test_persistent_read_failure_exhausts_budget(self):
        plan = FaultPlan(nvml_read_rate=1.0, seed=1)
        device = NVMLDevice(_gpu(plan))
        kernel = workload_by_name("gemm")
        with pytest.raises(PersistentDriverError):
            device.measure_median_power(kernel)
        policy = device.retry_policy
        assert device.backoff_clock.sleep_log == [
            policy.delay_for(i) for i in range(policy.max_attempts - 1)
        ]
        assert device.fault_stats.read_faults == policy.max_attempts
        assert device.fault_stats.unreadable_cells == 1

    def test_single_shot_measurement_retries(self):
        plan = FaultPlan(nvml_read_rate=1.0, seed=1)
        device = NVMLDevice(_gpu(plan))
        with pytest.raises(PersistentDriverError):
            device.measure_power(workload_by_name("gemm"))

    def test_spurious_throttle_lowers_applied_clock(self):
        plan = FaultPlan(thermal_throttle_rate=1.0, seed=4)
        device = NVMLDevice(_gpu(plan))
        measurement = device.measure_median_power(workload_by_name("gemm"))
        assert faultlib.THROTTLE_INJECTED in measurement.quality
        assert (
            measurement.applied_config.core_mhz
            < measurement.requested_config.core_mhz
        )
        assert measurement.throttled

    def test_dropouts_flagged_and_still_accurate(self):
        plan = FaultPlan(sample_dropout_rate=1.0, dropout_density=0.3, seed=6)
        device = NVMLDevice(_gpu(plan))
        kernel = workload_by_name("gemm")
        faulted = device.measure_median_power(kernel)
        clean = NVMLDevice(_gpu()).measure_median_power(kernel)
        assert faultlib.DROPOUTS in faulted.quality
        assert device.fault_stats.dropped_samples > 0
        # Losing 30 % of samples barely moves the robust median.
        assert faulted.average_watts == pytest.approx(
            clean.average_watts, rel=0.02
        )

    def test_clock_set_failure_persists_and_leaves_clocks(self):
        plan = FaultPlan(clock_set_failure_rate=1.0, seed=8)
        device = NVMLDevice(_gpu(plan))
        before = device.application_clocks
        with pytest.raises(PersistentDriverError):
            device.set_application_clocks(595, 3505)
        assert device.application_clocks == before
        assert device.fault_stats.clock_faults == device.retry_policy.max_attempts

    def test_clock_set_transient_failures_recover(self):
        plan = FaultPlan(clock_set_failure_rate=0.5, seed=21)
        device = NVMLDevice(_gpu(plan))
        applied = 0
        for config in GTX_TITAN_X.all_configurations():
            try:
                device.set_application_clocks(
                    config.core_mhz, config.memory_mhz
                )
            except PersistentDriverError:
                continue
            applied += 1
            assert device.application_clocks == config
        assert applied > 0

    def test_grid_skip_records_unreadable_cells(self):
        plan = FaultPlan(nvml_read_rate=1.0, seed=1)
        device = NVMLDevice(_gpu(plan))
        kernel = workload_by_name("gemm")
        configs = GTX_TITAN_X.all_configurations()[:4]
        columns = device.measure_power_grid_columns(
            [kernel], configs, on_unreadable="skip"
        )
        assert len(columns) == len(configs)
        for code, watts in zip(columns.quality, columns.watts):
            assert faultlib.decode_quality(code) == (faultlib.UNREADABLE,)
            assert np.isnan(watts)

    def test_grid_raise_propagates_unreadable(self):
        plan = FaultPlan(nvml_read_rate=1.0, seed=1)
        device = NVMLDevice(_gpu(plan))
        with pytest.raises(PersistentDriverError):
            device.measure_power_grid_columns(
                [workload_by_name("gemm")],
                GTX_TITAN_X.all_configurations()[:4],
            )

    def test_grid_rejects_unknown_on_unreadable(self):
        device = NVMLDevice(_gpu())
        with pytest.raises(NVMLError):
            device.measure_power_grid_columns(
                [workload_by_name("gemm")],
                GTX_TITAN_X.all_configurations()[:2],
                on_unreadable="ignore",
            )


# ----------------------------------------------------------------------
# CUPTI / session resilience
# ----------------------------------------------------------------------
class TestCuptiFaults:
    def test_session_retries_event_collection(self):
        # Moderate rate: some kernels fail once or twice and recover.
        plan = FaultPlan(cupti_read_rate=0.4, seed=17)
        session = ProfilingSession(_gpu(plan))
        kernel = workload_by_name("gemm")
        record = session.collect_events(kernel)
        assert record.kernel_name == kernel.name

    def test_session_exhausts_event_retries(self):
        plan = FaultPlan(cupti_read_rate=1.0, seed=17)
        session = ProfilingSession(_gpu(plan))
        with pytest.raises(PersistentDriverError):
            session.collect_events(workload_by_name("gemm"))
        assert (
            session.fault_stats.event_faults
            == session.retry_policy.max_attempts
        )
        assert len(session.backoff_clock.sleep_log) == (
            session.retry_policy.max_attempts - 1
        )

    def test_counter_saturation_applied_and_reproducible(self):
        plan = FaultPlan(counter_corruption_rate=0.3, seed=30)
        session = ProfilingSession(_gpu(plan))
        kernel = workload_by_name("gemm")
        record = session.collect_events(kernel)
        saturated = [
            name
            for name, value in record.values.items()
            if value == plan.counter_saturation_value
        ]
        expected = plan.corrupted_events(
            "GTX Titan X", kernel.name, tuple(record.values)
        )
        assert tuple(saturated) == expected
        assert saturated  # rate 0.3 over ~20 events: some must saturate
        again = session.collect_events(kernel)
        assert dict(record.values) == dict(again.values)

    def test_shared_stats_and_clock_across_handles(self):
        plan = FaultPlan.transient(0.05)
        session = ProfilingSession(_gpu(plan))
        assert session.nvml.fault_stats is session.fault_stats
        assert session.cupti.fault_stats is session.fault_stats
        assert session.nvml.backoff_clock is session.backoff_clock


# ----------------------------------------------------------------------
# FaultStats
# ----------------------------------------------------------------------
def test_fault_stats_total():
    stats = FaultStats(read_faults=2, clock_faults=1, event_faults=3)
    assert stats.total_faults == 6
    assert FaultStats().total_faults == 0


def test_default_retry_policy_is_bounded():
    assert DEFAULT_RETRY_POLICY.max_attempts >= 2
    assert DEFAULT_RETRY_POLICY.backoff_base_seconds > 0
