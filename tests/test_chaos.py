"""Chaos tests: the measurement campaign under seeded driver faults.

The headline resilience guarantees of the fault-injection layer:

* a 5 % transient-fault plan never aborts the campaign — every device's
  full suite x grid dataset completes, with per-cell quality flags;
* the estimator fitted on the faulted dataset stays within 2 % RMSE (and
  small voltage deviations) of the fault-free fit;
* the columnar campaign and the scalar walk (:mod:`tests.oracles`)
  observe the *same* seeded fault stream, so their datasets are identical
  row by row;
* everything is deterministic and no retry ever sleeps on the wall clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import collect_campaign, collect_training_dataset
from repro.core.estimation import ModelEstimator
from repro.driver import faults as faultlib
from repro.driver.faults import FaultPlan
from repro.driver.session import ProfilingSession
from repro.hardware.gpu import SimulatedGPU
from repro.microbench import build_suite
from repro.telemetry import TraceRecorder
from repro.units import closest_lower_level
from tests.oracles import oracle_plan, scalar_campaign

#: The acceptance setting: every transient fault class at 5 %.
CHAOS_RATE = 0.05
CHAOS_SEED = 20180224


def _chaos_session(spec, seed: int = CHAOS_SEED) -> ProfilingSession:
    plan = FaultPlan.transient(CHAOS_RATE, seed=seed)
    return ProfilingSession(SimulatedGPU(spec, fault_plan=plan))


def _traced_chaos_session(spec, seed: int = CHAOS_SEED) -> ProfilingSession:
    plan = FaultPlan.transient(CHAOS_RATE, seed=seed)
    recorder = TraceRecorder()
    return ProfilingSession(
        SimulatedGPU(spec, fault_plan=plan, recorder=recorder)
    )


@pytest.fixture(autouse=True)
def _no_wall_clock_sleeps(monkeypatch):
    """Chaos runs must never stall: backoff is virtual by construction."""
    import time

    def forbidden(_seconds):  # pragma: no cover - tripping it is the bug
        raise AssertionError(
            "fault-injection retry slept on the wall clock"
        )

    monkeypatch.setattr(time, "sleep", forbidden)


class TestChaosCampaign:
    """Full-suite campaign under the 5 % plan, per device (acceptance)."""

    def test_campaign_completes_with_quality_flags(self, lab, any_spec):
        session = _chaos_session(any_spec)
        dataset, campaign = collect_campaign(session, lab.suite)

        clean = lab.dataset(any_spec.name)
        # Graceful degradation may only ever *remove* cells, and at 5 %
        # transient rates nothing should actually be lost.
        assert campaign.skipped_kernels == ()
        assert campaign.skipped_cells == ()
        assert campaign.complete
        assert campaign.row_count == len(clean.rows)

        # Faults demonstrably fired and were recorded per cell.
        assert campaign.flagged_rows > 0
        assert campaign.read_faults > 0
        assert campaign.dropped_samples > 0
        assert campaign.backoff_seconds > 0
        flags = {flag for row in dataset.rows for flag in row.quality}
        assert "dropouts" in flags
        assert np.isfinite(dataset.measured_vector()).all()

    def test_estimator_fit_within_tolerance_of_fault_free(self, lab, any_spec):
        session = _chaos_session(any_spec)
        dataset, _ = collect_campaign(session, lab.suite)
        model, report = ModelEstimator(dataset).estimate()

        clean_model = lab.model(any_spec.name)
        clean_report = lab.report(any_spec.name)
        # Acceptance: <= 2 % RMSE deviation from the fault-free fit
        # (measured ~0.1-0.4 % across the three devices).
        rmse_deviation = (
            abs(report.final_rmse - clean_report.final_rmse)
            / clean_report.final_rmse
        )
        assert rmse_deviation <= 0.02
        assert report.train_mae_percent == pytest.approx(
            clean_report.train_mae_percent, abs=0.5
        )
        # Fitted voltages stay close cell by cell (measured <= 0.03).
        for config in clean_model.known_configurations():
            chaos_v = model.voltage_at(config)
            clean_v = clean_model.voltage_at(config)
            assert abs(chaos_v.v_core - clean_v.v_core) <= 0.05
            assert abs(chaos_v.v_mem - clean_v.v_mem) <= 0.05

    def test_campaign_deterministic_in_seed(self, lab):
        spec = lab.spec("Tesla K40c")  # smallest grid: fastest double run
        kernels = lab.suite[:12]
        first, report_a = collect_campaign(_chaos_session(spec), kernels)
        second, report_b = collect_campaign(_chaos_session(spec), kernels)
        assert first.rows == second.rows
        assert report_a == report_b

    def test_different_seed_different_fault_stream(self, lab):
        spec = lab.spec("Tesla K40c")
        kernels = lab.suite[:12]
        _, report_a = collect_campaign(_chaos_session(spec, seed=1), kernels)
        _, report_b = collect_campaign(_chaos_session(spec, seed=2), kernels)
        assert (
            report_a.read_faults,
            report_a.dropped_samples,
            report_a.retried_rows,
        ) != (
            report_b.read_faults,
            report_b.dropped_samples,
            report_b.retried_rows,
        )


class TestChaosGridScalarEquivalence:
    """Columnar campaign and scalar walk observe identical fault streams."""

    def test_grid_rows_identical_to_scalar_under_faults(self, lab, any_spec):
        kernels = lab.suite[:6]
        configs = any_spec.all_configurations()[:8]
        # Clock-set faults stay off: the columnar campaign performs no
        # clock-set driver calls at all, so they are inherently path
        # dependent.
        plan = FaultPlan(
            seed=CHAOS_SEED,
            nvml_read_rate=CHAOS_RATE,
            cupti_read_rate=CHAOS_RATE,
            sample_dropout_rate=0.3,
            thermal_throttle_rate=0.15,
        )
        grid_session = ProfilingSession(SimulatedGPU(any_spec, fault_plan=plan))
        scalar_session = ProfilingSession(
            SimulatedGPU(any_spec, fault_plan=plan)
        )
        fast, fast_report = collect_campaign(grid_session, kernels, configs)
        slow, slow_report = scalar_campaign(scalar_session, kernels, configs)
        assert fast.rows == slow.rows
        assert fast_report.flagged_rows == slow_report.flagged_rows
        assert fast_report.flagged_rows > 0  # the rates guarantee faults
        assert fast_report.dropped_samples == slow_report.dropped_samples

    def test_faults_disabled_bitwise_identical_to_no_plan(self, any_spec):
        kernels = build_suite()[:4]
        configs = any_spec.all_configurations()[:5]
        bare = collect_training_dataset(
            ProfilingSession(SimulatedGPU(any_spec)), kernels, configs
        )
        gated = collect_training_dataset(
            ProfilingSession(SimulatedGPU(any_spec, fault_plan=FaultPlan())),
            kernels,
            configs,
        )
        assert bare.rows == gated.rows


class TestChaosTelemetryCrossCheck:
    """Telemetry counters audited against two independent sources: the
    campaign's own :class:`CampaignReport` tallies, and a from-scratch
    replay of the seeded :class:`FaultPlan` decision stream."""

    def test_counters_mirror_campaign_report(self, lab, any_spec):
        session = _traced_chaos_session(any_spec)
        recorder = session.recorder
        kernels = lab.suite[:10]
        _, report = collect_campaign(session, kernels)

        c = recorder.counter
        assert c("faults.nvml_read") == report.read_faults
        assert c("faults.cupti_read") == report.event_faults
        assert c("faults.clock_set") == report.clock_faults
        assert c("samples.dropped") == report.dropped_samples
        assert c("throttle.injected") == report.injected_throttles
        assert c("counters.corrupted") == report.corrupted_counters
        # faults.injected is the grand total of every injected fault event.
        assert c("faults.injected") == (
            report.read_faults
            + report.event_faults
            + report.clock_faults
            + report.injected_throttles
            + report.corrupted_counters
        )
        assert c("rows.collected") == report.row_count
        assert c("rows.degraded") == report.flagged_rows
        assert c("cells.skipped") == len(report.skipped_cells)
        assert c("kernels.skipped") == len(report.skipped_kernels)
        # Same floats added in the same order: exact equality, not approx.
        assert c("backoff.virtual_seconds") == report.backoff_seconds
        assert report.flagged_rows > 0  # the 5 % plan demonstrably fired

    def test_counters_equal_replayed_fault_plan_stream(self, lab, any_spec):
        """Replay the plan's pure decision functions cell by cell and
        demand the recorder saw exactly that stream — nothing dropped,
        nothing double-counted."""
        plan = FaultPlan.transient(CHAOS_RATE, seed=CHAOS_SEED)
        recorder = TraceRecorder()
        session = ProfilingSession(
            SimulatedGPU(any_spec, fault_plan=plan, recorder=recorder)
        )
        kernels = lab.suite[:16]
        configs = any_spec.all_configurations()[:8]
        repeats = session.settings.measurement_repeats
        columns = session.measure_grid_columns(
            kernels, configs, on_unreadable="skip"
        )

        # Scalar twin session under the same fault stream (clock-set
        # faults off — it sets clocks per cell): its measurements expose
        # each cell's retry count and sample count. Fault-free twin board:
        # reproduces each cell's pre-injection applied configuration
        # (fault plans never alter execution).
        scalar = ProfilingSession(
            SimulatedGPU(any_spec, fault_plan=oracle_plan(plan))
        )
        twin = SimulatedGPU(any_spec)
        name = any_spec.name
        read_faults = retries = throttles = dropped = 0
        cell_index = 0
        for kernel in kernels:
            for config in configs:
                m = scalar.measure_power(kernel, config)
                assert columns.watts[cell_index] == m.average_watts
                assert columns.quality[cell_index] == faultlib.encode_quality(
                    m.quality
                )
                cell_index += 1
                cell = (
                    f"{m.requested_config.core_mhz:.0f}-"
                    f"{m.requested_config.memory_mhz:.0f}"
                )
                # Every attempt before the successful one must have been
                # a seeded read failure; the successful one a clean read.
                for attempt in range(m.retries):
                    assert plan.nvml_read_fails(name, kernel.name, cell, attempt)
                assert not plan.nvml_read_fails(
                    name, kernel.name, cell, m.retries
                )
                read_faults += m.retries
                retries += m.retries
                success = m.retries
                if plan.spurious_throttle(name, kernel.name, cell, success):
                    applied = twin.run(kernel, m.requested_config).applied_config
                    if (
                        closest_lower_level(
                            applied.core_mhz, any_spec.core_frequencies_mhz
                        )
                        is not None
                    ):
                        throttles += 1
                mask = plan.dropout_mask(
                    name, kernel.name, cell, success, repeats, m.sample_count
                )
                if mask is not None:
                    dropped += int(mask.sum())

        assert recorder.counter("faults.nvml_read") == read_faults
        assert recorder.counter("nvml.retries") == retries
        assert recorder.counter("throttle.injected") == throttles
        assert recorder.counter("samples.dropped") == dropped
        assert recorder.counter("faults.injected") == read_faults + throttles
        assert read_faults > 0 and dropped > 0  # the stream demonstrably fired

    def test_profile_replay_matches_cupti_counters(self, lab):
        """The event-collection retry loop against the replayed plan."""
        spec = lab.spec("Tesla K40c")
        session = _traced_chaos_session(spec)
        plan = session.fault_plan
        recorder = session.recorder
        kernels = lab.suite[:20]
        for kernel in kernels:
            session.collect_events(kernel)

        expected_faults = 0
        for kernel in kernels:
            attempt = 0
            while plan.cupti_read_fails(spec.name, kernel.name, attempt):
                expected_faults += 1
                attempt += 1
        assert recorder.counter("faults.cupti_read") == expected_faults
        assert recorder.counter("cupti.retries") == expected_faults
        assert recorder.counter("cupti.collections") == len(kernels)


class TestChaosReport:
    def test_clean_campaign_reports_all_clean(self, lab):
        spec = lab.spec("Tesla K40c")
        session = ProfilingSession(SimulatedGPU(spec))
        dataset, report = collect_campaign(session, lab.suite[:6])
        assert report.complete
        assert report.flagged_rows == 0
        assert report.read_faults == 0
        assert report.backoff_seconds == 0.0
        assert "clean" in report.summary()

    def test_summary_mentions_skips(self, lab):
        spec = lab.spec("Tesla K40c")
        # Event collection always fails -> some kernels must be skipped.
        plan = FaultPlan(cupti_read_rate=0.9, seed=5)
        session = ProfilingSession(SimulatedGPU(spec, fault_plan=plan))
        dataset, report = collect_campaign(session, lab.suite[:12])
        assert report.skipped_kernels  # 0.9^4 ~ 66 % per kernel
        assert not report.complete
        assert "skipped kernels" in report.summary()
        surviving = set(dataset.kernel_names())
        assert surviving.isdisjoint(report.skipped_kernels)
