"""Unit tests for the NVML-like driver layer (:mod:`repro.driver.nvml`)."""

from __future__ import annotations

import pytest

from repro.config import NOISELESS_SETTINGS
from repro.driver.nvml import NVMLDevice
from repro.errors import FrequencyError, NVMLError
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import FrequencyConfig, GTX_TITAN_X
from repro.kernels.kernel import idle_kernel
from repro.workloads import workload_by_name


@pytest.fixture()
def nvml() -> NVMLDevice:
    return NVMLDevice(SimulatedGPU(GTX_TITAN_X))


@pytest.fixture()
def quiet_nvml() -> NVMLDevice:
    return NVMLDevice(SimulatedGPU(GTX_TITAN_X, settings=NOISELESS_SETTINGS))


class TestDeviceQueries:
    def test_name(self, nvml):
        assert nvml.name == "GTX Titan X"

    def test_power_limit(self, nvml):
        assert nvml.power_limit_watts == 250.0

    def test_refresh_period(self, nvml):
        # Sec. V-A: ~100 ms on the GTX Titan X.
        assert nvml.refresh_seconds == pytest.approx(0.1)

    def test_supported_memory_clocks_descending(self, nvml):
        clocks = nvml.supported_memory_clocks()
        assert clocks == (4005, 3505, 3300, 810)

    def test_supported_graphics_clocks(self, nvml):
        clocks = nvml.supported_graphics_clocks(3505)
        assert len(clocks) == 16
        assert clocks[0] == 1164


class TestClockControl:
    def test_defaults(self, nvml):
        assert nvml.application_clocks == GTX_TITAN_X.reference

    def test_set_application_clocks(self, nvml):
        nvml.set_application_clocks(785, 810)
        assert nvml.application_clocks == FrequencyConfig(785, 810)

    def test_set_rejects_unknown_level(self, nvml):
        with pytest.raises(FrequencyError):
            nvml.set_application_clocks(1000, 3505)

    def test_reset(self, nvml):
        nvml.set_application_clocks(785, 810)
        nvml.reset_application_clocks()
        assert nvml.application_clocks == GTX_TITAN_X.reference

    def test_closed_handle_rejects_operations(self, nvml):
        nvml.close()
        with pytest.raises(NVMLError):
            nvml.set_application_clocks(975, 3505)
        with pytest.raises(NVMLError):
            nvml.measure_power(idle_kernel())


class TestHandleLifecycle:
    def test_close_is_idempotent(self, nvml):
        nvml.close()
        nvml.close()  # double-close must be a silent no-op
        assert nvml.closed

    def test_closed_property_tracks_state(self, nvml):
        assert not nvml.closed
        nvml.close()
        assert nvml.closed

    def test_every_public_method_rejects_use_after_close(self, nvml):
        nvml.close()
        kernel = idle_kernel()
        operations = [
            lambda: nvml.supported_memory_clocks(),
            lambda: nvml.supported_graphics_clocks(3505),
            lambda: nvml.set_application_clocks(975, 3505),
            lambda: nvml.reset_application_clocks(),
            lambda: nvml.measure_power(kernel),
            lambda: nvml.measure_median_power(kernel),
            lambda: nvml.measure_power_grid_columns([kernel]),
        ]
        for operation in operations:
            with pytest.raises(NVMLError) as excinfo:
                operation()
            # The message names the device and says what happened.
            assert "closed" in str(excinfo.value)
            assert "GTX Titan X" in str(excinfo.value)

    def test_use_after_close_raises_before_argument_validation(self, nvml):
        """A closed handle reports the close, not a frequency error."""
        nvml.close()
        with pytest.raises(NVMLError) as excinfo:
            nvml.set_application_clocks(123456, 3505)
        assert "closed" in str(excinfo.value)


class TestPowerMeasurement:
    def test_noiseless_measurement_matches_truth(self, quiet_nvml):
        kernel = workload_by_name("gemm")
        truth = SimulatedGPU(
            GTX_TITAN_X, settings=NOISELESS_SETTINGS
        ).run(kernel).true_power_watts
        measurement = quiet_nvml.measure_power(kernel)
        # Only the first-sample idle contamination separates them.
        assert measurement.average_watts == pytest.approx(truth, rel=0.02)

    def test_repetitions_reach_one_second(self, nvml):
        kernel = workload_by_name("gemm")
        measurement = nvml.measure_power(kernel)
        assert measurement.total_seconds >= 1.0

    def test_sample_count_consistent_with_refresh(self, nvml):
        measurement = nvml.measure_power(workload_by_name("gemm"))
        expected = int(measurement.total_seconds / nvml.refresh_seconds)
        assert measurement.sample_count == max(1, expected)

    def test_median_is_stable_across_calls(self, nvml):
        kernel = workload_by_name("gemm")
        a = nvml.measure_median_power(kernel)
        b = nvml.measure_median_power(kernel)
        assert a.average_watts == b.average_watts

    def test_median_rejects_nonpositive_repeats(self, nvml):
        with pytest.raises(NVMLError):
            nvml.measure_median_power(idle_kernel(), repeats=0)

    def test_measurement_reports_throttled_config(self, nvml):
        from repro.workloads.cuda_sdk import matrixmul_cublas

        nvml.set_application_clocks(1164, 3505)
        measurement = nvml.measure_power(matrixmul_cublas(4096, GTX_TITAN_X))
        assert measurement.throttled
        assert measurement.applied_config.core_mhz == 1126

    def test_noise_makes_single_measurements_vary(self, nvml):
        kernel = workload_by_name("gemm")
        a = nvml.measure_power(kernel, measurement_index=0)
        b = nvml.measure_power(kernel, measurement_index=1)
        assert a.average_watts != b.average_watts

    def test_short_kernel_contaminated_by_idle(self, quiet_nvml):
        """A single-run measurement of a short kernel blends in idle power
        (the motivation for the repetition rule)."""
        kernel = workload_by_name("gemm")
        single = quiet_nvml.measure_power(kernel, repetitions=1)
        repeated = quiet_nvml.measure_power(kernel)
        assert single.average_watts < repeated.average_watts
