"""Equivalence of the columnar measurement campaign with the scalar walk.

The campaign (``measure_grid_columns`` / ``collect_campaign`` / the
vectorized voltage step) is a pure optimization of measuring cell by cell:
every observable it produces must match the scalar oracle
(:mod:`tests.oracles`) — bitwise for the measurement layer, to well below
1e-9 for the estimator, whose vectorized reductions reassociate
floating-point sums.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import collect_campaign, collect_training_dataset
from repro.core.estimation import ModelEstimator
from repro.core.regression import (
    minimize_voltage_1d,
    minimize_voltage_1d_stats,
)
from repro.driver import faults as faultlib
from repro.driver.faults import FaultPlan
from repro.driver.session import ProfilingSession
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import ALL_GPUS
from repro.microbench import build_suite
from repro.telemetry import TraceRecorder
from tests.oracles import scalar_campaign

SPEC_IDS = [spec.name for spec in ALL_GPUS]


def _sample_configs(spec, count=6):
    """Up to ``count`` configurations spread across the device grid.

    Always includes the reference plus one neighbor along each frequency
    axis, so the estimator's F1/F2/F3 bootstrap has enough observations.
    """
    configs = spec.all_configurations()
    reference = spec.reference
    chosen = [reference]
    core_neighbors = [
        c
        for c in configs
        if c.memory_mhz == reference.memory_mhz and c != reference
    ]
    if core_neighbors:
        # Mirror the estimator's F2 pick (core closest to 85 % of F1).
        chosen.append(
            min(
                core_neighbors,
                key=lambda c: abs(c.core_mhz - 0.85 * reference.core_mhz),
            )
        )
        remaining = [c for c in core_neighbors if c not in chosen]
        if remaining:
            chosen.append(
                min(
                    remaining,
                    key=lambda c: abs(c.core_mhz - reference.core_mhz),
                )
            )
    mem_neighbors = [
        c
        for c in configs
        if c.core_mhz == reference.core_mhz and c != reference
    ]
    if mem_neighbors:
        chosen.append(
            min(
                mem_neighbors,
                key=lambda c: abs(c.memory_mhz - reference.memory_mhz),
            )
        )
    stride = max(1, len(configs) // count)
    for config in configs[::stride]:
        if config not in chosen and len(chosen) < count:
            chosen.append(config)
    return chosen


@pytest.mark.parametrize("spec", ALL_GPUS, ids=SPEC_IDS)
def test_grid_measurements_bitwise_identical_to_scalar(spec):
    """5 kernels x 6 configs: every column entry matches the scalar
    measurement of its cell exactly."""
    kernels = build_suite()[:5]
    configs = _sample_configs(spec, count=6)
    session = ProfilingSession(SimulatedGPU(spec))

    scalar = {
        (kernel.name, config): session.measure_power(kernel, config)
        for kernel in kernels
        for config in configs
    }
    columns = session.measure_grid_columns(kernels, configs)

    assert columns.kernel_names == tuple(kernel.name for kernel in kernels)
    assert len(columns) == len(kernels) * len(configs)
    cell = 0
    for kernel in kernels:
        for config in configs:
            expected = scalar[(kernel.name, config)]
            # Exact float equality: the columns must carry the same bits.
            assert columns.watts[cell] == expected.average_watts
            assert columns.applied_core_mhz[cell] == (
                expected.applied_config.core_mhz
            )
            assert columns.applied_mem_mhz[cell] == (
                expected.applied_config.memory_mhz
            )
            assert columns.quality[cell] == faultlib.encode_quality(
                expected.quality
            )
            cell += 1


@pytest.mark.parametrize("spec", ALL_GPUS, ids=SPEC_IDS)
def test_grid_dataset_rows_identical_to_scalar(spec):
    kernels = build_suite()[:5]
    configs = _sample_configs(spec, count=6)
    fast = collect_training_dataset(
        ProfilingSession(SimulatedGPU(spec)), kernels, configs
    )
    scalar, _ = scalar_campaign(
        ProfilingSession(SimulatedGPU(spec)), kernels, configs
    )
    assert fast.rows == scalar.rows


@pytest.mark.parametrize("spec", ALL_GPUS, ids=SPEC_IDS)
def test_vectorized_estimator_matches_scalar(spec, lab):
    """Voltages, parameters and rmse_history agree to <= 1e-9.

    Runs on the full campaign dataset (the acceptance setting): the
    sub-sampled grids used elsewhere in this file converge differently
    enough that iteration dynamics would amplify ulp-level differences.
    """
    dataset = lab.dataset(spec.name)

    model_v, report_v = ModelEstimator(dataset, vectorized=True).estimate()
    model_s, report_s = ModelEstimator(dataset, vectorized=False).estimate()

    assert report_v.iterations == report_s.iterations
    assert len(report_v.rmse_history) == len(report_s.rmse_history)
    assert max(
        abs(a - b)
        for a, b in zip(report_v.rmse_history, report_s.rmse_history)
    ) <= 1e-9
    vector_v = model_v.parameters.as_vector()
    vector_s = model_s.parameters.as_vector()
    # 1e-9 relative: the bounded least-squares step amplifies ~1e-15
    # voltage differences into absolute coefficient differences of the
    # same relative order.
    assert np.max(
        np.abs(vector_v - vector_s) / np.maximum(1.0, np.abs(vector_s))
    ) <= 1e-9
    for config in model_v.known_configurations():
        a = model_v.voltage_at(config)
        b = model_s.voltage_at(config)
        assert abs(a.v_core - b.v_core) <= 1e-9
        assert abs(a.v_mem - b.v_mem) <= 1e-9


def _logical_counters(recorder: TraceRecorder) -> dict:
    """Counter totals minus the ``run.*`` cache series.

    The run cache is the one deliberately path-dependent observable: the
    columnar campaign executes whole rows through ``run_grid_columns``,
    which bypasses the per-cell run cache the scalar walk fills, so the
    hit/miss split differs even though every *logical* event — faults,
    retries, rows, cells, samples — is identical. Everything else must
    match exactly.
    """
    return {
        name: value
        for name, value in recorder.counters().items()
        if not name.startswith("run.")
    }


def _traced_campaigns(spec, kernels, configs, plan=None):
    """(columnar, scalar-oracle) recorders of the same traced campaign."""
    recorders = []
    for campaign in (collect_campaign, scalar_campaign):
        recorder = TraceRecorder()
        session = ProfilingSession(
            SimulatedGPU(spec, fault_plan=plan, recorder=recorder)
        )
        campaign(session, kernels, configs)
        recorders.append(recorder)
    return recorders


@pytest.mark.parametrize("spec", ALL_GPUS, ids=SPEC_IDS)
def test_grid_and_scalar_campaigns_emit_identical_counters(spec):
    """Fault-free campaigns: same logical telemetry stream on both paths."""
    columnar, scalar = _traced_campaigns(
        spec, build_suite()[:5], _sample_configs(spec, count=6)
    )
    assert _logical_counters(columnar) == _logical_counters(scalar)
    # The span trees agree shape-for-shape as well: cells are traced per
    # logical measurement, not per driver call.
    assert columnar.span_tree() == scalar.span_tree()


@pytest.mark.parametrize("spec", ALL_GPUS, ids=SPEC_IDS)
def test_grid_and_scalar_campaigns_emit_identical_counters_under_faults(spec):
    """Under a seeded fault plan both paths observe the same fault stream,
    so retries, injected faults and degraded rows count identically.
    Clock-set faults stay off — the columnar campaign performs no
    clock-set driver calls, making that class inherently path dependent."""
    plan = FaultPlan(
        seed=20180224,
        nvml_read_rate=0.05,
        cupti_read_rate=0.05,
        sample_dropout_rate=0.3,
        thermal_throttle_rate=0.15,
    )
    columnar, scalar = _traced_campaigns(
        spec, build_suite()[:6], spec.all_configurations()[:8], plan
    )
    assert _logical_counters(columnar) == _logical_counters(scalar)
    assert _logical_counters(columnar).get("faults.injected", 0) > 0
    assert columnar.span_tree() == scalar.span_tree()


def test_estimator_identical_on_grid_and_scalar_datasets():
    """Row-identical datasets produce bitwise-identical reports."""
    spec = ALL_GPUS[1]  # GTX Titan X
    kernels = build_suite()[:8]
    configs = _sample_configs(spec, count=6)
    fast = collect_training_dataset(
        ProfilingSession(SimulatedGPU(spec)), kernels, configs
    )
    scalar, _ = scalar_campaign(
        ProfilingSession(SimulatedGPU(spec)), kernels, configs
    )
    _, report_fast = ModelEstimator(fast).estimate()
    _, report_scalar = ModelEstimator(scalar).estimate()
    assert report_fast.rmse_history == report_scalar.rmse_history


# ----------------------------------------------------------------------
# Closed-form cubic minimizer vs brute force
# ----------------------------------------------------------------------
BOUNDS = (0.6, 1.6)
BRUTE_GRID = np.linspace(BOUNDS[0], BOUNDS[1], 20001)


def _objective(beta, quadratic, target, v):
    """f(V) = sum_k (beta V + s_k V^2 - t_k)^2, for scalar or array V."""
    v = np.asarray(v, dtype=float)[..., None]
    residual = beta * v + quadratic * v**2 - target
    return np.sum(residual**2, axis=-1)


def _random_cases(count):
    rng = np.random.default_rng(20180224)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        beta = float(rng.uniform(-60.0, 60.0))
        if rng.random() < 0.1:
            beta = 0.0  # exercise the degenerate / lower-order branches
        quadratic = rng.uniform(0.0, 0.2, size=n) * rng.uniform(100, 1200)
        target = rng.uniform(-50.0, 300.0, size=n)
        yield beta, quadratic, target


def test_minimize_voltage_1d_matches_brute_force():
    """>= 200 random problems: closed form within 1e-6 of a 20k-point scan."""
    for beta, quadratic, target in _random_cases(250):
        found = minimize_voltage_1d(beta, quadratic, target, BOUNDS)
        assert BOUNDS[0] <= found <= BOUNDS[1]
        brute = float(np.min(_objective(beta, quadratic, target, BRUTE_GRID)))
        value = float(_objective(beta, quadratic, target, found))
        scale = max(1.0, abs(brute))
        assert value <= brute + 1e-6 * scale


def _adversarial_cases():
    """Hand-crafted pathologies for the closed-form stationary cubic.

    The minimizer solves ``2 s2 V^3 + 3 beta s1 V^2 + (n beta^2 - 2 srs) V
    - beta sr = 0``; these cases drive that cubic toward its degenerate
    corners: vanishing leading coefficient, repeated roots, zero-derivative
    plateaus, and stationary points parked exactly on the bounds.
    """
    cases = []
    # Near-degenerate quadratic term: s -> 0 collapses the cubic toward a
    # linear equation; the solver must not blow up on the tiny leading
    # coefficient (a classic np.roots ill-conditioning trap).
    for s in (1e-14, 1e-10, 1e-7, 1e-4):
        cases.append((37.5, np.asarray([s]), np.asarray([41.0])))
        cases.append((-12.0, np.asarray([s]), np.asarray([-8.0])))
    # Exactly-zero quadratic term with nonzero beta: pure linear model.
    cases.append((25.0, np.asarray([0.0]), np.asarray([20.0])))
    # Both terms zero: the objective is constant in V; any in-bounds
    # answer is optimal and the solver must still return one.
    cases.append((0.0, np.asarray([0.0]), np.asarray([15.0])))
    # Repeated root of the residual: for n=1 the single-term objective
    # (beta V + s V^2 - t)^2 has a double root of its gradient wherever
    # beta V + s V^2 = t has a repeated solution, i.e. t = -beta^2/(4 s).
    for beta, s in ((30.0, 50.0), (-20.0, 80.0), (4.0, 400.0)):
        cases.append(
            (beta, np.asarray([s]), np.asarray([-(beta**2) / (4.0 * s)]))
        )
    # Stationary point parked exactly on each bound: V* solves
    # beta V + s V^2 = t, so pick t accordingly.
    for v_star in BOUNDS:
        beta, s = 10.0, 120.0
        cases.append(
            (beta, np.asarray([s]), np.asarray([beta * v_star + s * v_star**2]))
        )
    # Opposed targets with mismatched scales: the optimum balances one
    # huge and one tiny residual (exercises candidate comparison).
    cases.append(
        (5.0, np.asarray([300.0, 0.001]), np.asarray([250.0, -40.0]))
    )
    # Large-coefficient stress: magnitudes near the top of the physical
    # range amplify any root-polishing error.
    cases.append(
        (
            -60.0,
            np.asarray([1200.0, 950.0, 1100.0]),
            np.asarray([300.0, -50.0, 120.0]),
        )
    )
    return cases


def test_minimize_voltage_1d_adversarial_cases_match_brute_force():
    """Degenerate/repeated-root pathologies: closed form vs 20k-point scan."""
    for beta, quadratic, target in _adversarial_cases():
        found = minimize_voltage_1d(beta, quadratic, target, BOUNDS)
        assert BOUNDS[0] <= found <= BOUNDS[1]
        assert np.isfinite(found)
        brute = float(np.min(_objective(beta, quadratic, target, BRUTE_GRID)))
        value = float(_objective(beta, quadratic, target, found))
        scale = max(1.0, abs(brute))
        assert value <= brute + 1e-6 * scale


def test_minimize_voltage_1d_stats_adversarial_cases_lane_by_lane():
    """The batched minimizer survives the same pathologies, per lane."""
    for beta, quadratic, target in _adversarial_cases():
        lane = minimize_voltage_1d_stats(
            beta,
            np.asarray([float(quadratic.size)]),
            np.asarray([np.sum(quadratic)]),
            np.asarray([np.sum(quadratic**2)]),
            np.asarray([np.sum(target)]),
            np.asarray([np.sum(target * quadratic)]),
            BOUNDS,
        )
        found = float(lane[0])
        assert BOUNDS[0] <= found <= BOUNDS[1]
        assert np.isfinite(found)
        brute = float(np.min(_objective(beta, quadratic, target, BRUTE_GRID)))
        value = float(_objective(beta, quadratic, target, found))
        scale = max(1.0, abs(brute))
        assert value <= brute + 1e-6 * scale
        scalar = minimize_voltage_1d(beta, quadratic, target, BOUNDS)
        assert abs(found - scalar) <= 1e-9 or (
            abs(value - float(_objective(beta, quadratic, target, scalar)))
            <= 1e-9 * scale
        )


def test_minimize_voltage_1d_stats_matches_scalar_and_brute_force():
    """The batched minimizer agrees lane-by-lane with the scalar one."""
    cases = list(_random_cases(250))
    counts = np.asarray([case[1].size for case in cases], dtype=float)
    s1 = np.asarray([np.sum(case[1]) for case in cases])
    s2 = np.asarray([np.sum(case[1] ** 2) for case in cases])
    sr = np.asarray([np.sum(case[2]) for case in cases])
    srs = np.asarray([np.sum(case[2] * case[1]) for case in cases])

    # The batched API shares one beta across lanes, so group by beta.
    for index, (beta, quadratic, target) in enumerate(cases):
        lane = minimize_voltage_1d_stats(
            beta,
            counts[index : index + 1],
            s1[index : index + 1],
            s2[index : index + 1],
            sr[index : index + 1],
            srs[index : index + 1],
            BOUNDS,
        )
        found = float(lane[0])
        brute = float(np.min(_objective(beta, quadratic, target, BRUTE_GRID)))
        value = float(_objective(beta, quadratic, target, found))
        scale = max(1.0, abs(brute))
        assert value <= brute + 1e-6 * scale
        scalar = minimize_voltage_1d(beta, quadratic, target, BOUNDS)
        assert abs(found - scalar) <= 1e-9 or (
            abs(value - float(_objective(beta, quadratic, target, scalar)))
            <= 1e-9 * scale
        )
