"""``calibrate`` and ``calibrate-chaos``: the paper's per-GPU pipeline.

One pass calibrates the three paper devices from nothing, the way
``repro fit --perf`` followed by ``repro validate`` does:
``collect_campaign`` over the 83-kernel suite and the full V-F grid,
``ModelEstimator.estimate``, ``PerformanceEstimator.estimate`` over the
suite plus the Table-III workloads, then ``validate_model`` on the 26
Table-III workloads. Every pass builds fresh devices, so no run cache
or campaign state survives from an earlier pass.

``calibrate-chaos`` runs the same flow under the seeded 5 % transient
fault plan (the ``fit --chaos`` path) with the campaign sharded over two
worker processes, and validates against a fault-free session of the same
device. The worker pool is shut down at the end of every pass, so each
pass starts its workers cold too. The host-speed probe pauses while the
sharded campaign runs (see hostspeed.py).

The program's ``TraceRecorder`` is never attached here: with telemetry on,
the sharded campaign takes a different executor, so a traced run would
measure a different program. Counts come from the campaign and estimator
reports; times come from the benchmark's own spans.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from perfbench.common import DEVICES, PassResult
from perfbench.hostspeed import quiet
from perfbench.tracing import Tracer
from repro.analysis.validation import validate_model
from repro.core.dataset import collect_campaign
from repro.core.estimation import ModelEstimator
from repro.core.perf_estimation import PerformanceEstimator
from repro.driver.faults import FaultPlan
from repro.driver.session import ProfilingSession
from repro.errors import EstimationError, PersistentDriverError
from repro.experiments.fewshot import TABLE3_BANDS_PERCENT
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import gpu_spec_by_name
from repro.microbench import build_suite
from repro.parallel.pool import shutdown_shared_pool
from repro.serving.registry import slugify
from repro.workloads import all_workloads

#: Transient fault rate of the chaos workload (``repro fit --chaos 0.05``).
CHAOS_RATE = 0.05
#: Worker processes of the sharded chaos campaign.
CHAOS_WORKERS = 2

#: Headline names of end-to-end metrics, and deterministic outputs shown
#: beside them, with units.
HEADLINE_ALIASES = {"calibrate_s": "pass_s"}
HEADLINE_OUTPUTS = {"mae_pct": "%", "calibrated_devices": "count"}


@dataclass
class CalibrateState:
    suite: tuple
    perf_kernels: tuple
    validation_workloads: tuple
    specs: tuple
    fault_plan: Optional[object]


def setup(seed: int, chaos: bool) -> CalibrateState:
    suite = tuple(build_suite())
    workloads = tuple(all_workloads())
    names = {kernel.name for kernel in suite}
    return CalibrateState(
        suite=suite,
        perf_kernels=suite
        + tuple(kernel for kernel in workloads if kernel.name not in names),
        validation_workloads=workloads,
        specs=tuple(gpu_spec_by_name(device) for device in DEVICES),
        fault_plan=FaultPlan.transient(CHAOS_RATE, seed=seed) if chaos else None,
    )


@dataclass
class DeviceOutcome:
    spec: object
    campaign: object
    estimate: Optional[object] = None
    perf: Optional[object] = None
    validation: Optional[object] = None
    #: The estimator's typed error when the device could not be fitted.
    error: Optional[str] = None


def _calibrate(state: CalibrateState, spec, tracer: Tracer) -> DeviceOutcome:
    chaos = state.fault_plan is not None
    session = ProfilingSession(SimulatedGPU(spec, fault_plan=state.fault_plan))
    with tracer.span("campaign.collect"), quiet() if chaos else nullcontext():
        dataset, campaign = collect_campaign(
            session, state.suite, workers=CHAOS_WORKERS if chaos else 0
        )
    outcome = DeviceOutcome(spec, campaign)
    try:
        with tracer.span("estimate.fit"):
            model, outcome.estimate = ModelEstimator(dataset).estimate()
        with tracer.span("perf_fit.fit"):
            _, outcome.perf = PerformanceEstimator(
                dataset, session, state.perf_kernels
            ).estimate()
    except (EstimationError, PersistentDriverError) as error:
        # A fault plan can leave a campaign the estimator cannot fit
        # (e.g. Tesla K40c under seeds 53 and 57), or fail one of the
        # runtime fit's event collections past its retries (Tesla K40c
        # under seed 106): a failed operation, not a wrong answer.
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    if chaos:
        session = ProfilingSession(SimulatedGPU(spec))
    with tracer.span("validate"):
        outcome.validation = validate_model(
            model, session, state.validation_workloads
        )
    return outcome


def run_pass(state: CalibrateState, tracer: Tracer) -> PassResult:
    outcomes = []
    latencies_ms = []
    start = perf_counter()
    with tracer.span("pass"):
        for spec in state.specs:
            device_start = perf_counter()
            with tracer.span("calibrate.device"):
                outcomes.append(_calibrate(state, spec, tracer))
            latencies_ms.append((perf_counter() - device_start) * 1e3)
        if state.fault_plan is not None:
            with tracer.span("parallel.pool_shutdown"):
                shutdown_shared_pool()
    wall = perf_counter() - start
    return _summarize(state, outcomes, start, wall, latencies_ms, tracer)


def _summarize(state, outcomes, start, wall, latencies_ms, tracer) -> PassResult:
    fixed = {}
    problems = []
    cells = failed = clean = rows = retried = skipped = 0
    iterations = probes = 0
    maes = []
    for outcome in outcomes:
        spec, campaign = outcome.spec, outcome.campaign
        name = slugify(spec.name)
        requested = campaign.config_count * len(state.suite)
        lost = len(campaign.skipped_cells) + campaign.config_count * len(
            campaign.skipped_kernels
        )
        fixed[f"{name}.cells"] = requested
        fixed[f"{name}.rows"] = campaign.row_count
        fixed[f"{name}.clean_rows"] = campaign.clean_rows
        fixed[f"{name}.retried_rows"] = campaign.retried_rows
        fixed[f"{name}.skipped_cells"] = len(campaign.skipped_cells)
        fixed[f"{name}.skipped_kernels"] = list(campaign.skipped_kernels)
        cells += requested
        rows += campaign.row_count
        clean += campaign.clean_rows
        retried += campaign.retried_rows
        skipped += lost
        if outcome.error is not None:
            # No model: every cell of the device is lost.
            fixed[f"{name}.error"] = outcome.error
            failed += requested
            continue
        failed += lost
        mae = outcome.validation.mean_absolute_error_percent
        fixed[f"{name}.iterations"] = outcome.estimate.iterations
        fixed[f"{name}.probes"] = outcome.perf.probes
        fixed[f"{name}.mae_pct"] = mae
        band = TABLE3_BANDS_PERCENT[spec.name]
        if not mae <= band:
            problems.append(
                f"{spec.name}: Table-III MAE {mae:.3f} % is outside its "
                f"{band:.2f} % band"
            )
        if not outcome.estimate.converged:
            problems.append(f"{spec.name}: estimator did not converge")
        iterations += outcome.estimate.iterations
        probes += outcome.perf.probes
        maes.append(mae)
    mae_mean = sum(maes) / len(maes)
    fixed["mae_pct"] = mae_mean
    fixed["calibrated_devices"] = len(maes)
    result = PassResult(
        started=start,
        wall_s=wall,
        ops=cells,
        latencies_ms=latencies_ms,
        attempted=cells,
        failed=failed,
        fixed=fixed,
        problems=problems,
    )
    if tracer.enabled:
        layers = tracer.layers()

        def seconds(name: str) -> float:
            return layers.get(name, {}).get("total_s", 0.0)

        collect_s = seconds("campaign.collect")
        result.layers.update(
            {
                "campaign.collect_s": collect_s,
                "campaign.us_per_cell": collect_s * 1e6 / cells,
                "campaign.cells": cells,
                "campaign.clean_ratio": clean / rows,
                "campaign.retried_rows": retried,
                "campaign.skipped_cells": skipped,
                "estimate.fit_s": seconds("estimate.fit"),
                "estimate.iterations": iterations,
                "perf_fit.fit_s": seconds("perf_fit.fit"),
                "perf_fit.probes": probes,
                "validate.s": seconds("validate"),
                "validate.mae_pct": mae_mean,
            }
        )
        for outcome in outcomes:
            if outcome.validation is not None:
                result.layers[
                    f"validate.mae_pct.{slugify(outcome.spec.name)}"
                ] = outcome.validation.mean_absolute_error_percent
    return result
