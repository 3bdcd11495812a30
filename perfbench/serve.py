"""``serve``: governor callers querying a Titan Xp model over asyncio.

Set-up fits and publishes a Titan Xp power model and fits its runtime
model over the Table-III workloads. Every pass starts a fresh
``PredictionServer``, so its cache starts cold and warms during the
pass. Load is a closed loop of 32 callers (asyncio tasks): each waits for
its answer before sending the next request and yields once in between,
as a socket read would. 95 % of requests are ``predict`` power queries
drawn the way ``serving.loadgen.build_stream`` draws them (Table-III
vectors, 25 % jittered into fresh cache keys); 5 % are
``best_energy_configuration`` queries, which are not cached and score
the whole V-F grid on the event loop.

Checks: sampled power answers are bitwise equal to
``PredictionEngine.predict_batch`` on the same quantized rows, and
sampled best answers are the argmin of predicted energy over
``score_grid``.
"""

from __future__ import annotations

import asyncio
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Tuple

import numpy as np

from perfbench.common import PassResult, percentile
from perfbench.tracing import Tracer, step_timing_factory
from repro.core.dataset import collect_training_dataset
from repro.core.estimation import ModelEstimator
from repro.core.metrics import MetricCalculator
from repro.core.perf_estimation import PerformanceEstimator
from repro.driver.session import ProfilingSession
from repro.errors import RequestTimeoutError, ServerOverloadedError
from repro.hardware.components import ALL_COMPONENTS
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import gpu_spec_by_name
from repro.microbench import build_suite
from repro.serving.engine import utilization_row, vector_from_mapping
from repro.serving.loadgen import LoadTestPlan, build_stream
from repro.serving.registry import ModelRegistry
from repro.serving.server import PredictionServer, ServerConfig
from repro.telemetry import NULL_RECORDER, TraceRecorder
from repro.workloads import all_workloads

DEVICE = "Titan Xp"
MODEL_NAME = "titan-xp"
#: Requests per pass.
REQUESTS = 20_000
#: Simulated governor callers in the closed loop.
CALLERS = 32
#: Share of requests that ask for the energy-optimal configuration.
BEST_FRACTION = 0.05
#: Every SAMPLE_EVERY-th power answer and every BEST_SAMPLE_EVERY-th best
#: answer is recomputed after the pass and compared.
SAMPLE_EVERY = 50
BEST_SAMPLE_EVERY = 10

HEADLINE_ALIASES = {
    "serve_rps": "ops_per_s",
    "serve_p50_ms": "op_p50_ms",
    "serve_p99_ms": "op_p99_ms",
}
HEADLINE_OUTPUTS = {}


@dataclass
class ServeState:
    registry_root: Path
    registry: object
    performance: object
    #: Per request: (component-name -> utilization, None) for a power
    #: query, as a governor sends it, or (None, kernel index) for a best one.
    requests: List[Tuple[object, object]]
    best_kernels: List[Tuple[str, object]]


def setup(seed: int, workdir: Path) -> ServeState:
    spec = gpu_spec_by_name(DEVICE)
    session = ProfilingSession(SimulatedGPU(spec))
    dataset = collect_training_dataset(session, build_suite())
    model, _ = ModelEstimator(dataset).estimate()
    workloads = all_workloads()
    performance, _ = PerformanceEstimator(dataset, session, workloads).estimate()

    root = workdir / "registry"
    if root.exists():
        shutil.rmtree(root)
    registry = ModelRegistry(root)
    registry.publish(model, name=MODEL_NAME)

    rows, _ = build_stream(DEVICE, LoadTestPlan(requests=REQUESTS, seed=seed))
    names = [component.value for component in ALL_COMPONENTS]
    calculator = MetricCalculator(spec)
    best_kernels = [
        (kernel.name, calculator.utilizations(session.collect_events(kernel)))
        for kernel in workloads
    ]
    rng = np.random.default_rng([seed, 1])
    is_best = rng.random(REQUESTS) < BEST_FRACTION
    picks = rng.integers(0, len(best_kernels), size=REQUESTS)
    requests = [
        (None, int(picks[i])) if is_best[i] else (dict(zip(names, rows[i])), None)
        for i in range(REQUESTS)
    ]
    return ServeState(root, registry, performance, requests, best_kernels)


def close(state: ServeState) -> None:
    shutil.rmtree(state.registry_root, ignore_errors=True)


def _step_name(coro) -> str:
    if coro.__qualname__.endswith("._worker"):
        return "serving.worker_step"
    if coro.__qualname__.endswith(".caller"):
        return "serve.caller_step"
    return "serve.main_step"


def run_pass(state: ServeState, tracer: Tracer) -> PassResult:
    recorder = TraceRecorder() if tracer.enabled else NULL_RECORDER
    server = PredictionServer(
        state.registry, MODEL_NAME, ServerConfig(), recorder=recorder
    )
    requests = state.requests
    performance = state.performance
    best_kernels = state.best_kernels
    #: (request index, latency ms, kind, answer) per answered request.
    answers: List[tuple] = []
    failures = [0]
    cursor = [0]

    async def main() -> None:
        await server.start()
        engine = server.engine
        engine.predict_batch = tracer.wrap(
            "serving.engine.predict_batch", engine.predict_batch
        )
        best = tracer.wrap("serving.best", engine.best_energy_configuration)

        async def caller() -> None:
            while cursor[0] < len(requests):
                index = cursor[0]
                cursor[0] += 1
                row, pick = requests[index]
                start = perf_counter()
                try:
                    if row is None:
                        name, utilizations = best_kernels[pick]
                        answer = best(utilizations, performance, name)
                        kind = "best"
                    else:
                        answer = await server.predict(row)
                        kind = "hit" if answer.cached else "miss"
                except (ServerOverloadedError, RequestTimeoutError):
                    failures[0] += 1
                    kind, answer = "failed", None
                end = perf_counter()
                tracer.detached("serving.request", start, end, index)
                answers.append((index, (end - start) * 1e3, kind, answer))
                await asyncio.sleep(0)

        callers = [asyncio.ensure_future(caller()) for _ in range(CALLERS)]
        try:
            await asyncio.gather(*callers)
        finally:
            await server.stop()

    loop = asyncio.new_event_loop()
    try:
        if tracer.enabled:
            loop.set_task_factory(step_timing_factory(tracer, _step_name))
        start = perf_counter()
        with tracer.span("pass"):
            loop.run_until_complete(main())
        wall = perf_counter() - start
    finally:
        loop.close()

    problems = _check(server, state, answers)
    kinds = [kind for _, _, kind, _ in answers]
    result = PassResult(
        started=start,
        wall_s=wall,
        ops=len(answers) - failures[0],
        latencies_ms=[latency for _, latency, _, _ in answers],
        attempted=len(answers),
        failed=failures[0],
        fixed={
            "requests": len(answers),
            "best_queries": kinds.count("best"),
        },
        problems=problems,
    )
    if len(answers) != len(requests):
        problems.append(f"{len(answers)} of {len(requests)} requests answered")
    if tracer.enabled:
        result.layers.update(_layers(server, recorder, tracer, answers))
    return result


def _check(server, state: ServeState, answers) -> List[str]:
    """Recompute a sample of answers outside the timed pass."""
    engine = server.engine
    cache = server.cache
    problems = []
    sampled = [a for a in answers if a[2] in ("hit", "miss")][::SAMPLE_EVERY]
    rows = np.stack(
        [
            cache.dequantize(
                cache.quantize(utilization_row(vector_from_mapping(
                    state.requests[index][0]
                )))
            )
            for index, *_ in sampled
        ]
    )
    reference = engine.config_index(engine.spec.reference)
    expected = engine.predict_batch(rows)[:, reference]
    for (index, _, _, answer), watts in zip(sampled, expected):
        if answer.watts != watts:
            problems.append(
                f"request {index}: served {answer.watts!r} W, engine "
                f"predict_batch gives {float(watts)!r} W"
            )
    best = [a for a in answers if a[2] == "best"][::BEST_SAMPLE_EVERY]
    for index, _, _, answer in best:
        name, utilizations = state.best_kernels[state.requests[index][1]]
        times = state.performance.predict_runtime_grid(name, engine.configs)
        scores = engine.score_grid(utilizations, times_seconds=times.tolist())
        argmin = int(np.argmin([score.energy_joules for score in scores]))
        if scores[argmin].config != answer.config:
            problems.append(
                f"request {index}: best configuration {answer.config} is not "
                f"the energy argmin {scores[argmin].config}"
            )
    if not sampled or not best:
        problems.append("no answers sampled for checking")
    return problems


def _layers(server, recorder, tracer: Tracer, answers) -> dict:
    layers = tracer.layers()
    stats = server.cache.stats()
    by_kind = {"hit": [], "miss": [], "best": []}
    for _, latency, kind, _ in answers:
        if kind in by_kind:
            by_kind[kind].append(latency)
    batches = recorder.counter("serving.batches")

    def layer(name: str, key: str = "total_s") -> float:
        return layers.get(name, {}).get(key, 0.0)

    return {
        "serving.cache.hit_ratio": stats.hit_rate,
        "serving.hit_ms.p50": percentile(by_kind["hit"], 50),
        "serving.miss_ms.p99": percentile(by_kind["miss"], 99),
        "serving.best_ms.p50": percentile(by_kind["best"], 50),
        "serving.batches": batches,
        "serving.batch.mean_size": (
            recorder.counter("serving.batched_predictions") / batches
        ),
        "serving.coalesced": recorder.counter("serving.coalesced"),
        "serving.rejections": recorder.counter("serving.rejections"),
        "serving.timeouts": recorder.counter("serving.timeouts"),
        "serving.engine.predict_batch_s": layer(
            "serving.engine.predict_batch"
        ),
        "serving.best_s": layer("serving.best"),
        "serving.admit_self_s": layer("serve.caller_step", "self_s"),
        "serving.batch_self_s": layer("serving.worker_step", "self_s"),
    }
