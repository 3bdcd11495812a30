"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0

Workloads: ``calibrate``, ``calibrate-chaos``, ``serve``, ``schedule``
(see BENCHMARK.json for why each exists). The run sets the workload up
several times (``setup_s`` is the median), then repeats cold passes
until ``--seconds`` have passed, checking every pass's outputs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer ones, including the tracing
overhead. The line before it is the run's record: host, cache state,
the workload's headline numbers and its deterministic outputs. The exit
code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(__file__).resolve().parent / ".work"

WORKLOADS = ("calibrate", "calibrate-chaos", "serve", "schedule")

#: A run sets up at least SETUP_REPEATS times and for at least
#: SETUP_PHASE_S; ``setup_s`` is the median. Calibration set-up takes
#: milliseconds, so it repeats several hundred times. The phase spans
#: a few of the host's fast and slow spells (see hostspeed.py): over a
#: 0.5 s phase the scale caught one spell, and ``setup_s`` of
#: ``calibrate-chaos`` split into two modes 25 % apart.
SETUP_REPEATS = 3
SETUP_PHASE_S = 2.0

#: What is cold in every pass and what stays warm from set-up.
CACHE_STATE = {
    "calibrate": "cold: fresh devices and sessions per pass, no campaign "
    "state; warm from set-up: kernel descriptors and device specs only",
    "calibrate-chaos": "cold: fresh devices per pass and a fresh 2-worker "
    "pool (shut down after each pass); warm from set-up: descriptors, "
    "specs and the fault plan",
    "serve": "cold: a fresh PredictionServer (empty cache) per pass, which "
    "warms during the pass; warm from set-up: the published artifact, "
    "the runtime model and the request stream",
    "schedule": "cold: fresh sessions and DeviceOracles per pass (score "
    "tables, frontiers, ground-truth memo); warm from set-up: the Lab's "
    "datasets and power models, the job trace and the churn plan",
}

#: BLAS threads per process. The program's matrices are small, so a
#: second BLAS thread only contends with the other process and core; one
#: thread makes the passes both faster and steadier on a 2-core host.
BLAS_THREADS = "1"
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)

#: Per-layer counts that every traced pass of a seed must reproduce.
EXACT_LAYER_COUNTS = (
    "campaign.cells",
    "estimate.iterations",
    "perf_fit.probes",
    "cluster.events",
    "cluster.node_failures",
)


def _workload(name: str):
    """(module, setup(seed), close(state) or None) of one workload."""
    if name in ("calibrate", "calibrate-chaos"):
        from perfbench import calibrate

        chaos = name == "calibrate-chaos"
        return calibrate, lambda seed: calibrate.setup(seed, chaos), None
    if name == "serve":
        from perfbench import serve

        return serve, lambda seed: serve.setup(seed, WORKDIR), serve.close
    from perfbench import schedule

    return schedule, schedule.setup, None


def _host(seed: int) -> dict:
    import numpy

    from repro.parallel.planner import usable_cpu_count

    return {
        "nproc": os.cpu_count(),
        "usable_cores": usable_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def _measure(args, module, setup, close, speed):
    """Set up, then run passes for ``args.seconds``; returns the results."""
    from perfbench.tracing import NullTracer, Tracer

    windows = []
    state = None
    phase = perf_counter()
    while len(windows) < SETUP_REPEATS or perf_counter() - phase < SETUP_PHASE_S:
        if state is not None and close is not None:
            close(state)
        start = perf_counter()
        state = setup(args.seed)
        windows.append((start, perf_counter()))
    scale = speed.scale(phase, perf_counter())
    setups = [speed.unprobed(start, end) * scale for start, end in windows]
    plain, traced = [], []
    tracer = None
    start = perf_counter()
    try:
        while True:
            plain.append(module.run_pass(state, NullTracer()))
            if args.trace:
                tracer = Tracer()
                result = module.run_pass(state, tracer)
                result.layers["trace.unattributed_s"] = tracer.layers()[
                    "pass"
                ]["self_s"]
                traced.append(result)
            if perf_counter() - start >= args.seconds:
                break
    finally:
        if close is not None:
            close(state)
    for p in plain + traced:
        end = p.started + p.wall_s
        p.seconds = speed.normalize(p.started, end)
        p.scale = speed.scale(p.started, end)
    return setups, plain, traced, tracer


def _problems(passes, traced, per_layer) -> list:
    problems = [problem for p in passes + traced for problem in p.problems]
    first = passes[0].fixed
    for index, p in enumerate(passes + traced):
        if p.fixed != first:
            changed = sorted(k for k in first if p.fixed.get(k) != first[k])
            problems.append(
                f"pass {index}: deterministic outputs differ from pass 0 "
                f"in {changed}"
            )
    for name in EXACT_LAYER_COUNTS:
        values = {p.layers[name] for p in traced if name in p.layers}
        if len(values) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
    known = {metric["name"] for metric in per_layer}
    for name in sorted({key for p in traced for key in p.layers} - known):
        problems.append(f"layer value {name} is not a per_layer metric")
    return problems


def _end_to_end(setups, passes) -> dict:
    from perfbench.common import median, peak_rss_mb, percentile

    def per_pass(q: float) -> float:
        """Median over passes of each pass's q-th latency percentile."""
        return median([percentile(p.latencies_ms, q) * p.scale for p in passes])

    return {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "pass_s": median([p.seconds for p in passes]),
        "ops_per_s": sum(p.ops for p in passes)
        / sum(p.seconds for p in passes),
        "op_p50_ms": per_pass(50),
        "op_p99_ms": per_pass(99),
    }


def _per_layer(plain, traced) -> dict:
    """Medians over traced passes; layer times are raw host seconds."""
    from perfbench.common import median

    values = {
        name: median([p.layers[name] for p in traced])
        for name in traced[0].layers
    }
    traced_wall = median([p.wall_s for p in traced])
    values["trace.wall_s"] = traced_wall
    values["trace.unattributed_pct"] = (
        100.0 * values["trace.unattributed_s"] / traced_wall
    )
    plain_s = median([p.seconds for p in plain])
    values["trace.overhead_pct"] = (
        100.0 * (median([p.seconds for p in traced]) - plain_s) / plain_s
    )
    return values


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out",
        type=Path,
        help="also write the last traced pass's spans here (JSON lines)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.common import stop_children

    # Every way out, a SIGTERM included, stops the processes the run began.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(args)
    finally:
        stop_children()


def _run(args) -> int:
    from perfbench.hostspeed import HostSpeed

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    module, setup, close = _workload(args.workload)

    WORKDIR.mkdir(exist_ok=True)
    try:
        with HostSpeed() as speed:
            setups, plain, traced, tracer = _measure(
                args, module, setup, close, speed
            )
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    problems = _problems(plain, traced, spec["per_layer"])
    end_to_end = _end_to_end(setups, plain)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    fixed = plain[0].fixed
    headline = {
        name: {"value": end_to_end[metric], "unit": units[metric]}
        for name, metric in module.HEADLINE_ALIASES.items()
    }
    headline.update(
        {
            name: {"value": fixed[name], "unit": unit}
            for name, unit in module.HEADLINE_OUTPUTS.items()
        }
    )
    record = {
        "workload": args.workload,
        "host": _host(args.seed),
        "cache_state": CACHE_STATE[args.workload],
        "setups": len(setups),
        "passes": len(plain),
        "traced_passes": len(traced),
        "latency_samples": sum(len(p.latencies_ms) for p in plain),
        "headline": headline,
        "raw_pass_walls_s": [p.wall_s for p in plain],
        "probe_mean_ms": speed.mean_probe() * 1e3,
        "probe_samples": len(speed.samples),
        "deterministic": fixed,
        "deterministic_sha256": hashlib.sha256(
            json.dumps(fixed, sort_keys=True).encode()
        ).hexdigest(),
        "problems": problems,
    }
    print(json.dumps({"record": record}))
    if args.trace_out and tracer is not None:
        with open(args.trace_out, "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")

    if args.trace:
        values, names = _per_layer(plain, traced), spec["per_layer"]
    else:
        values, names = end_to_end, spec["end_to_end"]
    passes = plain + traced
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(p.attempted for p in passes),
                "failed": sum(p.failed for p in passes),
                "metrics": {
                    m["name"]: {
                        "value": values.get(m["name"], 0.0),
                        "unit": m["unit"],
                    }
                    for m in names
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
