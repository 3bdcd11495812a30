"""Command-line interface.

Mirrors the workflow of the paper's released tooling (a microbenchmark
runner plus a model-construction tool) as subcommands::

    python -m repro devices
    python -m repro fit --device "GTX Titan X" --output model.json
    python -m repro predict --model model.json --workload blackscholes \
        --core 595 --memory 810
    python -m repro predict --model model.json --workload gemm --grid
    python -m repro predict --model model.json --batch rows.csv
    python -m repro breakdown --model model.json --workload gemm
    python -m repro validate --model model.json
    python -m repro experiment fig7

The serving subsystem adds traffic-facing verbs::

    python -m repro serve --registry ./registry --device "Titan Xp" --fit
    python -m repro load-test --quick --output BENCH_serving.json

Every command works offline and deterministically on the simulated devices.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from typing import Optional, Sequence

from repro.config import DEFAULT_SETTINGS, MASTER_SEED, NOISELESS_SETTINGS
from repro.core.estimation import fit_power_model
from repro.core.metrics import MetricCalculator
from repro.driver.faults import FaultPlan
from repro.driver.session import ProfilingSession
from repro.errors import ReproError, ValidationError
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import ALL_GPUS, FrequencyConfig, gpu_spec_by_name
from repro.reporting.tables import format_kv, format_table
from repro.serialization import load_model, save_model
from repro.telemetry import (
    NULL_RECORDER,
    TelemetryRecorder,
    TraceRecorder,
    write_trace,
)
from repro.workloads import all_workloads, workload_by_name

#: Experiment modules the ``experiment`` subcommand can dispatch to.
EXPERIMENTS = (
    "table1", "table2", "table3", "fig1",
    "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "baselines", "ablations", "discovery", "sensitivity", "dvfs_savings",
    "noise_sweep", "transfer", "perf_validation", "cluster_savings",
    "fewshot",
)


def _workers_arg(value: str):
    """``--workers`` accepts a worker count or ``auto`` (usable cores)."""
    if value == "auto":
        return "auto"
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        )
    return count


def _session_for(
    device: str,
    noiseless: bool,
    chaos: float = 0.0,
    chaos_seed: int = MASTER_SEED,
    recorder: Optional["TelemetryRecorder"] = None,
) -> ProfilingSession:
    settings = NOISELESS_SETTINGS if noiseless else DEFAULT_SETTINGS
    fault_plan = (
        FaultPlan.transient(chaos, seed=chaos_seed) if chaos > 0 else None
    )
    gpu = SimulatedGPU(
        gpu_spec_by_name(device),
        settings=settings,
        fault_plan=fault_plan,
        recorder=recorder or NULL_RECORDER,
    )
    return ProfilingSession(gpu)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_devices(args: argparse.Namespace) -> int:
    rows = [
        (
            spec.name,
            spec.architecture,
            f"{len(spec.core_frequencies_mhz)}x"
            f"{len(spec.memory_frequencies_mhz)}",
            f"{spec.default_core_mhz:.0f}/{spec.default_memory_mhz:.0f}",
            f"{spec.tdp_watts:.0f} W",
        )
        for spec in ALL_GPUS
    ]
    print(
        format_table(
            ["device", "arch", "V-F grid", "defaults (MHz)", "TDP"], rows
        )
    )
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    recorder = TraceRecorder() if args.telemetry else None
    session = _session_for(
        args.device, args.noiseless, args.chaos, args.chaos_seed, recorder
    )
    print(f"fitting the DVFS-aware power model for {session.gpu.spec.name}...")
    if args.workers:
        from repro.parallel.planner import resolve_workers

        resolved_workers = resolve_workers(args.workers)
        auto_note = (
            " (auto: usable cores)" if args.workers == "auto" else ""
        )
        print(
            f"sharded campaign: {resolved_workers} worker "
            f"processes{auto_note}"
            + (
                f", {args.shard_size} cells per shard"
                if args.shard_size
                else ""
            )
        )
    dataset = None
    if args.chaos > 0:
        from repro.core.dataset import collect_campaign
        from repro.core.estimation import ModelEstimator
        from repro.microbench import build_suite

        print(
            f"chaos mode: {args.chaos:.1%} transient-fault plan "
            f"(seed {args.chaos_seed})"
        )
        dataset, campaign = collect_campaign(
            session,
            build_suite(),
            workers=args.workers,
            shard_size=args.shard_size,
        )
        print(campaign.summary())
        model, report = ModelEstimator(
            dataset, recorder=session.recorder
        ).estimate()
    elif args.perf:
        # The performance fit reuses the campaign's reference counters, so
        # collect the dataset explicitly instead of letting fit_power_model
        # hide it.
        from repro.core.dataset import collect_training_dataset
        from repro.core.estimation import ModelEstimator
        from repro.microbench import build_suite

        dataset = collect_training_dataset(
            session,
            build_suite(),
            workers=args.workers,
            shard_size=args.shard_size,
        )
        model, report = ModelEstimator(
            dataset, recorder=session.recorder
        ).estimate()
    else:
        model, report = fit_power_model(
            session, workers=args.workers, shard_size=args.shard_size
        )
    perf_model = None
    if args.perf:
        from repro.core.perf_estimation import PerformanceEstimator
        from repro.microbench import build_suite

        print("fitting the runtime model (timing probes + NNLS)...")
        # Fit the microbenchmarks plus the Table-III workloads: the energy
        # predictions of `predict --energy` target the real workloads, and
        # kernels absent from the dataset profile their counters on demand.
        perf_kernels = list(build_suite())
        seen_names = {kernel.name for kernel in perf_kernels}
        perf_kernels.extend(
            kernel
            for kernel in all_workloads()
            if kernel.name not in seen_names
        )
        perf_estimator = PerformanceEstimator(
            dataset, session, perf_kernels, recorder=session.recorder
        )
        perf_model, perf_report = perf_estimator.estimate()
    if args.telemetry:
        trace_path = write_trace(
            recorder, args.telemetry, format=args.telemetry_format
        )
        print(f"telemetry trace written to {trace_path}")
    print(
        format_kv(
            {
                "iterations": report.iterations,
                "converged": report.converged,
                "training MAE": f"{report.train_mae_percent:.2f}%",
                "final RMSE": f"{report.final_rmse:.3f} W",
            }
        )
    )
    print(model.describe())
    path = save_model(model, args.output)
    print(f"model written to {path}")
    if perf_model is not None:
        from pathlib import Path

        from repro.serialization import save_performance_model

        print(
            format_kv(
                {
                    "kernels fitted": perf_report.kernels,
                    "timing probes": perf_report.probes,
                    "probe-fit MAE": f"{perf_report.train_mae_percent:.4f}%",
                },
                title=perf_model.describe(),
            )
        )
        perf_output = args.perf_output
        if perf_output is None:
            stem = Path(args.output)
            perf_output = stem.with_name(stem.stem + ".perf.json")
        perf_path = save_performance_model(perf_model, perf_output)
        print(f"performance model written to {perf_path}")
    return 0


def _read_batch_rows(path: str):
    """Utilization rows from a JSON or CSV batch file.

    JSON: a list of ``{"sp": 0.4, "dram": 0.7, ...}`` objects. CSV: a
    header of component names followed by one numeric row per request.
    Missing components default to zero; unknown names are an error.
    """
    import csv
    import json as _json
    from pathlib import Path

    from repro.serving.engine import vector_from_mapping

    source = Path(path)
    text = source.read_text()
    if source.suffix.lower() in (".json", ".jsonl"):
        data = _json.loads(text)
        if not isinstance(data, list):
            raise ReproError(
                f"batch file {source} must hold a JSON list of objects"
            )
        return [vector_from_mapping(entry) for entry in data]
    rows = []
    reader = csv.DictReader(text.splitlines())
    for entry in reader:
        rows.append(
            vector_from_mapping(
                {key: float(value) for key, value in entry.items() if value}
            )
        )
    if not rows:
        raise ReproError(f"batch file {source} holds no utilization rows")
    return rows


def _predict_energy(args: argparse.Namespace) -> int:
    """The joint power x runtime query behind ``predict --energy``."""
    from repro.core.perf_estimation import EnergyModel
    from repro.serialization import load_performance_model

    if not args.perf_model:
        raise ReproError("predict --energy needs --perf-model PATH")
    if not args.workload:
        raise ReproError("predict --energy needs --workload")
    model = load_model(args.model)
    performance = load_performance_model(args.perf_model)
    energy = EnergyModel(model, performance)
    session = _session_for(model.spec.name, args.noiseless)
    kernel = workload_by_name(args.workload)
    utilizations = MetricCalculator(model.spec).utilizations(
        session.collect_events(kernel)
    )
    if not performance.has_kernel(kernel.name):
        raise ReproError(
            f"performance model {args.perf_model} does not know workload "
            f"{kernel.name!r}; refit with `fit --perf` or pick one of "
            f"{performance.known_kernels()[:5]}..."
        )
    if args.grid:
        configs = model.spec.all_configurations()
        rows = []
        breakdowns = [
            energy.breakdown(utilizations, kernel.name, config)
            for config in sorted(
                configs, key=lambda c: (-c.memory_mhz, -c.core_mhz)
            )
        ]
        for item in breakdowns:
            rows.append(
                (
                    f"{item.config.core_mhz:.0f}",
                    f"{item.config.memory_mhz:.0f}",
                    f"{item.power_watts:.1f}",
                    f"{item.runtime_seconds * 1e3:.3f}",
                    f"{item.energy_joules:.3f}",
                    f"{item.edp * 1e3:.4f}",
                    f"{item.ed2p * 1e6:.5f}",
                )
            )
        print(
            format_table(
                [
                    "fcore (MHz)", "fmem (MHz)", "power (W)", "time (ms)",
                    "energy (J)", "EDP (mJ*s)", "ED2P (uJ*s^2)",
                ],
                rows,
                title=f"{args.workload} on {model.spec.name}",
            )
        )
        for objective in ("energy", "edp", "ed2p"):
            best = min(
                breakdowns,
                key=lambda item: {
                    "energy": item.energy_joules,
                    "edp": item.edp,
                    "ed2p": item.ed2p,
                }[objective],
            )
            print(
                f"best {objective}: {best.config} "
                f"({best.energy_joules:.3f} J, "
                f"{best.runtime_seconds * 1e3:.3f} ms)"
            )
        return 0
    config = FrequencyConfig(
        args.core or model.spec.default_core_mhz,
        args.memory or model.spec.default_memory_mhz,
    )
    item = energy.breakdown(utilizations, kernel.name, config)
    print(
        format_kv(
            {
                "power": f"{item.power_watts:.1f} W",
                "runtime": f"{item.runtime_seconds * 1e3:.3f} ms",
                "energy": f"{item.energy_joules:.3f} J",
                "EDP": f"{item.edp * 1e3:.4f} mJ*s",
                "ED2P": f"{item.ed2p * 1e6:.5f} uJ*s^2",
            },
            title=f"{args.workload} @ {config} on {model.spec.name}",
        )
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    if args.energy:
        return _predict_energy(args)
    model = load_model(args.model)
    if args.batch:
        from repro.serving.engine import PredictionEngine

        engine = PredictionEngine(model)
        vectors = _read_batch_rows(args.batch)
        matrix = engine.utilization_matrix(vectors)
        config = FrequencyConfig(
            args.core or model.spec.default_core_mhz,
            args.memory or model.spec.default_memory_mhz,
        )
        watts = engine.predict_at(matrix, config)
        rows = [
            (str(index), f"{value:.2f}")
            for index, value in enumerate(watts)
        ]
        print(
            format_table(
                ["row", "predicted power (W)"],
                rows,
                title=f"{len(rows)} rows @ {config} on {model.spec.name}",
            )
        )
        return 0
    if not args.workload:
        raise ReproError("predict needs --workload (or --batch FILE)")
    session = _session_for(model.spec.name, args.noiseless)
    kernel = workload_by_name(args.workload)
    utilizations = MetricCalculator(model.spec).utilizations(
        session.collect_events(kernel)
    )
    if args.grid:
        rows = [
            (
                f"{config.core_mhz:.0f}",
                f"{config.memory_mhz:.0f}",
                f"{watts:.1f}",
            )
            for config, watts in sorted(
                model.predict_grid(utilizations).items(),
                key=lambda item: (-item[0].memory_mhz, -item[0].core_mhz),
            )
        ]
        print(
            format_table(
                ["fcore (MHz)", "fmem (MHz)", "predicted power (W)"],
                rows,
                title=f"{args.workload} on {model.spec.name}",
            )
        )
        return 0
    config = FrequencyConfig(
        args.core or model.spec.default_core_mhz,
        args.memory or model.spec.default_memory_mhz,
    )
    watts = model.predict_power(utilizations, config)
    print(f"{args.workload} @ {config}: {watts:.1f} W")
    return 0


def cmd_breakdown(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    session = _session_for(model.spec.name, args.noiseless)
    kernel = workload_by_name(args.workload)
    utilizations = MetricCalculator(model.spec).utilizations(
        session.collect_events(kernel)
    )
    config = FrequencyConfig(
        args.core or model.spec.default_core_mhz,
        args.memory or model.spec.default_memory_mhz,
    )
    breakdown = model.predict_breakdown(utilizations, config)
    pairs = {"constant": f"{breakdown.constant_watts:.1f} W"}
    for component, watts in breakdown.component_watts.items():
        pairs[component.value] = (
            f"{watts:.1f} W (U={utilizations[component]:.2f})"
        )
    pairs["total"] = f"{breakdown.total_watts:.1f} W"
    print(
        format_kv(pairs, title=f"{args.workload} @ {config} on {model.spec.name}")
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import validate_model

    model = load_model(args.model)
    session = _session_for(model.spec.name, args.noiseless)
    print(
        f"validating on {model.spec.name} over the full V-F grid "
        "(26 unseen benchmarks)..."
    )
    result = validate_model(model, session, all_workloads())
    low, high = result.power_range_watts()
    print(
        format_kv(
            {
                "mean absolute error": f"{result.mean_absolute_error_percent:.2f}%",
                "max absolute error": f"{result.max_absolute_error_percent:.1f}%",
                "measured power span": f"{low:.0f}-{high:.0f} W",
                "records": len(result.records),
            }
        )
    )
    if args.per_memory:
        rows = [
            (f"{memory:.0f}", f"{mae:.2f}%")
            for memory, mae in sorted(
                result.error_by_memory_frequency().items(), reverse=True
            )
        ]
        print(format_table(["fmem (MHz)", "MAE"], rows))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    module = importlib.import_module(f"repro.experiments.{args.name}")
    if args.experiment_args:
        module.main(args.experiment_args)
    else:
        module.main()
    return 0


def cmd_fewshot(args: argparse.Namespace) -> int:
    """Few-shot calibration sweep over the synthetic device families."""
    from repro.experiments import fewshot

    argv = ["--output", args.output]
    if args.quick:
        argv.append("--quick")
    if args.no_gate:
        argv.append("--no-gate")
    fewshot.main(argv)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Time the collect/estimate/validate pipeline (serial vs sharded)."""
    import json
    from pathlib import Path

    from repro.benchmarking import run_benchmark

    report = run_benchmark(
        devices=args.device,
        quick=args.quick,
        repeats=args.repeats,
        min_sharded_speedup=args.min_sharded_speedup,
    )
    path = Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio prediction service over a registry model."""
    import asyncio

    from repro.serving import ModelRegistry, PredictionServer, ServerConfig
    from repro.serving.loadgen import ensure_model
    from repro.serving.registry import slugify
    from repro.serving.server import serve_tcp

    registry = ModelRegistry(args.registry)
    name = args.model or slugify(args.device)
    if args.fit:
        record = ensure_model(registry, args.device, name)
        print(f"serving {record.version_key} ({record.device})")

    async def _serve() -> int:
        server = PredictionServer(
            registry,
            name,
            config=ServerConfig(
                max_queue=args.max_queue, max_batch=args.max_batch
            ),
        )
        record = await server.start()
        tcp, finished = await serve_tcp(
            server,
            host=args.host,
            port=args.port,
            max_requests=args.max_requests or None,
        )
        address = tcp.sockets[0].getsockname()
        print(
            f"model {record.version_key}: listening on "
            f"{address[0]}:{address[1]} "
            f"(JSON lines; grid of {server.engine.grid_size} configs)"
        )
        try:
            if args.max_requests:
                await finished.wait()
            else:  # pragma: no cover - interactive mode runs until killed
                await asyncio.Event().wait()
        finally:
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
        return 0

    return asyncio.run(_serve())


def cmd_load_test(args: argparse.Namespace) -> int:
    """Benchmark the serving path; write BENCH_serving.json."""
    import json
    import tempfile
    from pathlib import Path

    from repro.benchmarking import BenchmarkRegression
    from repro.serving import LoadTestPlan, ModelRegistry, run_load_test
    from repro.serving.loadgen import check_fleet_gate, summarize

    if args.quick:
        plan = LoadTestPlan.quick_tier(args.device)
    else:
        plan = LoadTestPlan(device=args.device)
    if args.requests:
        plan = dataclasses.replace(plan, requests=args.requests)
    if args.concurrency:
        plan = dataclasses.replace(
            plan, concurrency_levels=tuple(args.concurrency)
        )
    if args.fleet_workers:
        plan = dataclasses.replace(
            plan, fleet_workers=tuple(args.fleet_workers)
        )
    if args.chunk_rows:
        plan = dataclasses.replace(plan, chunk_rows=args.chunk_rows)
    if args.shape:
        plan = dataclasses.replace(plan, shapes=tuple(args.shape))

    if args.registry:
        report = run_load_test(ModelRegistry(args.registry), plan)
    else:
        with tempfile.TemporaryDirectory() as scratch:
            report = run_load_test(ModelRegistry(scratch), plan)
    print(summarize(report))
    path = Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {path}")
    if not report["acceptance"]["pass"]:
        print(
            "error: warm-cache throughput or fleet speedup below the floor",
            file=sys.stderr,
        )
        return 1
    if args.min_fleet_speedup is not None:
        try:
            check_fleet_gate(report, args.min_fleet_speedup)
        except BenchmarkRegression as regression:
            print(f"error: {regression}", file=sys.stderr)
            return 1
    if args.strict and report["errors_total"] > 0:
        print(
            f"error: {report['errors_total']} rejected/timed-out requests "
            "under --strict",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Simulate fleet-level energy scheduling; optionally gate a bench."""
    import json
    from pathlib import Path

    from repro.benchmarking import BenchmarkRegression

    for flag, value in (("--nodes", args.nodes), ("--jobs", args.jobs)):
        if value is not None and value < 1:
            raise ValidationError(f"{flag} must be at least 1, got {value}")

    if args.bench:
        from repro.cluster.bench import run_cluster_bench

        try:
            report = run_cluster_bench(
                quick=args.quick,
                seed=args.seed,
                nodes=args.nodes,
                jobs=args.jobs,
                min_energy_savings=args.min_energy_savings,
                max_deadline_miss_rate=args.max_deadline_miss_rate,
                output=args.output or "BENCH_cluster.json",
            )
        except BenchmarkRegression as regression:
            print(f"error: {regression}", file=sys.stderr)
            return 1
        headline = report["headline"]
        print(
            f"cluster bench pass: edf saves >= "
            f"{headline['min_savings_vs_max_clocks'] * 100:.1f}% fleet "
            f"energy on every shape at <= "
            f"{headline['max_deadline_miss_rate'] * 100:.2f}% miss rate"
        )
        print(f"report written to {args.output or 'BENCH_cluster.json'}")
        return 0

    from repro.cluster import (
        ClusterSimulator,
        NodeFailurePlan,
        build_fleet,
        fleet_reference_seconds,
        generate_job_trace,
        scheduler_by_name,
    )
    from repro.experiments.cluster_savings import (
        HORIZON_S,
        QUICK_WORKLOADS,
        build_oracles,
        default_mix,
    )
    from repro.experiments.common import get_lab

    lab = get_lab()
    kernels = tuple(lab.workloads("Titan Xp"))
    if args.quick:
        kernels = kernels[:QUICK_WORKLOADS]
    oracles = build_oracles(kernels, lab=lab)
    n_nodes = 20 if args.nodes is None else args.nodes
    nodes = build_fleet(oracles, default_mix(n_nodes))
    references = fleet_reference_seconds(
        [oracles[device] for device in sorted(oracles)], kernels
    )
    trace = generate_job_trace(
        args.shape,
        240 if args.jobs is None else args.jobs,
        args.seed,
        kernels,
        references,
        horizon_s=HORIZON_S,
    )
    failure_plan = None
    if args.chaos_mtbf is not None:
        failure_plan = NodeFailurePlan(
            mtbf_s=args.chaos_mtbf, mttr_s=args.chaos_mttr, seed=args.seed
        )
    simulator = ClusterSimulator(
        nodes, scheduler_by_name(args.scheduler), failure_plan=failure_plan
    )
    report = simulator.run(trace)
    print(
        format_kv(
            {
                "scheduler": report.scheduler,
                "shape": report.shape_name,
                "nodes": str(report.n_nodes),
                "jobs": str(report.n_jobs),
                "fleet energy (J)": f"{report.fleet_energy_joules:.2f}",
                "deadline misses": str(report.deadline_misses),
                "miss rate": f"{report.miss_rate * 100:.2f}%",
                "makespan (s)": f"{report.makespan_s:.3f}",
                "rescheduled": str(report.rescheduled),
                "node failures": str(report.node_failures),
            }
        )
    )
    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"report written to {path}")
    return 0


def cmd_sources(args: argparse.Namespace) -> int:
    """Dump the microbenchmark suite's CUDA (and PTX) sources — the
    released-artifact side of the paper (Fig. 3/4)."""
    from pathlib import Path

    from repro.codegen import cuda_source_for, ptx_source_for
    from repro.microbench import build_suite

    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    written = 0
    for kernel in build_suite():
        (output / f"{kernel.name}.cu").write_text(cuda_source_for(kernel))
        written += 1
        if kernel.tags.get("group") in ("int", "sp", "dp"):
            (output / f"{kernel.name}.ptx").write_text(
                ptx_source_for(kernel)
            )
            written += 1
    print(f"wrote {written} source files to {output}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "DVFS-aware GPU power modeling (HPCA 2018 reproduction) — "
            "fit, predict, validate and reproduce the paper's experiments "
            "on simulated devices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the simulated devices").set_defaults(
        handler=cmd_devices
    )

    fit = sub.add_parser("fit", help="fit a model and save it to JSON")
    fit.add_argument("--device", default="GTX Titan X")
    fit.add_argument("--output", default="model.json")
    fit.add_argument("--noiseless", action="store_true")
    fit.add_argument(
        "--chaos",
        type=float,
        default=0.0,
        metavar="RATE",
        help="inject transient driver faults at this per-call probability "
        "(e.g. 0.05) and fit through the resilient campaign path",
    )
    fit.add_argument(
        "--chaos-seed",
        type=int,
        default=MASTER_SEED,
        help="seed of the deterministic fault universe (default: the "
        "repro master seed)",
    )
    fit.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="record a structured telemetry trace of the fit (spans, "
        "counters, gauges) and write it to PATH; deterministic under the "
        "master seed (byte-identical across same-seed runs)",
    )
    fit.add_argument(
        "--workers",
        type=_workers_arg,
        default=0,
        metavar="N",
        help="shard the measurement campaign across N worker processes, or "
        "'auto' for the machine's usable (affinity-aware) core count; the "
        "merged dataset is bitwise identical to the serial campaign's, and "
        "grids too small to amortize worker startup transparently run "
        "serially (0 = serial, the default)",
    )
    fit.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="M",
        help="grid cells per shard, rounded down to whole kernel rows "
        "(default: an adaptive whole-row split from the grid dimensions); "
        "the partition — and hence the output — depends only on this and "
        "the grid, never on scheduling",
    )
    fit.add_argument(
        "--perf",
        action="store_true",
        help="also fit the runtime model (reference counters + timing "
        "probes, NNLS in the T^p domain) and save it beside the power "
        "model; enables `predict --energy`",
    )
    fit.add_argument(
        "--perf-output",
        default=None,
        metavar="PATH",
        help="where to write the performance model (default: the power "
        "model's path with a .perf.json suffix)",
    )
    fit.add_argument(
        "--telemetry-format",
        choices=("jsonl", "prom"),
        default="jsonl",
        help="trace format: JSONL span/counter events or Prometheus "
        "text exposition (default: jsonl)",
    )
    fit.set_defaults(handler=cmd_fit)

    predict = sub.add_parser(
        "predict", help="predict a workload's power at a configuration"
    )
    predict.add_argument("--model", required=True)
    predict.add_argument(
        "--workload",
        default=None,
        help="profile this workload on the simulated device "
        "(mutually exclusive with --batch)",
    )
    predict.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help="predict one row per utilization vector in FILE (JSON list of "
        "component->value objects, or CSV with component-name header); "
        "shares the serving PredictionEngine batch path",
    )
    predict.add_argument("--core", type=float, default=None)
    predict.add_argument("--memory", type=float, default=None)
    predict.add_argument(
        "--grid", action="store_true", help="predict every configuration"
    )
    predict.add_argument(
        "--energy",
        action="store_true",
        help="joint power x runtime prediction (energy/EDP/ED2P); needs "
        "--perf-model and --workload, composes with --grid",
    )
    predict.add_argument(
        "--perf-model",
        default=None,
        metavar="PATH",
        help="performance model written by `fit --perf` (required with "
        "--energy)",
    )
    predict.add_argument("--noiseless", action="store_true")
    predict.set_defaults(handler=cmd_predict)

    breakdown = sub.add_parser(
        "breakdown", help="per-component power decomposition of a workload"
    )
    breakdown.add_argument("--model", required=True)
    breakdown.add_argument("--workload", required=True)
    breakdown.add_argument("--core", type=float, default=None)
    breakdown.add_argument("--memory", type=float, default=None)
    breakdown.add_argument("--noiseless", action="store_true")
    breakdown.set_defaults(handler=cmd_breakdown)

    validate = sub.add_parser(
        "validate", help="validate a saved model on the Table-III workloads"
    )
    validate.add_argument("--model", required=True)
    validate.add_argument(
        "--per-memory", action="store_true",
        help="also report MAE per memory frequency (Fig. 8)",
    )
    validate.add_argument("--noiseless", action="store_true")
    validate.set_defaults(handler=cmd_validate)

    experiment = sub.add_parser(
        "experiment", help="run one paper table/figure experiment"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument(
        "experiment_args",
        nargs=argparse.REMAINDER,
        help="flags forwarded to the experiment (e.g. --quick)",
    )
    experiment.set_defaults(handler=cmd_experiment)

    fewshot = sub.add_parser(
        "fewshot",
        help="few-shot calibration sweep over synthetic device families "
        "(writes FEWSHOT.json)",
    )
    fewshot.add_argument(
        "--quick",
        action="store_true",
        help="CI tier: fewer probe budgets, thinned validation sweep",
    )
    fewshot.add_argument("--output", default="FEWSHOT.json")
    fewshot.add_argument(
        "--no-gate",
        action="store_true",
        help="report only; do not fail when band coverage misses the floors",
    )
    fewshot.set_defaults(handler=cmd_fewshot)

    bench = sub.add_parser(
        "bench",
        help="benchmark the collect/estimate/validate pipeline "
        "(writes BENCH_pipeline.json)",
    )
    bench.add_argument(
        "--device",
        action="append",
        help="device name (repeatable; default: all three)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="reduced suite/grid smoke tier (runs in well under a minute)",
    )
    bench.add_argument(
        "--repeats", type=int, default=1, help="best-of-N timing repeats"
    )
    bench.add_argument("--output", default="BENCH_pipeline.json")
    bench.add_argument(
        "--min-sharded-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless every non-fallback sharded pass reaches X times "
        "the serial columnar campaign (CI perf gate)",
    )
    bench.set_defaults(handler=cmd_bench)

    cluster = sub.add_parser(
        "cluster",
        help=(
            "simulate deadline-aware energy scheduling over a GPU fleet "
            "(--bench gates BENCH_cluster.json)"
        ),
    )
    cluster.add_argument(
        "--bench",
        action="store_true",
        help="run the full scheduler x shape sweep and gate the savings",
    )
    cluster.add_argument("--quick", action="store_true")
    cluster.add_argument(
        "--scheduler",
        default="edf",
        choices=("max-clocks", "energy-greedy", "edf", "powercap-edf"),
    )
    cluster.add_argument(
        "--shape", default="burst", choices=("diurnal", "burst", "mixed")
    )
    cluster.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="total fleet size, split 40/40/20 across device types",
    )
    cluster.add_argument("--jobs", type=int, default=None)
    cluster.add_argument("--seed", type=int, default=MASTER_SEED)
    cluster.add_argument(
        "--chaos-mtbf",
        type=float,
        default=None,
        help="enable seeded node failures with this mean time between them",
    )
    cluster.add_argument("--chaos-mttr", type=float, default=0.1)
    cluster.add_argument(
        "--min-energy-savings",
        type=float,
        default=0.10,
        help="bench gate: minimum edf savings vs max-clocks on every shape",
    )
    cluster.add_argument(
        "--max-deadline-miss-rate",
        type=float,
        default=0.05,
        help="bench gate: maximum edf deadline-miss rate on every shape",
    )
    cluster.add_argument("--output", default=None)
    cluster.set_defaults(handler=cmd_cluster)

    sources = sub.add_parser(
        "sources",
        help="dump the microbenchmark suite's CUDA/PTX sources (Fig. 3/4)",
    )
    sources.add_argument("--output", default="microbenchmark_sources")
    sources.set_defaults(handler=cmd_sources)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio prediction service over a registry model "
        "(JSON-lines over TCP)",
    )
    serve.add_argument(
        "--registry", default="registry", help="model registry directory"
    )
    serve.add_argument(
        "--model",
        default=None,
        help="registry model name (default: derived from --device)",
    )
    serve.add_argument("--device", default="Titan Xp")
    serve.add_argument(
        "--fit",
        action="store_true",
        help="fit and publish the device's model first if the registry "
        "does not hold it yet",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve.add_argument("--max-queue", type=int, default=256)
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument(
        "--max-requests",
        type=int,
        default=0,
        help="stop after answering N requests (0 = serve forever); "
        "the smoke tests use this for bounded runs",
    )
    serve.set_defaults(handler=cmd_serve)

    load_test = sub.add_parser(
        "load-test",
        help="drive the prediction server with a seeded request stream "
        "(writes BENCH_serving.json)",
    )
    load_test.add_argument(
        "--registry",
        default=None,
        help="model registry directory (default: a throwaway temp registry)",
    )
    load_test.add_argument("--device", default="Titan Xp")
    load_test.add_argument(
        "--requests", type=int, default=0, help="requests per phase"
    )
    load_test.add_argument(
        "--concurrency",
        action="append",
        type=int,
        help="concurrency level (repeatable; default: plan levels)",
    )
    load_test.add_argument(
        "--fleet-workers",
        action="append",
        type=int,
        help="fleet worker count to sweep (repeatable; default: plan sweep)",
    )
    load_test.add_argument(
        "--chunk-rows",
        type=int,
        default=0,
        help="requests per fleet dispatch chunk (0 = plan default)",
    )
    load_test.add_argument(
        "--shape",
        action="append",
        choices=("diurnal", "burst", "mixed"),
        help="traffic shape to replay (repeatable; default: all three)",
    )
    load_test.add_argument(
        "--min-fleet-speedup",
        type=float,
        default=None,
        help="perf gate: fail unless the fleet's warm throughput at the "
        "largest worker count reaches this multiple of the "
        "single-process server's warm best",
    )
    load_test.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke tier: small stream, two concurrency levels",
    )
    load_test.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any request was rejected or timed out",
    )
    load_test.add_argument("--output", default="BENCH_serving.json")
    load_test.set_defaults(handler=cmd_load_test)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
