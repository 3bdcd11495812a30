"""The sharded campaign executor: process-pool fan-out, deterministic merge.

Parallel twin of :func:`repro.core.dataset.collect_campaign`, built from
the same two steps. The grid is split into whole-kernel-row shards
(:mod:`repro.parallel.sharding`); each worker runs the campaign's
measurement task (:func:`repro.core.dataset.measure_kernel_rows`, through
:func:`repro.parallel.worker.run_shard_columns`) on its shard and writes
its power/clock/quality column slice straight into a parent-owned
shared-memory arena (:mod:`repro.parallel.transport`; packed byte blobs
below the arena threshold). The parent then hands the merged columns to
:func:`repro.core.dataset.finish_campaign` — the serial campaign's last
step, telemetry included — so there is one code path, traced or not.
Workers come from the persistent shared pool (:mod:`repro.parallel.pool`),
so repeated campaigns pay fork and device build once.

Everything merges **in shard order** — futures are consumed by index,
never by completion — so the output is a pure function of (device spec,
kernels, configurations, shard plan): datasets, reports, backoff replay
and merged counters are bitwise identical to the serial campaign for
every worker count, including under an active fault plan. Traced workers
run cold boards, so their run-cache counters depend on which kernels
share a shard; a traced campaign therefore uses the fixed
:data:`~repro.parallel.planner.MAX_SHARD_KERNELS` width instead of one
fitted to the worker count, keeping merged traces worker-count invariant.

Crash recovery follows the campaign's skip-and-record contract: an
injected shard failure (``fail_shards``) keeps its utilizations and
degrades into skipped cells; a genuinely crashed task loses its profiling
results too and degrades into skipped kernels; a
:class:`~concurrent.futures.process.BrokenProcessPool` additionally marks
the shared pool for replacement.
"""

from __future__ import annotations

from concurrent.futures import Executor
from concurrent.futures.process import BrokenProcessPool
from typing import Collection, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import (
    CampaignReport,
    KernelRowBlock,
    TrainingDataset,
    campaign_grid,
    fault_snapshot,
    finish_campaign,
)
from repro.core.metrics import UtilizationVector
from repro.driver import faults as faultlib
from repro.driver.session import ProfilingSession
from repro.hardware.specs import FrequencyConfig
from repro.kernels.kernel import KernelDescriptor
from repro.parallel import pool as poollib
from repro.parallel import worker as workerlib
from repro.parallel.planner import (
    MAX_SHARD_KERNELS,
    plan_campaign,
    resolve_workers,
)
from repro.parallel.sharding import partition_kernel_rows
from repro.parallel.spec import DeviceSpec
from repro.parallel.transport import ColumnArena, unpack_columns
from repro.parallel.worker import ShardColumnsResult

__all__ = [
    "collect_campaign_sharded",
    "collect_training_dataset_sharded",
]

_UNREADABLE_BIT = faultlib.QUALITY_BITS[faultlib.UNREADABLE]


def collect_campaign_sharded(
    session: ProfilingSession,
    kernels: Sequence[KernelDescriptor],
    configs: Optional[Sequence[FrequencyConfig]] = None,
    *,
    workers: int = 2,
    shard_size: Optional[int] = None,
    fail_shards: Collection[int] = (),
    executor: Optional[Executor] = None,
    transport: Optional[str] = None,
) -> Tuple[TrainingDataset, CampaignReport]:
    """Run the measurement campaign sharded across worker processes.

    Bitwise-equivalent to :func:`repro.core.dataset.collect_campaign`:
    same dataset, same report (fault tallies and virtual backoff are
    folded back into ``session``'s stats, so the report deltas match the
    serial session's), same span tree. ``fail_shards`` crashes the named
    shards after profiling to exercise crash recovery. Pass ``executor``
    to force a specific pool (default: the persistent shared pool);
    ``transport`` overrides the planner's ``"shm"``/``"bytes"`` choice.
    """
    requested = campaign_grid(session, kernels, configs)
    kernels = tuple(kernels)
    resolved = resolve_workers(workers)
    device = DeviceSpec.from_session(session)
    n_configs = len(requested)
    plan = plan_campaign(
        len(kernels),
        n_configs,
        resolved,
        shard_size=shard_size,
        transport=transport,
    )
    shard_kernels = plan.shard_kernels
    if device.telemetry and shard_size is None:
        shard_kernels = MAX_SHARD_KERNELS
    shards = partition_kernel_rows(len(kernels), shard_kernels)
    n_cells = len(kernels) * n_configs
    fail_set = frozenset(fail_shards)
    recorder = session.recorder
    before = fault_snapshot(session)

    pool: Optional[poollib.WorkerPool] = None
    if executor is not None:
        submit = executor.submit
    else:
        pool = poollib.shared_pool(plan.workers)
        submit = pool.submit

    def run_shards(arena_handle) -> List[Optional[ShardColumnsResult]]:
        futures = [
            submit(
                workerlib.run_shard_columns,
                device,
                shard.index,
                kernels[
                    shard.kernel_start : shard.kernel_start
                    + shard.kernel_count
                ],
                requested,
                shard.row_range(n_configs)[0],
                arena_handle,
                shard.index in fail_set,
            )
            for shard in shards
        ]
        results: List[Optional[ShardColumnsResult]] = []
        for future in futures:
            try:
                results.append(future.result())
            except Exception as error:
                recorder.add("shards.failed")
                if pool is not None and isinstance(error, BrokenProcessPool):
                    pool.broken = True
                results.append(None)
        return results

    with recorder.span(
        "campaign",
        device=session.gpu.spec.name,
        kernels=len(kernels),
        configs=n_configs,
        sharded=True,
        workers=resolved,
    ) as campaign_span:
        if plan.transport == "shm":
            with ColumnArena(n_cells) as arena:
                results = run_shards(arena.handle)
                merged = arena.read()
            watts = merged.watts
            core_mhz = merged.core_mhz
            memory_mhz = merged.memory_mhz
            quality = merged.quality
        else:
            results = run_shards(None)
            watts = np.zeros(n_cells, dtype=np.float64)
            core_mhz = np.zeros(n_cells, dtype=np.float64)
            memory_mhz = np.zeros(n_cells, dtype=np.float64)
            quality = np.zeros(n_cells, dtype=np.uint8)
            for shard, result in zip(shards, results):
                if result is None or result.payload is None:
                    continue
                start, stop = shard.row_range(n_configs)
                piece = unpack_columns(result.payload)
                watts[start:stop] = piece.watts
                core_mhz[start:stop] = piece.core_mhz
                memory_mhz[start:stop] = piece.memory_mhz
                quality[start:stop] = piece.quality

        # Fault counters and recorders fold in shard order. Backoff is a
        # float running sum: replay every shard's profile sleeps, then
        # every shard's measure sleeps — the serial campaign's
        # profile-everything-then-measure-everything sequence.
        utilizations: List[Optional[UtilizationVector]] = []
        for shard, result in zip(shards, results):
            if result is None:
                utilizations.extend([None] * shard.kernel_count)
                continue
            utilizations.extend(result.utilizations)
            workerlib.apply_stats(session.fault_stats, result.stats)
            if result.recorder is not None:
                recorder.absorb(result.recorder)
            if result.crashed:
                start, stop = shard.row_range(n_configs)
                quality[start:stop] = _UNREADABLE_BIT
        clock = session.backoff_clock
        done = [result for result in results if result is not None]
        for sleeps in [r.profile_sleeps for r in done] + [
            r.measure_sleeps for r in done
        ]:
            for seconds in sleeps:
                clock.total_seconds += seconds
                clock.sleep_log.append(seconds)

        campaign_span.set(
            shards=len(shards),
            failed_tasks=sum(result is None for result in results),
        )
        block = KernelRowBlock(
            utilizations=tuple(utilizations),
            watts=watts,
            core_mhz=core_mhz,
            memory_mhz=memory_mhz,
            quality=quality,
        )
        return finish_campaign(
            session, kernels, requested, block, campaign_span, before
        )


def collect_training_dataset_sharded(
    session: ProfilingSession,
    kernels: Sequence[KernelDescriptor],
    configs: Optional[Sequence[FrequencyConfig]] = None,
    *,
    workers: int = 2,
    shard_size: Optional[int] = None,
    executor: Optional[Executor] = None,
    transport: Optional[str] = None,
) -> TrainingDataset:
    """Sharded twin of :func:`repro.core.dataset.collect_training_dataset`."""
    return collect_campaign_sharded(
        session,
        kernels,
        configs,
        workers=workers,
        shard_size=shard_size,
        executor=executor,
        transport=transport,
    )[0]
