"""Process-pool task of the sharded campaign.

One module-level task, picklable by reference: :func:`run_shard_columns`
rebuilds the device from a :class:`~repro.parallel.spec.DeviceSpec` and
runs :func:`repro.core.dataset.measure_kernel_rows` — the same measurement
task the serial campaign applies to the whole grid — on one
whole-kernel-row shard. The shard's power/clock/quality columns go
straight into the parent's shared-memory arena (or come back packed as
bytes); only a thin envelope is pickled: utilizations, fault tallies, the
backoff sleeps split into profile and measure phases and, with telemetry
on, the task's recorder. Workers record no spans: the parent emits the
campaign's span tree from the merged columns, exactly as the serial
campaign does, and absorbs the workers' counters in shard order.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.dataset import measure_kernel_rows
from repro.core.metrics import UtilizationVector
from repro.driver.faults import FaultStats
from repro.driver.session import ProfilingSession
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import FrequencyConfig
from repro.kernels.kernel import KernelDescriptor
from repro.parallel.spec import DeviceSpec
from repro.parallel.transport import ArenaHandle, pack_columns, write_arena_slice
from repro.telemetry.recorder import TelemetryRecorder

__all__ = [
    "ShardColumnsResult",
    "WorkerStats",
    "apply_stats",
    "prepare_worker",
    "run_shard_columns",
]


@dataclass(frozen=True)
class WorkerStats:
    """Fault tally one task accumulated.

    Worker sessions start from zero, so these are exactly the deltas the
    serial campaign would have added to its session-wide
    :class:`~repro.driver.faults.FaultStats` for the same cells. Backoff
    sleeps travel separately (:class:`ShardColumnsResult`): float addition
    is not associative, so the parent replays them one by one in the
    serial campaign's order instead of summing per-worker subtotals.
    """

    read_faults: int = 0
    clock_faults: int = 0
    event_faults: int = 0
    unreadable_cells: int = 0
    dropped_samples: int = 0
    injected_throttles: int = 0
    corrupted_counters: int = 0


def _stats_of(session: ProfilingSession) -> WorkerStats:
    stats = session.fault_stats
    return WorkerStats(
        read_faults=stats.read_faults,
        clock_faults=stats.clock_faults,
        event_faults=stats.event_faults,
        unreadable_cells=stats.unreadable_cells,
        dropped_samples=stats.dropped_samples,
        injected_throttles=stats.injected_throttles,
        corrupted_counters=stats.corrupted_counters,
    )


def apply_stats(stats: FaultStats, delta: WorkerStats) -> None:
    """Fold one task's tally into a parent session's stats."""
    stats.read_faults += delta.read_faults
    stats.clock_faults += delta.clock_faults
    stats.event_faults += delta.event_faults
    stats.unreadable_cells += delta.unreadable_cells
    stats.dropped_samples += delta.dropped_samples
    stats.injected_throttles += delta.injected_throttles
    stats.corrupted_counters += delta.corrupted_counters


@dataclass(frozen=True)
class ShardColumnsResult:
    """One shard's outcome: utilizations + everything but the columns.

    The power/clock/quality columns travel out of band — written straight
    into the parent's shared-memory arena (``payload is None``) or packed
    into one byte blob for small campaigns. ``profile_sleeps`` and
    ``measure_sleeps`` are kept apart so the parent can replay *all*
    profile backoffs before *all* measure backoffs, matching the serial
    campaign's phase order bit for bit.
    """

    shard_index: int
    #: Per shard kernel, in shard order (``None`` marks a skipped kernel).
    utilizations: Tuple[Optional[UtilizationVector], ...]
    stats: WorkerStats
    profile_sleeps: Tuple[float, ...]
    measure_sleeps: Tuple[float, ...]
    payload: Optional[bytes]
    #: Injected crash (the chaos hook): utilizations survive, the shard's
    #: cells degrade to skipped cells.
    crashed: bool = False
    #: The task's trace recorder (counters only) when telemetry is on.
    recorder: Optional[TelemetryRecorder] = None


# ----------------------------------------------------------------------
# Per-process device cache
# ----------------------------------------------------------------------
#: Rebuilt boards, keyed by the DeviceSpec's pickled bytes (the spec holds
#: a Mapping, so it is not hashable itself). Kernel execution is a memoized
#: pure function of (kernel, configuration), so reusing a board across
#: tasks changes no observable output — except the run-cache telemetry
#: counters, which is why the cache is bypassed when telemetry is on (each
#: traced task gets a cold board, making its counters a pure function of
#: the task itself rather than of scheduling history).
_GPU_CACHE: Dict[bytes, SimulatedGPU] = {}


def _session_for(device: DeviceSpec) -> ProfilingSession:
    if device.telemetry:
        return device.build_session()
    key = pickle.dumps(device, protocol=pickle.HIGHEST_PROTOCOL)
    gpu = _GPU_CACHE.get(key)
    if gpu is None:
        gpu = device.build_gpu()
        _GPU_CACHE[key] = gpu
    return device.build_session(gpu=gpu)


def prepare_worker(device: DeviceSpec) -> bool:
    """Warm task: rebuild (and cache) the device so later tasks start hot."""
    _session_for(device)
    return True


def run_shard_columns(
    device: DeviceSpec,
    shard_index: int,
    kernels: Tuple[KernelDescriptor, ...],
    configs: Tuple[FrequencyConfig, ...],
    row_start: int,
    arena: Optional[ArenaHandle] = None,
    fail: bool = False,
) -> ShardColumnsResult:
    """Profile + measure whole kernel rows in a worker process.

    The shard's column slice (``len(kernels) * len(configs)`` cells,
    kernel-major) lands in the parent's arena at ``row_start`` or comes
    back packed as bytes. An empty ``configs`` profiles only. ``fail=True``
    crashes the shard after profiling (the crash-recovery hook): no
    columns, ``crashed`` set.
    """
    session = _session_for(device)
    block = measure_kernel_rows(session, kernels, () if fail else configs)
    sleeps = tuple(session.backoff_clock.sleep_log)
    payload = None
    if not fail:
        columns = (block.watts, block.core_mhz, block.memory_mhz, block.quality)
        if arena is not None:
            write_arena_slice(arena, row_start, *columns)
        else:
            payload = pack_columns(*columns)
    return ShardColumnsResult(
        shard_index=shard_index,
        utilizations=block.utilizations,
        stats=_stats_of(session),
        profile_sleeps=sleeps[: block.profile_sleeps],
        measure_sleeps=sleeps[block.profile_sleeps :],
        payload=payload,
        crashed=fail,
        recorder=session.recorder if device.telemetry else None,
    )
