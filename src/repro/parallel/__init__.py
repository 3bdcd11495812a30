"""Sharded multi-process execution of the measurement campaign.

The paper's methodology measures every microbenchmark at every V-F
configuration (Sec. III-D / V-A) — the dominant cost of the pipeline. This
package fans that grid out over a :class:`concurrent.futures.ProcessPoolExecutor`
while preserving the serial campaign's outputs *bitwise*: workers rebuild
the simulated device from a frozen :class:`DeviceSpec` (every noise and
fault draw is label-seeded, so rebuilt sessions observe identical
measurements) and run the serial campaign's own measurement task on
whole-kernel-row shards, and results are merged in shard order regardless
of scheduling.
"""

from repro.parallel.executor import (
    collect_campaign_sharded,
    collect_training_dataset_sharded,
)
from repro.parallel.planner import (
    FALLBACK_MIN_CELLS,
    MAX_SHARD_KERNELS,
    SHM_MIN_CELLS,
    CampaignPlan,
    plan_campaign,
    resolve_workers,
    should_fallback,
    usable_cpu_count,
)
from repro.parallel.pool import WorkerPool, shared_pool, shutdown_shared_pool
from repro.parallel.sharding import RowShard, partition_kernel_rows
from repro.parallel.spec import DeviceSpec
from repro.parallel.transport import (
    ArenaHandle,
    ColumnArena,
    ColumnBlock,
    pack_columns,
    unpack_columns,
)
from repro.parallel.worker import (
    ShardColumnsResult,
    WorkerStats,
    prepare_worker,
    run_shard_columns,
)

__all__ = [
    "ArenaHandle",
    "CampaignPlan",
    "ColumnArena",
    "ColumnBlock",
    "DeviceSpec",
    "FALLBACK_MIN_CELLS",
    "MAX_SHARD_KERNELS",
    "RowShard",
    "SHM_MIN_CELLS",
    "ShardColumnsResult",
    "WorkerPool",
    "WorkerStats",
    "collect_campaign_sharded",
    "collect_training_dataset_sharded",
    "pack_columns",
    "partition_kernel_rows",
    "plan_campaign",
    "prepare_worker",
    "resolve_workers",
    "run_shard_columns",
    "shared_pool",
    "should_fallback",
    "shutdown_shared_pool",
    "unpack_columns",
    "usable_cpu_count",
]
