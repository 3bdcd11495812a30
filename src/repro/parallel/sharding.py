"""Deterministic partitioning of the (kernel x configuration) grid.

The measurement grid is flattened kernel-major — exactly the order the
serial campaign walks it — and chunked into shards of whole kernel rows.
The partition is a pure function of ``(n_kernels, shard_kernels)``:
scheduling never influences which cells land in which shard, which is half
of the sharded campaign's determinism contract (the other half is the
label-seeded noise/fault substrate, see :mod:`repro.parallel.spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ValidationError

__all__ = ["RowShard", "partition_kernel_rows"]


@dataclass(frozen=True)
class RowShard:
    """A contiguous run of whole kernel rows — one campaign shard.

    The executor always shards on whole rows: each worker then drives the
    batched grid measurement at full width and its column slice is one
    contiguous arena range, ``[kernel_start * n_configs, (kernel_start +
    kernel_count) * n_configs)``.
    """

    index: int
    kernel_start: int
    kernel_count: int

    def row_range(self, n_configs: int) -> Tuple[int, int]:
        """The shard's global cell range as ``(start, stop)``."""
        start = self.kernel_start * n_configs
        return start, start + self.kernel_count * n_configs


def partition_kernel_rows(
    n_kernels: int, shard_kernels: int
) -> Tuple[RowShard, ...]:
    """Split ``n_kernels`` rows into shards of ``shard_kernels`` rows.

    A pure function of its arguments — scheduling never shifts shard
    boundaries.
    """
    if n_kernels < 0:
        raise ValidationError(
            f"kernel count must be non-negative, got {n_kernels}"
        )
    if shard_kernels < 1:
        raise ValidationError(
            f"shard width must be >= 1 kernel row, got {shard_kernels}"
        )
    return tuple(
        RowShard(
            index=index,
            kernel_start=start,
            kernel_count=min(shard_kernels, n_kernels - start),
        )
        for index, start in enumerate(range(0, n_kernels, shard_kernels))
    )
