"""Adaptive campaign planning: workers, shard width, transport, fallback.

The zero-copy sharded executor only pays off when the grid is large enough
to amortize worker startup and shared-memory plumbing. This module is the
single place those thresholds live: it resolves ``workers="auto"`` against
the cores this process may actually use (CPU affinity, not just the node's
core count), decides when a requested parallel campaign should silently
fall back to the serial path (small grids — the Tesla K40c case), picks an
adaptive whole-kernel-row shard width from the grid dimensions, and chooses
the result transport (shared-memory arena for big payloads, plain byte
blobs below :data:`SHM_MIN_CELLS`).

Every decision is a pure function of (grid dimensions, worker count,
explicit overrides) — never of scheduling, load or wall-clock — so planning
cannot perturb the campaign's bitwise determinism contract.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ValidationError

__all__ = [
    "FALLBACK_MIN_CELLS",
    "MAX_SHARD_KERNELS",
    "SHM_MIN_CELLS",
    "CampaignPlan",
    "plan_campaign",
    "resolve_workers",
    "should_fallback",
    "usable_cpu_count",
]

#: Grids below this many cells run serially under ``fallback="auto"``:
#: worker startup + transport overhead beats any per-cell saving. The
#: Tesla K40c's full grid (4 x 83 = 332 cells per kernel row of 83
#: configs, ~1k cells for a 12-kernel campaign) sits near the break-even
#: point on one core; the threshold keeps tiny test grids serial.
FALLBACK_MIN_CELLS = 512

#: Below this many cells per campaign the merged columns fit comfortably in
#: a few pickled byte blobs; the shared-memory arena only wins once slices
#: get large enough that an extra copy per shard is measurable.
SHM_MIN_CELLS = 4096

#: Widest adaptive shard, in kernel rows, so a huge campaign still
#: pipelines. Traced campaigns always use this width: their partition must
#: not follow the worker count (see :mod:`repro.parallel.executor`).
MAX_SHARD_KERNELS = 4


def usable_cpu_count() -> int:
    """Cores this process may schedule on (affinity-aware).

    ``os.cpu_count()`` reports the node; a container or ``taskset`` may
    grant fewer. Falls back to the node count where affinity is not
    exposed (macOS).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: Union[int, str]) -> int:
    """Turn a ``--workers`` value (int or ``"auto"``) into a worker count."""
    if workers == "auto":
        return usable_cpu_count()
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral):
        raise ValidationError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def should_fallback(n_kernels: int, n_configs: int, workers: int) -> bool:
    """Whether a requested parallel campaign should run serially instead."""
    if workers < 2:
        return True
    return n_kernels * n_configs < FALLBACK_MIN_CELLS


@dataclass(frozen=True)
class CampaignPlan:
    """One campaign's execution shape, decided up front.

    ``shard_kernels`` is the shard width in whole kernel rows (shards
    always carry whole rows so workers drive the batched grid measurement
    at full width); ``transport`` picks how column slices travel
    back (``"shm"`` arena or pickled ``"bytes"``); ``reason`` is a
    human-readable one-liner for logs and tests.
    """

    workers: int
    shard_kernels: int
    transport: str
    reason: str


def plan_campaign(
    n_kernels: int,
    n_configs: int,
    workers: Union[int, str],
    *,
    shard_size: Optional[int] = None,
    transport: Optional[str] = None,
) -> CampaignPlan:
    """Pick shard width and transport for one columnar sharded campaign.

    ``shard_size`` (cells) is the explicit override — rounded down to
    whole kernel rows, minimum one row. Without it the width adapts to the
    grid: enough shards to feed every worker about twice, capped at
    :data:`MAX_SHARD_KERNELS` rows so a huge campaign still pipelines.
    """
    resolved = resolve_workers(workers)
    if shard_size is not None:
        if shard_size < 1:
            raise ValidationError(
                f"shard size must be >= 1, got {shard_size}"
            )
        shard_kernels = max(1, shard_size // max(n_configs, 1))
        reason = f"explicit shard_size={shard_size}"
    else:
        # ~2 shards per worker balances pipelining against per-task cost;
        # pure function of (grid, workers) so the partition is stable.
        adaptive = math.ceil(n_kernels / max(resolved * 2, 1)) or 1
        shard_kernels = max(1, min(MAX_SHARD_KERNELS, adaptive))
        reason = f"adaptive for {n_kernels}x{n_configs} at {resolved} workers"
    if transport is None:
        transport = (
            "shm" if n_kernels * n_configs >= SHM_MIN_CELLS else "bytes"
        )
    elif transport not in ("shm", "bytes"):
        raise ValidationError(
            f"transport must be 'shm' or 'bytes', got {transport!r}"
        )
    return CampaignPlan(
        workers=resolved,
        shard_kernels=shard_kernels,
        transport=transport,
        reason=reason,
    )
