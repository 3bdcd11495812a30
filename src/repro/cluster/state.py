"""The simulator's incrementally maintained views of fleet and queue.

Both views are kept in a deterministic order with :mod:`bisect`, so an
event costs O(log n) bookkeeping instead of a scan or a re-sort:

* :class:`FreeNodes` — the free nodes of a name-sorted fleet, as one
  sorted list of fleet indices per device type. Index order is name
  order, so "the first free node of a device type" is a pool's head.
* :class:`PendingJobs` — the pending queue in EDF order
  ``(deadline_s, arrival_s, job_id)`` and in FIFO order
  ``(arrival_s, job_id)``, each a pair of parallel key/job lists.

:class:`~repro.cluster.simulator.ClusterSimulator` owns one of each per
run and updates them on dispatch, completion, failure and recovery;
schedulers receive them read-only.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.jobs import Job
from repro.cluster.node import GPUNode
from repro.errors import ValidationError

__all__ = ["FreeNodes", "PendingJobs"]


class FreeNodes:
    """Free nodes of one fleet, pooled by device type.

    ``fleet`` must be name-sorted (the simulator's ``nodes``); ``free``
    is the subset of it that starts free. Every pool is an ascending
    list of indices into ``fleet``.
    """

    __slots__ = ("fleet", "_position", "_device", "_pools", "_count")

    def __init__(
        self, fleet: Sequence[GPUNode], free: Iterable[GPUNode]
    ) -> None:
        self.fleet: Tuple[GPUNode, ...] = tuple(fleet)
        self._position: Dict[GPUNode, int] = {
            node: index for index, node in enumerate(self.fleet)
        }
        self._device: List[str] = [node.device_name for node in self.fleet]
        self._pools: Dict[str, List[int]] = {
            device: [] for device in sorted(set(self._device))
        }
        self._count = 0
        for node in free:
            self.add(self._position[node])

    def __len__(self) -> int:
        return self._count

    def position(self, node: GPUNode) -> Optional[int]:
        """``node``'s index in the fleet, or None if it is not a member."""
        return self._position.get(node)

    def add(self, index: int) -> None:
        """Mark fleet node ``index`` free."""
        pool = self._pools[self._device[index]]
        at = bisect_left(pool, index)
        if at < len(pool) and pool[at] == index:
            name = self.fleet[index].name
            raise ValidationError(f"node {name!r} is already free")
        pool.insert(at, index)
        self._count += 1

    def remove(self, index: int) -> bool:
        """Mark fleet node ``index`` taken; False if it was not free."""
        pool = self._pools[self._device[index]]
        at = bisect_left(pool, index)
        if at == len(pool) or pool[at] != index:
            return False
        del pool[at]
        self._count -= 1
        return True

    def pools(self) -> List[Tuple[str, Sequence[int]]]:
        """``(device, free indices)`` for every device with a free node,
        in device-name order. The index lists must not be mutated."""
        return [(device, pool) for device, pool in self._pools.items() if pool]

    def in_name_order(self) -> Iterator[int]:
        """Every free index, in node-name order (a lazy merge of pools)."""
        return heapq.merge(*self._pools.values())


def _edf_key(job: Job) -> Tuple[float, float, int]:
    return (job.deadline_s, job.arrival_s, job.job_id)


def _fifo_key(job: Job) -> Tuple[float, int]:
    return (job.arrival_s, job.job_id)


class PendingJobs:
    """The pending queue, kept in both EDF and FIFO order."""

    __slots__ = ("_edf_keys", "_edf", "_fifo_keys", "_fifo")

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        self._edf_keys: List[Tuple[float, float, int]] = []
        self._edf: List[Job] = []
        self._fifo_keys: List[Tuple[float, int]] = []
        self._fifo: List[Job] = []
        for job in jobs:
            self.add(job)

    def __len__(self) -> int:
        return len(self._edf)

    def add(self, job: Job) -> None:
        key = _edf_key(job)
        at = bisect_left(self._edf_keys, key)
        self._edf_keys.insert(at, key)
        self._edf.insert(at, job)
        key = _fifo_key(job)
        at = bisect_left(self._fifo_keys, key)
        self._fifo_keys.insert(at, key)
        self._fifo.insert(at, job)

    def remove(self, job: Job) -> bool:
        """Take ``job`` off the queue; False if it was not pending."""
        key = _edf_key(job)
        at = bisect_left(self._edf_keys, key)
        if at == len(self._edf_keys) or self._edf_keys[at] != key:
            return False
        del self._edf_keys[at]
        del self._edf[at]
        at = bisect_left(self._fifo_keys, _fifo_key(job))
        del self._fifo_keys[at]
        del self._fifo[at]
        return True

    def edf(self) -> Sequence[Job]:
        """Pending jobs by ``(deadline_s, arrival_s, job_id)``; read-only."""
        return self._edf

    def fifo(self) -> Sequence[Job]:
        """Pending jobs by ``(arrival_s, job_id)``; read-only."""
        return self._fifo
