"""Shared pieces of the benchmark workloads."""

from __future__ import annotations

import math
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: The paper's three devices, in the order it reports them.
DEVICES = ("Titan Xp", "GTX Titan X", "Tesla K40c")


@dataclass
class PassResult:
    """What one cold pass of a workload did.

    ``fixed`` holds the deterministic outputs (simulated quantities,
    exact counts): every pass of one seed must reproduce them bit for
    bit. ``layers`` holds the per-layer values, filled on traced passes.
    """

    #: ``perf_counter()`` when the timed pass began.
    started: float
    wall_s: float
    ops: int
    latencies_ms: List[float]
    attempted: int
    failed: int
    fixed: Dict[str, object]
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Reference-host seconds of the pass and the factor from this host's
    #: seconds to them (see hostspeed.py); filled in by the runner.
    seconds: float = 0.0
    scale: float = 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``ru_maxrss`` is in KiB on Linux. Children count once they have been
    waited for, which the sharded campaign's pool shutdown does.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _child_pids() -> List[int]:
    """Processes whose parent is this one, from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap(pid: int, deadline: float) -> bool:
    """Wait for ``pid`` until ``deadline``; True once it has ended."""
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait for each to end.

    The sharded campaign leaves a worker pool, and its shared-memory
    transport starts multiprocessing's resource tracker, a process that
    otherwise outlives the run. The pool is shut down first: forked
    workers hold the tracker's pipe open, and the tracker only ends once
    every holder has closed it. Then the tracker is asked to stop (it
    releases any leaked segment), and whatever child is still alive gets
    SIGTERM, then SIGKILL after ``grace_s``.
    """
    pool = sys.modules.get("repro.parallel.pool")
    if pool is not None:
        pool.shutdown_shared_pool()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    pids = _child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in pids:
        if not _reap(pid, deadline):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _reap(pid, float("inf"))
