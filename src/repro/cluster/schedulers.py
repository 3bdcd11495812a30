"""Pluggable fleet schedulers: who runs next, where, and at what clocks.

A scheduler sees the pending queue, the free nodes and the virtual clock
— the simulator's :class:`~repro.cluster.state.PendingJobs` and
:class:`~repro.cluster.state.FreeNodes` views, read-only — and returns
assignments: each one a (job, node, V-F configuration) triple plus the
model's predictions for it. All decisions run on the shared
:class:`~repro.cluster.node.DeviceOracle` tables, so placing a job on a
fleet of thousands of nodes costs one lookup per *device type*, not per
node: within a type, nodes are interchangeable and the name-first free
node not yet used in this call is taken (a per-device cursor over the
free pool; a deterministic tie-break, like every other ordering here).

The four strategies:

* :class:`MaxClocksFifoScheduler` — the datacenter default and the bench
  baseline: FIFO order, every job at the device's maximum clocks.
* :class:`EnergyGreedyScheduler` — FIFO order, but each job is planned by
  the runtime layer's :class:`~repro.runtime.policies.EnergyPolicy`
  through a real :class:`~repro.runtime.manager.OnlineDVFSManager`, and
  placed on the device type with the lowest predicted job energy.
  Deadline-blind: maximum savings, worst miss rate.
* :class:`DeadlineAwareEdfScheduler` — earliest deadline first; per job
  the cheapest configuration *predicted to make the deadline* (an energy
  frontier binary search per device type), falling back to the fastest
  configuration when no candidate fits the remaining budget.
* :class:`PowerCappedEdfScheduler` — EDF under a fleet power-budget: the
  frontier only admits configurations predicted under ``cap_watts``;
  when none fits, the choice defers to the runtime layer's
  :class:`~repro.runtime.policies.PowerCapPolicy` fallback.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.analysis.dvfs import ConfigurationScore
from repro.cluster.jobs import Job
from repro.cluster.node import EnergyFrontier, GPUNode
from repro.cluster.state import FreeNodes, PendingJobs
from repro.errors import ValidationError
from repro.runtime.policies import EnergyPolicy, PowerCapPolicy

__all__ = [
    "Assignment",
    "Scheduler",
    "MaxClocksFifoScheduler",
    "EnergyGreedyScheduler",
    "DeadlineAwareEdfScheduler",
    "PowerCappedEdfScheduler",
    "SCHEDULER_NAMES",
    "scheduler_by_name",
]


@dataclass(frozen=True)
class Assignment:
    """One dispatch decision with the oracle's predictions attached."""

    job: Job
    node: GPUNode
    score: ConfigurationScore

    @property
    def predicted_seconds(self) -> float:
        """Predicted duration of the full job (all invocations)."""
        return self.score.time_seconds * self.job.invocations

    @property
    def predicted_energy_joules(self) -> float:
        return self.score.energy_joules * self.job.invocations


class Scheduler(abc.ABC):
    """Strategy interface: turn (pending, free, now) into assignments.

    ``pending`` and ``free_nodes`` are the simulator's live
    :class:`~repro.cluster.state.PendingJobs` and
    :class:`~repro.cluster.state.FreeNodes` views: read them, never
    mutate them. Implementations must be pure functions of their
    arguments and their own configuration — no wall clock, no unseeded
    randomness — so that same-seed simulations replay bitwise-identically.
    """

    name: str = "scheduler"

    @abc.abstractmethod
    def dispatch(
        self, pending: PendingJobs, free_nodes: FreeNodes, now: float
    ) -> List[Assignment]:
        """Assignments for distinct pending jobs on distinct free nodes."""


def _place(
    jobs: Iterable[Job],
    free_nodes: FreeNodes,
    rank: Callable[[Job, GPUNode], Tuple[tuple, ConfigurationScore]],
) -> List[Assignment]:
    """Place ``jobs`` in order, each on the device type ``rank`` prefers.

    Per device type a cursor walks its free pool: ``rank(job, node)``
    scores the first node not yet used in this call as ``(key, score)``,
    the lowest ``(key, device)`` wins and that device's cursor advances.
    The walk ends when every free node is used.
    """
    fleet = free_nodes.fleet
    pools = free_nodes.pools()
    cursors = [0] * len(pools)
    left = len(free_nodes)
    assignments: List[Assignment] = []
    for job in jobs:
        if not left:
            break
        best = None
        for slot, (device, pool) in enumerate(pools):
            at = cursors[slot]
            if at == len(pool):
                continue
            node = fleet[pool[at]]
            key, score = rank(job, node)
            if best is None or (key, device) < best[:2]:
                best = (key, device, slot, node, score)
        _, _, slot, node, score = best
        cursors[slot] += 1
        left -= 1
        assignments.append(Assignment(job=job, node=node, score=score))
    return assignments


class MaxClocksFifoScheduler(Scheduler):
    """FIFO at maximum clocks — the no-model datacenter baseline."""

    name = "max-clocks"

    def dispatch(self, pending, free_nodes, now):
        fleet = free_nodes.fleet
        assignments: List[Assignment] = []
        for job, index in zip(pending.fifo(), free_nodes.in_name_order()):
            node = fleet[index]
            score = node.oracle.score_at(job.kernel, node.spec.max_configuration)
            assignments.append(Assignment(job=job, node=node, score=score))
        return assignments


@dataclass
class EnergyGreedyScheduler(Scheduler):
    """FIFO order, min-predicted-energy placement and clocks.

    Each (kernel, device) plan comes from a cached
    :class:`~repro.runtime.manager.OnlineDVFSManager` running
    :class:`~repro.runtime.policies.EnergyPolicy` — the same planning
    path the single-node runtime layer ships, lifted to fleet placement.
    """

    max_slowdown: Optional[float] = None
    name: str = field(default="energy-greedy", init=False)

    def dispatch(self, pending, free_nodes, now):
        policy = EnergyPolicy(max_slowdown=self.max_slowdown)

        def rank(job, node):
            chosen = node.oracle.manager(policy).plan_for(job.kernel).chosen
            return (chosen.energy_joules,), chosen

        return _place(pending.fifo(), free_nodes, rank)


class DeadlineAwareEdfScheduler(Scheduler):
    """Earliest deadline first, cheapest configuration that makes it.

    Per job and device type: binary-search the kernel's energy frontier
    for the min-predicted-energy configuration whose predicted job
    duration fits the remaining deadline budget; place on the device
    type minimizing predicted energy among the feasible, else minimize
    predicted lateness with the fastest configuration anywhere.
    """

    name = "edf"

    def _frontier(self, node: GPUNode, job: Job):
        return node.oracle.frontier(job.kernel)

    def dispatch(self, pending, free_nodes, now):
        def rank(job, node):
            frontier = self._frontier(node, job)
            budget = (job.deadline_s - now) / job.invocations
            score = frontier.best_within(budget)
            if score is not None:
                return (0, score.energy_joules), score
            # Tier 1 (least lateness) wins only if no device is feasible.
            fastest = frontier.fastest
            return (1, fastest.time_seconds), fastest

        return _place(pending.edf(), free_nodes, rank)


@dataclass
class PowerCappedEdfScheduler(DeadlineAwareEdfScheduler):
    """EDF whose candidate set is bounded by a per-node power cap.

    The frontier admits only configurations predicted under
    ``cap_watts``; if the cap excludes the whole grid the choice falls
    back to :class:`~repro.runtime.policies.PowerCapPolicy`, i.e. the
    minimum-predicted-power configuration.
    """

    cap_watts: float = 200.0
    name: str = field(default="powercap-edf", init=False)

    def __post_init__(self) -> None:
        if self.cap_watts <= 0:
            raise ValidationError("power cap must be positive")

    def _frontier(self, node: GPUNode, job: Job):
        oracle = node.oracle
        scores = oracle.scores(job.kernel)
        if all(s.predicted_power_watts > self.cap_watts for s in scores):
            # Nothing fits the cap: defer to the runtime layer's policy
            # (min predicted power) and pin the frontier to that choice.
            policy = PowerCapPolicy(cap_watts=self.cap_watts)
            reference = oracle.score_at(job.kernel, oracle.spec.reference)
            chosen = policy.choose(list(scores), reference)
            return EnergyFrontier.build([chosen])
        return oracle.frontier(job.kernel, cap_watts=self.cap_watts)


#: Registry order mirrors the report columns.
SCHEDULER_NAMES: Tuple[str, ...] = (
    "max-clocks",
    "energy-greedy",
    "edf",
    "powercap-edf",
)


def scheduler_by_name(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler from its registry name."""
    registry = {
        "max-clocks": MaxClocksFifoScheduler,
        "energy-greedy": EnergyGreedyScheduler,
        "edf": DeadlineAwareEdfScheduler,
        "powercap-edf": PowerCappedEdfScheduler,
    }
    if name not in registry:
        raise ValidationError(
            f"unknown scheduler {name!r} (known: {sorted(registry)})"
        )
    return registry[name](**kwargs)
