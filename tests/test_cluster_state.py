"""Incremental cluster state: the views and the differential oracle.

:class:`~repro.cluster.state.FreeNodes` and
:class:`~repro.cluster.state.PendingJobs` must always equal what a
from-scratch sort would give, and the simulator that maintains them
event by event must report and count exactly what the full-scan
reference loop (``tests/oracles.py``) does — every scheduler, with and
without node churn, over hypothesis-drawn traces and fleets.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterSimulator,
    DeviceOracle,
    NodeFailurePlan,
    build_fleet,
    fleet_reference_seconds,
    generate_job_trace,
    scheduler_by_name,
)
from repro.cluster.jobs import Job
from repro.cluster.schedulers import SCHEDULER_NAMES
from repro.cluster.state import FreeNodes, PendingJobs
from repro.errors import ValidationError
from repro.telemetry import TraceRecorder
from tests.oracles import full_scan_cluster_run

DEVICES = ("GTX Titan X", "Tesla K40c", "Titan Xp")
N_KERNELS = 5


@pytest.fixture(scope="module")
def kernels(lab):
    return tuple(lab.workloads("Titan Xp"))[:N_KERNELS]


@pytest.fixture(scope="module")
def oracles(lab, kernels):
    return {
        device: DeviceOracle.fit(device, kernels, lab=lab) for device in DEVICES
    }


@pytest.fixture(scope="module")
def references(oracles, kernels):
    return fleet_reference_seconds(
        [oracles[device] for device in DEVICES], kernels
    )


@st.composite
def fleet_mixes(draw):
    """1-3 device types, 1-40 nodes in total, every type present."""
    devices = draw(
        st.lists(st.sampled_from(DEVICES), min_size=1, max_size=3, unique=True)
    )
    per_device = st.integers(1, 40 // len(devices))
    return {device: draw(per_device) for device in devices}


def _job(job_id, arrival, deadline, kernel):
    return Job(
        job_id=job_id,
        kernel=kernel,
        arrival_s=arrival,
        invocations=1,
        deadline_s=deadline,
    )


class TestFreeNodes:
    @pytest.fixture(scope="class")
    def fleet(self, oracles):
        return build_fleet(
            oracles, {"Titan Xp": 3, "GTX Titan X": 2, "Tesla K40c": 1}
        )

    def test_pools_are_name_sorted_per_device(self, fleet):
        free = FreeNodes(fleet, fleet)
        assert len(free) == len(fleet)
        pools = free.pools()
        assert [device for device, _ in pools] == sorted(DEVICES)
        for device, pool in pools:
            names = [free.fleet[index].name for index in pool]
            assert names == sorted(
                node.name for node in fleet if node.device_name == device
            )

    def test_remove_add_round_trip(self, fleet):
        free = FreeNodes(fleet, fleet)
        assert free.remove(4)
        assert not free.remove(4)
        assert 4 not in list(free.in_name_order())
        free.add(4)
        assert list(free.in_name_order()) == list(range(len(fleet)))
        with pytest.raises(ValidationError, match="already free"):
            free.add(4)

    def test_exhausted_pools_are_hidden(self, fleet):
        free = FreeNodes(fleet, [fleet[0]])
        assert len(free) == 1
        assert free.pools() == [(fleet[0].device_name, [0])]

    def test_position_rejects_foreign_nodes(self, fleet, oracles):
        free = FreeNodes(fleet, fleet)
        assert free.position(fleet[2]) == 2
        impostor = build_fleet(oracles, {"Titan Xp": 1})[0]
        assert impostor.name == "titan-xp-0000"
        assert free.position(impostor) is None

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 5)), max_size=40)
    )
    def test_matches_a_fresh_scan(self, fleet, ops):
        free = FreeNodes(fleet, fleet)
        is_free = [True] * len(fleet)
        for take, index in ops:
            if take:
                assert free.remove(index) == is_free[index]
                is_free[index] = False
            elif not is_free[index]:
                free.add(index)
                is_free[index] = True
            fresh = FreeNodes(
                fleet, [node for node, ok in zip(fleet, is_free) if ok]
            )
            assert free.pools() == fresh.pools()
            assert len(free) == sum(is_free)
            assert list(free.in_name_order()) == [
                index for index, ok in enumerate(is_free) if ok
            ]


class TestPendingJobs:
    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 4)),
            min_size=1,
            max_size=30,
        ),
        removals=st.lists(st.integers(0, 29), max_size=30),
    )
    def test_orders_match_a_full_sort(self, kernels, times, removals):
        jobs = [
            _job(job_id, float(arrival), float(arrival + slack), kernels[0])
            for job_id, (arrival, slack) in enumerate(times)
        ]
        pending = PendingJobs()
        for job in reversed(jobs):
            pending.add(job)
        alive = list(jobs)
        for job_id in removals:
            job = jobs[job_id % len(jobs)]
            assert pending.remove(job) == (job in alive)
            if job in alive:
                alive.remove(job)
        assert len(pending) == len(alive)
        assert list(pending.edf()) == sorted(
            alive, key=lambda j: (j.deadline_s, j.arrival_s, j.job_id)
        )
        assert list(pending.fifo()) == sorted(
            alive, key=lambda j: (j.arrival_s, j.job_id)
        )


def _run_both(oracles, kernels, references, name, mix, seed, n_jobs, churn):
    trace = generate_job_trace(
        "burst", n_jobs, seed, kernels, references, horizon_s=1.0
    )
    plan = (
        NodeFailurePlan(mtbf_s=0.2, mttr_s=0.05, seed=seed) if churn else None
    )
    fleet = build_fleet(oracles, mix)
    incremental_recorder, reference_recorder = TraceRecorder(), TraceRecorder()
    incremental = ClusterSimulator(
        fleet,
        scheduler_by_name(name),
        recorder=incremental_recorder,
        failure_plan=plan,
    ).run(trace)
    reference = full_scan_cluster_run(
        fleet,
        scheduler_by_name(name),
        trace,
        recorder=reference_recorder,
        failure_plan=plan,
    )
    return (
        (incremental, incremental_recorder.counters()),
        (reference, reference_recorder.counters()),
    )


class TestDifferentialOracle:
    @pytest.mark.parametrize("churn", [False, True], ids=["calm", "churn"])
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    @settings(max_examples=12, deadline=None)
    @given(
        mix=fleet_mixes(),
        seed=st.integers(0, 2**31 - 1),
        n_jobs=st.integers(1, 80),
    )
    def test_incremental_matches_full_scan(
        self, oracles, kernels, references, name, churn, mix, seed, n_jobs
    ):
        (report, counters), (expected, expected_counters) = _run_both(
            oracles, kernels, references, name, mix, seed, n_jobs, churn
        )
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            expected.to_dict(), sort_keys=True
        )
        assert counters == expected_counters

    def test_churn_is_exercised(self, oracles, kernels, references):
        (report, counters), _ = _run_both(
            oracles,
            kernels,
            references,
            "edf",
            {"Titan Xp": 4, "Tesla K40c": 3},
            seed=7,
            n_jobs=80,
            churn=True,
        )
        assert report.node_failures > 0
        assert report.rescheduled > 0
        assert counters["cluster.node_recoveries"] > 0
