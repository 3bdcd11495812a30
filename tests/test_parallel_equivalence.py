"""Differential harness for the measurement campaign, serial and sharded.

The contract under test: :func:`repro.core.dataset.collect_campaign` —
serial, or sharded over worker processes — must produce a
:class:`~repro.core.dataset.TrainingDataset` **and** a
:class:`~repro.core.dataset.CampaignReport` that compare ``==`` (dataclass
field equality — floats bitwise, not approximately) against the scalar
oracle (:func:`tests.oracles.scalar_campaign`), for

* all three Table-II device specs,
* serial and worker counts 1, 2 and 4,
* chaos off and on (an active transient :class:`~repro.driver.faults.FaultPlan`),
* telemetry off and on — traced campaigns must also reproduce the oracle's
  span tree and counters,
* any shard size,

plus the merge properties (shard results completing in any order merge to
the same campaign; a block must cover the grid; crashed cells become
skips), crash recovery (a dying worker degrades into the report's quality
flags instead of aborting), deterministic telemetry merging (the absorbed
trace is a pure function of the workload, not of the worker count) and the
campaign's typed boundary errors.

The matrix runs on a reduced (kernels x configs) tier so the whole file
stays in tier-1 time; ``--runslow`` adds the full-suite, full-grid sweep.
Because the reduced tier sits below the adaptive planner's
``FALLBACK_MIN_CELLS`` threshold, every sharded call here pins
``fallback="never"`` — the point is to exercise the sharded executor, not
the small-grid serial fallback (which has its own tests in
``test_parallel_transport.py``).
"""

from __future__ import annotations

import random
from concurrent.futures import Executor, Future

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MASTER_SEED
from repro.core.dataset import (
    KernelRowBlock,
    collect_campaign,
    collect_training_dataset,
    fault_snapshot,
    finish_campaign,
    measure_kernel_rows,
)
from repro.driver import faults as faultlib
from repro.driver.faults import FaultPlan
from repro.driver.session import ProfilingSession
from repro.errors import ValidationError
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import GTX_TITAN_X, TESLA_K40C, TITAN_XP
from repro.microbench import build_suite
from repro.parallel import (
    DeviceSpec,
    collect_campaign_sharded,
    partition_kernel_rows,
    resolve_workers,
)
from repro.telemetry import TraceRecorder
from tests.oracles import oracle_plan, scalar_campaign

SPECS = {
    "Titan Xp": TITAN_XP,
    "GTX Titan X": GTX_TITAN_X,
    "Tesla K40c": TESLA_K40C,
}
CHAOS_RATE = 0.05
#: Reduced tier: enough kernels to span several shards, enough configs to
#: exercise the batched grid measurement.
TIER_KERNELS = 10
TIER_CONFIGS = 8


def tier_kernels():
    return build_suite()[:TIER_KERNELS]


def tier_configs(spec):
    """Reference + a stride through the rest of the grid."""
    configs = spec.all_configurations()
    chosen = [spec.reference]
    stride = max(1, len(configs) // TIER_CONFIGS)
    for config in configs[::stride]:
        if config != spec.reference and len(chosen) < TIER_CONFIGS:
            chosen.append(config)
    return tuple(chosen)


def make_session(
    spec, chaos: bool, recorder=None, oracle: bool = False
) -> ProfilingSession:
    """A fresh session; ``oracle`` drops the clock-set faults the scalar
    walk would otherwise see (see :mod:`tests.oracles`)."""
    fault_plan = (
        FaultPlan.transient(CHAOS_RATE, seed=MASTER_SEED) if chaos else None
    )
    if oracle:
        fault_plan = oracle_plan(fault_plan)
    if recorder is None:
        gpu = SimulatedGPU(spec, fault_plan=fault_plan)
    else:
        gpu = SimulatedGPU(spec, fault_plan=fault_plan, recorder=recorder)
    return ProfilingSession(gpu)


#: Counters whose values legitimately differ between two campaign paths:
#: boards are rebuilt per task and the columnar measurement bypasses the
#: per-cell run cache (run.*), and the virtual-backoff counter is a float
#: running sum (grouping-sensitive in the last bits; the *report's*
#: backoff_seconds is exact because the executor replays the global sleep
#: sequence).
_NON_PORTABLE_COUNTERS = ("run.", "backoff.")


def _portable_counters(recorder):
    return {
        name: value
        for name, value in recorder.counters().items()
        if not name.startswith(_NON_PORTABLE_COUNTERS)
    }


@pytest.fixture(scope="module")
def serial_results():
    """Traced scalar-oracle campaign per (device, chaos), computed once:
    ``(dataset, report, recorder)``."""
    cache = {}

    def result_for(device_name: str, chaos: bool):
        key = (device_name, chaos)
        if key not in cache:
            spec = SPECS[device_name]
            recorder = TraceRecorder()
            session = make_session(spec, chaos, recorder=recorder, oracle=True)
            dataset, report = scalar_campaign(
                session, tier_kernels(), tier_configs(spec)
            )
            cache[key] = (dataset, report, recorder)
        return cache[key]

    return result_for


# ----------------------------------------------------------------------
# The differential matrix: 3 devices x {serial, workers 1, 2, 4} x chaos
# on/off x telemetry on/off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("device_name", sorted(SPECS))
@pytest.mark.parametrize("telemetry", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workers", [0, 1, 2, 4])
@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
class TestShardedEqualsSerial:
    def test_dataset_and_report_bitwise_equal(
        self, serial_results, device_name, workers, chaos, telemetry
    ):
        spec = SPECS[device_name]
        oracle_dataset, oracle_report, oracle_trace = serial_results(
            device_name, chaos
        )
        recorder = TraceRecorder() if telemetry else None
        session = make_session(spec, chaos, recorder=recorder)
        dataset, report = collect_campaign(
            session,
            tier_kernels(),
            tier_configs(spec),
            workers=workers,
            fallback="never",
        )
        # Dataclass == compares every float bitwise: rows, utilizations,
        # quality flags, fault tallies and the virtual backoff total.
        assert dataset == oracle_dataset
        assert report == oracle_report
        if telemetry:
            assert recorder.open_spans == 0
            assert recorder.span_tree() == oracle_trace.span_tree()
            assert _portable_counters(recorder) == _portable_counters(
                oracle_trace
            )


@pytest.mark.parametrize("shard_size", [1, 7, 1000])
def test_shard_size_never_changes_the_dataset(serial_results, shard_size):
    serial_dataset, serial_report, _ = serial_results("GTX Titan X", True)
    session = make_session(GTX_TITAN_X, True)
    dataset, report = collect_campaign(
        session,
        tier_kernels(),
        tier_configs(GTX_TITAN_X),
        workers=2,
        shard_size=shard_size,
        fallback="never",
    )
    assert dataset == serial_dataset
    assert report == serial_report


def test_collect_training_dataset_threads_workers(serial_results):
    serial_dataset, _, _ = serial_results("Tesla K40c", False)
    session = make_session(TESLA_K40C, False)
    dataset = collect_training_dataset(
        session,
        tier_kernels(),
        tier_configs(TESLA_K40C),
        workers=2,
        fallback="never",
    )
    assert dataset == serial_dataset


@pytest.mark.slow
def test_full_grid_full_suite_equivalence():
    """The non-reduced tier: every kernel x the whole V-F grid."""
    serial = collect_campaign(
        make_session(GTX_TITAN_X, True), build_suite()
    )
    sharded = collect_campaign(
        make_session(GTX_TITAN_X, True), build_suite(), workers=4
    )
    assert sharded[0] == serial[0]
    assert sharded[1] == serial[1]


# ----------------------------------------------------------------------
# Merge properties
# ----------------------------------------------------------------------
class _ShuffledFuture(Future):
    def __init__(self, executor: "ShuffledExecutor") -> None:
        super().__init__()
        self._executor = executor

    def result(self, timeout=None):
        self._executor.drain()
        return super().result(timeout)


class ShuffledExecutor(Executor):
    """In-process executor completing its futures in a seeded random order.

    Submitted tasks wait until some future's result is first asked for;
    then every pending task runs, in a shuffled order (submission order
    without a seed), so the executor's shard-order consumption sees
    futures that completed out of order.
    """

    def __init__(self, seed=None) -> None:
        self._rng = None if seed is None else random.Random(seed)
        self._pending = []
        self.completed = []

    def submit(self, fn, *args, **kwargs):
        future = _ShuffledFuture(self)
        self._pending.append((len(self._pending), future, fn, args, kwargs))
        return future

    def drain(self) -> None:
        pending, self._pending = self._pending, []
        if self._rng is not None:
            self._rng.shuffle(pending)
        for index, future, fn, args, kwargs in pending:
            try:
                future.set_result(fn(*args, **kwargs))
            except Exception as error:
                future.set_exception(error)
            self.completed.append(index)


def _shuffled_campaign(seed: int):
    recorder = TraceRecorder()
    session = make_session(TESLA_K40C, True, recorder=recorder)
    executor = ShuffledExecutor(seed)
    dataset, report = collect_campaign_sharded(
        session,
        tier_kernels(),
        tier_configs(TESLA_K40C),
        workers=2,
        shard_size=len(tier_configs(TESLA_K40C)),
        executor=executor,
    )
    return dataset, report, recorder, executor.completed


@pytest.fixture(scope="module")
def merge_inputs():
    """One chaos campaign's block, measured in-process, plus its grid."""
    spec = TESLA_K40C
    kernels = tier_kernels()
    configs = tier_configs(spec)
    session = make_session(spec, True)
    return session, kernels, configs, measure_kernel_rows(
        session, kernels, configs
    )


def _finish(session, kernels, configs, block):
    with session.recorder.span("campaign") as span:
        return finish_campaign(
            session, kernels, configs, block, span, fault_snapshot(session)
        )


class TestMergeProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_merge_is_invariant_under_shard_permutation(
        self, serial_results, seed
    ):
        oracle_dataset, oracle_report, _ = serial_results("Tesla K40c", True)
        _, _, in_order, _ = _shuffled_campaign(None)
        dataset, report, recorder, completed = _shuffled_campaign(seed)
        assert sorted(completed) == list(range(TIER_KERNELS))
        assert dataset == oracle_dataset
        assert report == oracle_report
        assert _normalized_trace(recorder) == _normalized_trace(in_order)
        assert recorder.counters() == in_order.counters()

    def test_merge_requires_full_cover(self, merge_inputs):
        session, kernels, configs, block = merge_inputs
        short = KernelRowBlock(
            utilizations=block.utilizations,
            watts=block.watts[:-1],
            core_mhz=block.core_mhz[:-1],
            memory_mhz=block.memory_mhz[:-1],
            quality=block.quality[:-1],
        )
        with pytest.raises(ValidationError, match="does not cover"):
            _finish(session, kernels, configs, short)

    def test_crashed_cells_become_skips_not_errors(self, merge_inputs):
        session, kernels, configs, block = merge_inputs
        assert block.utilizations[0] is not None
        full_dataset, full_report = _finish(session, kernels, configs, block)
        unreadable = faultlib.QUALITY_BITS[faultlib.UNREADABLE]
        crashed_quality = block.quality.copy()
        crashed_quality[:2] = unreadable
        crashed = KernelRowBlock(
            utilizations=block.utilizations,
            watts=block.watts,
            core_mhz=block.core_mhz,
            memory_mhz=block.memory_mhz,
            quality=crashed_quality,
        )
        dataset, report = _finish(session, kernels, configs, crashed)
        crashed_keys = {(kernels[0].name, configs[0]), (kernels[0].name, configs[1])}
        assert set(report.skipped_cells) == (
            set(full_report.skipped_cells) | crashed_keys
        )
        # Surviving rows are untouched, bitwise: the full campaign's rows
        # map one-to-one onto its readable cells, in grid order.
        n_configs = len(configs)
        readable = [
            cell
            for cell in range(len(block.quality))
            if block.utilizations[cell // n_configs] is not None
            and not block.quality[cell] & unreadable
        ]
        expected = [
            row
            for row, cell in zip(full_dataset.rows, readable)
            if cell >= 2
        ]
        assert list(dataset.rows) == expected


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_failed_shard_degrades_into_report_flags(self, serial_results):
        spec = TESLA_K40C
        serial_dataset, _, _ = serial_results("Tesla K40c", False)
        session = make_session(spec, False)
        configs = tier_configs(spec)
        dataset, report = collect_campaign_sharded(
            session,
            tier_kernels(),
            configs,
            workers=2,
            shard_size=7,
            fail_shards={1},
        )
        assert not report.complete
        # Columnar shards are whole kernel rows: shard_size=7 with 8
        # configs rounds down to one kernel per shard, so shard 1 is
        # exactly kernel #1's row and its crash skips that kernel's
        # every config.
        shards = partition_kernel_rows(
            TIER_KERNELS, max(1, 7 // len(configs))
        )
        crashed_kernels = [
            tier_kernels()[k]
            for k in range(
                shards[1].kernel_start,
                shards[1].kernel_start + shards[1].kernel_count,
            )
        ]
        crashed_names = {kernel.name for kernel in crashed_kernels}
        assert len(report.skipped_cells) == len(crashed_kernels) * len(
            configs
        )
        assert {name for name, _ in report.skipped_cells} == crashed_names
        # ...and every surviving row is bitwise identical to its serial twin.
        serial_rows = {
            (row.kernel_name, row.config): row for row in serial_dataset.rows
        }
        assert len(dataset.rows) == len(serial_dataset.rows) - len(
            report.skipped_cells
        )
        for row in dataset.rows:
            assert row.kernel_name not in crashed_names
            assert row == serial_rows[(row.kernel_name, row.config)]

    def test_every_shard_failing_raises(self):
        spec = TESLA_K40C
        session = make_session(spec, False)
        shards = partition_kernel_rows(TIER_KERNELS, 1)
        with pytest.raises(ValidationError, match="no usable rows"):
            collect_campaign_sharded(
                session,
                tier_kernels(),
                tier_configs(spec),
                workers=2,
                shard_size=len(tier_configs(spec)),
                fail_shards=set(range(len(shards))),
            )

    def test_worker_validation(self):
        session = make_session(TESLA_K40C, False)
        with pytest.raises(ValidationError):
            collect_campaign_sharded(
                session, tier_kernels(), tier_configs(TESLA_K40C), workers=0
            )
        with pytest.raises(ValidationError):
            collect_campaign_sharded(session, [], workers=2)


def _serial(session, configs):
    return collect_campaign(session, tier_kernels(), configs)


def _sharded(session, configs):
    return collect_campaign(
        session, tier_kernels(), configs, workers=2, fallback="never"
    )


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(
            lambda s: collect_campaign(s, tier_kernels(), fallback="bogus"),
            "fallback",
            id="serial-fallback-mode",
        ),
        pytest.param(
            lambda s: collect_campaign(s, tier_kernels(), workers=1.5),
            "workers",
            id="campaign-fractional-workers",
        ),
        pytest.param(
            lambda s: resolve_workers(1.5), "workers", id="fractional"
        ),
        pytest.param(lambda s: resolve_workers(True), "workers", id="bool"),
        # Serial and sharded campaigns reject an empty grid identically.
        pytest.param(
            lambda s: _serial(s, []),
            "^no configurations",
            id="serial-no-configs",
        ),
        pytest.param(
            lambda s: _sharded(s, []),
            "^no configurations",
            id="sharded-no-configs",
        ),
    ],
)
def test_boundary_inputs_raise_validation_error(call, match):
    with pytest.raises(ValidationError, match=match):
        call(make_session(TESLA_K40C, False))


# ----------------------------------------------------------------------
# Telemetry determinism
# ----------------------------------------------------------------------
def _normalized_trace(recorder):
    """Finished spans as comparable tuples, minus the campaign's honest
    ``workers`` annotation (the one field allowed to vary with the pool)."""
    spans = []
    for span in recorder.finished_spans():
        attributes = dict(span.attributes)
        if span.name == "campaign":
            attributes.pop("workers", None)
        spans.append(
            (
                span.span_id,
                span.parent_id,
                span.name,
                span.start_tick,
                span.end_tick,
                tuple(sorted((k, repr(v)) for k, v in attributes.items())),
            )
        )
    return spans


class TestTelemetryMerge:
    def _traced_campaign(self, workers):
        recorder = TraceRecorder()
        session = make_session(GTX_TITAN_X, True, recorder=recorder)
        collect_campaign(
            session,
            tier_kernels(),
            tier_configs(GTX_TITAN_X),
            workers=workers,
            fallback="never",
        )
        assert recorder.open_spans == 0
        return recorder

    def test_merged_trace_is_worker_count_invariant(self):
        traces = {w: self._traced_campaign(w) for w in (1, 2, 4)}
        reference = _normalized_trace(traces[1])
        assert _normalized_trace(traces[2]) == reference
        assert _normalized_trace(traces[4]) == reference
        assert traces[2].counters() == traces[1].counters()
        assert traces[4].counters() == traces[1].counters()

    def test_sharded_counters_match_serial(self):
        serial = self._traced_campaign(0)
        sharded = self._traced_campaign(2)
        assert _portable_counters(sharded) == _portable_counters(serial)
        # The load-bearing campaign counters, by name:
        for counter in ("rows.collected", "faults.injected"):
            assert sharded.counters()[counter] == serial.counters()[counter]


# ----------------------------------------------------------------------
# DeviceSpec round-trip
# ----------------------------------------------------------------------
class TestDeviceSpec:
    def test_session_round_trip_preserves_measurements(self):
        session = make_session(TITAN_XP, True)
        device = session.device_spec()
        rebuilt = device.build_session()
        kernel = tier_kernels()[0]
        config = tier_configs(TITAN_XP)[1]
        assert rebuilt.gpu.spec == session.gpu.spec
        assert rebuilt.settings == session.settings
        assert rebuilt.fault_plan == session.fault_plan
        assert rebuilt.measure_power(kernel, config) == session.measure_power(
            kernel, config
        )

    def test_pickle_round_trip(self):
        import pickle

        session = make_session(GTX_TITAN_X, True)
        device = DeviceSpec.from_session(session)
        clone = pickle.loads(pickle.dumps(device))
        assert clone == device
        rebuilt = clone.build_session()
        kernel = tier_kernels()[2]
        assert rebuilt.measure_power(kernel) == session.measure_power(kernel)

    def test_telemetry_flag_builds_live_recorder(self):
        recorder = TraceRecorder()
        session = make_session(TESLA_K40C, False, recorder=recorder)
        device = DeviceSpec.from_session(session)
        assert device.telemetry
        rebuilt = device.build_session()
        assert rebuilt.recorder.enabled
        quiet = DeviceSpec.from_session(make_session(TESLA_K40C, False))
        assert not quiet.telemetry
        assert not quiet.build_session().recorder.enabled
