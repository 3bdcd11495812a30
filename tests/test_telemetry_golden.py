"""Golden-trace regression tests.

A quick campaign (6 microbenchmarks, ~6 configurations) plus a model fit is
traced on each of the three simulated devices, and the resulting telemetry
is pinned exactly: span-tree shape, counter totals, virtual-clock tick
count, and the SHA-256 of the exported JSONL bytes. Any drift in the
pipeline's *behavior* — an extra retry, a reordered measurement, a changed
iteration count, a different export encoding — fails here even when the
numeric outputs still look right.

The traces are deterministic by construction (virtual clock + MASTER_SEED),
so the golden values are exact, not tolerances. When a deliberate pipeline
change shifts them, regenerate by running the campaign below and updating
GOLDEN (the failure message prints the observed values).
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.core.dataset import collect_campaign
from repro.core.estimation import ModelEstimator
from repro.driver.session import ProfilingSession
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.specs import ALL_GPUS, gpu_spec_by_name
from repro.microbench import build_suite
from repro.telemetry import TraceRecorder, to_jsonl

SPEC_IDS = [spec.name for spec in ALL_GPUS]

#: Pinned per-device trace facts (generated by running ``_traced_run``).
GOLDEN = {
    "Titan Xp": {
        "span_counts": {
            "campaign": 1,
            "cell": 36,
            "estimate": 1,
            "iteration": 46,
            "measure": 6,
            "profile": 6,
        },
        "counters": {
            "cupti.collections": 6.0,
            "estimator.iterations": 46.0,
            "rows.collected": 36.0,
            "run.cache_misses": 6.0,
        },
        "ticks": 192,
        "sha256": (
            "a74bad8bf223dc6d3fdb4ef14235cf8a"
            "c4fc6b8e685c3a3e20350d4bb5c59629"
        ),
    },
    "GTX Titan X": {
        "span_counts": {
            "campaign": 1,
            "cell": 36,
            "estimate": 1,
            "iteration": 17,
            "measure": 6,
            "profile": 6,
        },
        "counters": {
            "cupti.collections": 6.0,
            "estimator.iterations": 17.0,
            "rows.collected": 36.0,
            "run.cache_misses": 6.0,
        },
        "ticks": 134,
        "sha256": (
            "19a0280b8bd9de0e0d0de2c1d6c2cb17"
            "755984a8ed499a8c86176eee47175161"
        ),
    },
    "Tesla K40c": {
        "span_counts": {
            "campaign": 1,
            "cell": 24,
            "estimate": 1,
            "iteration": 13,
            "measure": 6,
            "profile": 6,
        },
        "counters": {
            "cupti.collections": 6.0,
            "estimator.iterations": 13.0,
            "rows.collected": 24.0,
            "run.cache_misses": 6.0,
        },
        "ticks": 102,
        "sha256": (
            "e3e309837a0b722f859f6cf7d575b881"
            "6b3a243a336210c123abbfbe51407d3c"
        ),
    },
}


def _golden_configs(spec, count: int = 6):
    """Reference + near-reference bootstrap neighbors + a stride fill —
    the smallest grid on which the estimator bootstrap is well posed."""
    configs = spec.all_configurations()
    reference = spec.reference
    chosen = [reference]
    core_neighbors = [
        c
        for c in configs
        if c.memory_mhz == reference.memory_mhz and c != reference
    ]
    if core_neighbors:
        chosen.append(
            min(
                core_neighbors,
                key=lambda c: abs(c.core_mhz - 0.85 * reference.core_mhz),
            )
        )
        remaining = [c for c in core_neighbors if c not in chosen]
        if remaining:
            chosen.append(
                min(
                    remaining,
                    key=lambda c: abs(c.core_mhz - reference.core_mhz),
                )
            )
    mem_neighbors = [
        c
        for c in configs
        if c.core_mhz == reference.core_mhz and c != reference
    ]
    if mem_neighbors:
        chosen.append(
            min(
                mem_neighbors,
                key=lambda c: abs(c.memory_mhz - reference.memory_mhz),
            )
        )
    stride = max(1, len(configs) // count)
    for config in configs[::stride]:
        if config not in chosen and len(chosen) < count:
            chosen.append(config)
    return chosen


def _traced_run(device_name: str) -> TraceRecorder:
    """The golden campaign: 6 kernels x ~6 configs, collected and fitted
    with a fresh board and recorder."""
    spec = gpu_spec_by_name(device_name)
    recorder = TraceRecorder()
    session = ProfilingSession(SimulatedGPU(spec, recorder=recorder))
    kernels = build_suite()[:6]
    dataset, _ = collect_campaign(session, kernels, _golden_configs(spec))
    ModelEstimator(dataset, recorder=recorder).estimate()
    return recorder


@pytest.fixture(scope="module", params=SPEC_IDS)
def traced(request):
    return request.param, _traced_run(request.param)


class TestGoldenTraces:
    def test_span_tree_shape_pinned(self, traced):
        device, recorder = traced
        golden = GOLDEN[device]
        counts = dict(
            sorted(Counter(s.name for s in recorder.finished_spans()).items())
        )
        assert counts == golden["span_counts"], (
            f"{device}: span tree drifted; observed {counts}"
        )
        # Structure, not just multiplicity: every cell sits under a
        # measure span, every iteration under the estimate span.
        tree = set(recorder.span_tree())
        assert ("campaign",) in tree
        assert ("campaign", "profile") in tree
        assert ("campaign", "measure", "cell") in tree
        assert ("estimate", "iteration") in tree
        assert recorder.open_spans == 0

    def test_counters_pinned(self, traced):
        device, recorder = traced
        golden = GOLDEN[device]
        assert recorder.counters() == golden["counters"], (
            f"{device}: counters drifted; observed {recorder.counters()}"
        )

    def test_virtual_clock_pinned(self, traced):
        device, recorder = traced
        assert recorder.clock.ticks == GOLDEN[device]["ticks"]

    def test_jsonl_bytes_pinned(self, traced):
        device, recorder = traced
        digest = hashlib.sha256(to_jsonl(recorder).encode()).hexdigest()
        assert digest == GOLDEN[device]["sha256"], (
            f"{device}: exported trace bytes drifted (sha256 {digest})"
        )

    def test_trace_reproducible_byte_for_byte(self, traced):
        """A second identical run exports the identical bytes — the
        determinism half of the golden guarantee."""
        device, recorder = traced
        again = _traced_run(device)
        assert to_jsonl(again) == to_jsonl(recorder)


#: Pinned traces of the performance fit (``fit --perf`` path): 6 kernels,
#: counter fallback (no dataset), fresh board and recorder. Generated by
#: running ``_perf_traced_run``; exact for the same reason GOLDEN is.
GOLDEN_PERF = {
    "Titan Xp": {
        "span_counts": {"perf_estimate": 1, "perf_fit": 6},
        "counters": {
            "cupti.collections": 6.0,
            "perf.kernels": 6.0,
            "perf.probes": 18.0,
            "run.cache_hits": 6.0,
            "run.cache_misses": 18.0,
        },
        "ticks": 14,
        "sha256": (
            "c9bfee40f251553855886fbec11037bd"
            "cd80e25b2eaad0d92d42163e42603268"
        ),
    },
    "GTX Titan X": {
        "span_counts": {"perf_estimate": 1, "perf_fit": 6},
        "counters": {
            "cupti.collections": 6.0,
            "perf.kernels": 6.0,
            "perf.probes": 18.0,
            "run.cache_hits": 6.0,
            "run.cache_misses": 18.0,
        },
        "ticks": 14,
        "sha256": (
            "0b227794812ee4133636f666ee50bf87"
            "b6c83e1da6806119e720806b5a5aa68e"
        ),
    },
    "Tesla K40c": {
        "span_counts": {"perf_estimate": 1, "perf_fit": 6},
        "counters": {
            "cupti.collections": 6.0,
            "perf.kernels": 6.0,
            "perf.probes": 18.0,
            "run.cache_hits": 6.0,
            "run.cache_misses": 18.0,
        },
        "ticks": 14,
        "sha256": (
            "535798d25786c63e8a45e153f6476e51"
            "5243aa9d45f51e5728a32b5098f740cb"
        ),
    },
}


def _perf_traced_run(device_name: str) -> TraceRecorder:
    """The golden performance fit: 6 kernels probed and fitted with a
    fresh board and recorder (counters collected on demand, no dataset)."""
    from repro.core.perf_estimation import PerformanceEstimator

    spec = gpu_spec_by_name(device_name)
    recorder = TraceRecorder()
    session = ProfilingSession(SimulatedGPU(spec, recorder=recorder))
    estimator = PerformanceEstimator(
        None, session, build_suite()[:6], recorder=recorder
    )
    estimator.estimate()
    return recorder


@pytest.fixture(scope="module", params=SPEC_IDS)
def perf_traced(request):
    return request.param, _perf_traced_run(request.param)


class TestGoldenPerfTraces:
    """Same guarantee as :class:`TestGoldenTraces`, for the new
    ``perf_estimate``/``perf_fit`` spans and ``perf.*`` counters — pinned
    separately so the performance fit cannot silently change what the
    existing campaign traces pin."""

    def test_span_tree_shape_pinned(self, perf_traced):
        device, recorder = perf_traced
        golden = GOLDEN_PERF[device]
        counts = dict(
            sorted(Counter(s.name for s in recorder.finished_spans()).items())
        )
        assert counts == golden["span_counts"], (
            f"{device}: perf span tree drifted; observed {counts}"
        )
        tree = set(recorder.span_tree())
        assert ("perf_estimate",) in tree
        assert ("perf_estimate", "perf_fit") in tree
        assert recorder.open_spans == 0

    def test_counters_pinned(self, perf_traced):
        device, recorder = perf_traced
        golden = GOLDEN_PERF[device]
        assert recorder.counters() == golden["counters"], (
            f"{device}: perf counters drifted; observed {recorder.counters()}"
        )

    def test_virtual_clock_pinned(self, perf_traced):
        device, recorder = perf_traced
        assert recorder.clock.ticks == GOLDEN_PERF[device]["ticks"]

    def test_jsonl_bytes_pinned(self, perf_traced):
        device, recorder = perf_traced
        digest = hashlib.sha256(to_jsonl(recorder).encode()).hexdigest()
        assert digest == GOLDEN_PERF[device]["sha256"], (
            f"{device}: exported perf trace bytes drifted (sha256 {digest})"
        )

    def test_trace_reproducible_byte_for_byte(self, perf_traced):
        device, recorder = perf_traced
        again = _perf_traced_run(device)
        assert to_jsonl(again) == to_jsonl(recorder)


#: Pinned trace of generating the standard synthetic fleet: two
#: ``family_generate`` sweeps (Maxwell x ITRS, Pascal x conservative) plus
#: the lone Kepler capped member — seven ``family_member`` spans in all.
#: Generation draws from seeded generators only, so the export is exact.
GOLDEN_FAMILY = {
    "span_counts": {"family_generate": 2, "family_member": 7},
    "counters": {"family.members": 7.0},
    "ticks": 18,
    "sha256": (
        "8aa4272487d871ed884f748d8e5a4c0f"
        "236babddb45a457bad3f8ea5a41b65e6"
    ),
}


def _family_traced_run() -> TraceRecorder:
    """The golden generation: the whole standard fleet, fresh recorder."""
    from repro.hardware.families import standard_members

    recorder = TraceRecorder()
    standard_members(recorder=recorder)
    return recorder


@pytest.fixture(scope="module")
def family_traced():
    return _family_traced_run()


class TestGoldenFamilyTraces:
    """Same guarantee as :class:`TestGoldenTraces`, for the device-family
    generator's ``family_generate``/``family_member`` spans — pinned
    separately so family generation cannot silently change shape."""

    def test_span_tree_shape_pinned(self, family_traced):
        counts = dict(
            sorted(
                Counter(
                    s.name for s in family_traced.finished_spans()
                ).items()
            )
        )
        assert counts == GOLDEN_FAMILY["span_counts"], (
            f"family span tree drifted; observed {counts}"
        )
        tree = set(family_traced.span_tree())
        assert ("family_generate", "family_member") in tree
        # The capped one-off member is generated outside a sweep.
        assert ("family_member",) in tree
        assert family_traced.open_spans == 0

    def test_counters_pinned(self, family_traced):
        assert family_traced.counters() == GOLDEN_FAMILY["counters"], (
            f"family counters drifted; observed {family_traced.counters()}"
        )

    def test_virtual_clock_pinned(self, family_traced):
        assert family_traced.clock.ticks == GOLDEN_FAMILY["ticks"]

    def test_jsonl_bytes_pinned(self, family_traced):
        digest = hashlib.sha256(
            to_jsonl(family_traced).encode()
        ).hexdigest()
        assert digest == GOLDEN_FAMILY["sha256"], (
            f"exported family trace bytes drifted (sha256 {digest})"
        )

    def test_trace_reproducible_byte_for_byte(self, family_traced):
        assert to_jsonl(_family_traced_run()) == to_jsonl(family_traced)
