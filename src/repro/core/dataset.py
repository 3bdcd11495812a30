"""Training-data collection (Sec. III-D / V-A methodology).

For every microbenchmark the power is measured at **every** V-F
configuration of the grid, while the performance events — and thus the
utilization vector — are measured only once, at the **reference**
configuration. The collected rows are what the estimator consumes; nothing
in them touches the hidden ground truth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics import MetricCalculator, UtilizationVector
from repro.driver import faults as faultlib
from repro.driver.session import ProfilingSession
from repro.errors import PersistentDriverError, ValidationError
from repro.hardware.components import Component
from repro.hardware.specs import FrequencyConfig, GPUSpec
from repro.kernels.kernel import KernelDescriptor
from repro.telemetry.recorder import TelemetryRecorder


@dataclass(frozen=True)
class TrainingRow:
    """One (microbenchmark, configuration) observation."""

    kernel_name: str
    config: FrequencyConfig
    measured_watts: float
    #: Utilizations measured at the *reference* configuration (Sec. III-D).
    utilizations: UtilizationVector
    #: Per-cell quality flags from the resilient measurement path (empty
    #: when the cell was measured cleanly) — see :mod:`repro.driver.faults`.
    quality: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DatasetColumns:
    """Merged column blocks of one campaign: the zero-copy SoA form.

    One entry per usable row, flattened kernel-major (the campaign's
    row order). ``kernel_indices[r]`` points into the per-kernel
    ``kernel_names``/``utilizations`` blocks; the frequency columns carry
    the *applied* clocks and ``quality_codes`` the
    :data:`repro.driver.faults.QUALITY_BITS` bitmask. Every campaign,
    serial or sharded, assembles these straight from its measured columns
    (:func:`finish_campaign`); :meth:`TrainingDataset.rows` materializes
    :class:`TrainingRow` objects from them lazily.
    """

    kernel_names: Tuple[str, ...]
    utilizations: Tuple[UtilizationVector, ...]
    kernel_indices: np.ndarray
    core_mhz: np.ndarray
    memory_mhz: np.ndarray
    measured_watts: np.ndarray
    quality_codes: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.kernel_indices)
        for name in ("core_mhz", "memory_mhz", "measured_watts", "quality_codes"):
            if len(getattr(self, name)) != n:
                raise ValidationError(
                    f"column {name!r} has {len(getattr(self, name))} entries, "
                    f"expected {n}"
                )
        if len(self.kernel_names) != len(self.utilizations):
            raise ValidationError(
                "kernel_names and utilizations blocks must align"
            )
        if n and np.any(
            np.asarray(self.quality_codes)
            & faultlib.QUALITY_BITS[faultlib.UNREADABLE]
        ):
            raise ValidationError(
                "unreadable cells must be dropped before building dataset "
                "columns (they become skipped cells, not rows)"
            )

    @property
    def row_count(self) -> int:
        return len(self.kernel_indices)

    def materialize_rows(self) -> Tuple[TrainingRow, ...]:
        """Build the per-row objects, bitwise-equal to the columns."""
        config_cache: Dict[Tuple[float, float], FrequencyConfig] = {}
        rows: List[TrainingRow] = []
        for r in range(self.row_count):
            key = (float(self.core_mhz[r]), float(self.memory_mhz[r]))
            config = config_cache.get(key)
            if config is None:
                config = FrequencyConfig(key[0], key[1])
                config_cache[key] = config
            k = int(self.kernel_indices[r])
            rows.append(
                TrainingRow(
                    kernel_name=self.kernel_names[k],
                    config=config,
                    measured_watts=float(self.measured_watts[r]),
                    utilizations=self.utilizations[k],
                    quality=faultlib.decode_quality(self.quality_codes[r]),
                )
            )
        return tuple(rows)


class TrainingDataset:
    """All observations used to estimate one device's model.

    Two interchangeable constructions: from merged :class:`DatasetColumns`
    (every campaign) or from materialized ``rows`` (subsets, pickles). In
    the columnar case the struct-of-arrays view the estimator consumes is
    served straight from the column blocks and :attr:`rows` materializes
    lazily on first access — rebuilt rows compare bitwise-equal to rows
    built one by one, so the two forms are indistinguishable to every
    consumer (``==`` included).
    """

    __slots__ = ("spec", "_rows", "_columns", "_soa_cache")

    def __init__(
        self,
        spec: Optional[GPUSpec] = None,
        rows: Optional[Sequence[TrainingRow]] = None,
        *,
        columns: Optional[DatasetColumns] = None,
    ) -> None:
        if spec is None:
            raise ValidationError("training dataset needs a device spec")
        self.spec = spec
        self._soa_cache: Optional[Dict[str, object]] = None
        if columns is not None:
            if rows:
                raise ValidationError(
                    "pass either rows or columns, not both"
                )
            if columns.row_count == 0:
                raise ValidationError("training dataset must not be empty")
            self._rows: Optional[Tuple[TrainingRow, ...]] = None
            self._columns: Optional[DatasetColumns] = columns
        else:
            materialized = tuple(rows) if rows is not None else ()
            if not materialized:
                raise ValidationError("training dataset must not be empty")
            self._rows = materialized
            self._columns = None

    @property
    def rows(self) -> Tuple[TrainingRow, ...]:
        """Per-row observations (materialized lazily from column blocks)."""
        if self._rows is None:
            self._rows = self._columns.materialize_rows()
        return self._rows

    def __eq__(self, other: object):
        if not isinstance(other, TrainingDataset):
            return NotImplemented
        return self.spec == other.spec and self.rows == other.rows

    __hash__ = None  # mutable caches; matches the former eq=True dataclass

    def __reduce__(self):
        # Pickle as (spec, rows): column blocks materialize on the way out,
        # so both constructions serialize to the same canonical payload.
        return (_rebuild_dataset, (self.spec, self.rows))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrainingDataset({self.spec.name!r}, "
            f"{self.row_count()} rows)"
        )

    def row_count(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return self._columns.row_count

    # ------------------------------------------------------------------
    # Struct-of-arrays view
    # ------------------------------------------------------------------
    def _soa(self) -> Dict[str, object]:
        """Columnar view of the rows, built once and cached.

        The dataset is immutable after construction, so the arrays are
        computed on first access and reused by every consumer (the
        estimator, the baselines, the configuration-subset helpers).
        Callers must treat them as read-only. Column-block datasets build
        the view directly from the merged arrays — no row objects needed.
        """
        cached = self._soa_cache
        if cached is not None:
            return cached
        if self._rows is not None:
            soa = self._soa_from_rows()
        else:
            soa = self._soa_from_columns()
        self._soa_cache = soa
        return soa

    def _soa_from_rows(self) -> Dict[str, object]:
        configs: Dict[Tuple[float, float], FrequencyConfig] = {}
        for row in self.rows:
            key = (row.config.core_mhz, row.config.memory_mhz)
            configs.setdefault(key, row.config)
        ordered_keys = sorted(configs)
        config_list = [configs[key] for key in ordered_keys]
        index_of_key = {key: i for i, key in enumerate(ordered_keys)}
        config_indices = np.asarray(
            [
                index_of_key[(row.config.core_mhz, row.config.memory_mhz)]
                for row in self.rows
            ],
            dtype=int,
        )
        soa = {
            "configurations": config_list,
            "config_indices": config_indices,
            "rows_by_config": self._rows_by_config(
                config_indices, len(config_list)
            ),
            "measured": np.asarray(
                [row.measured_watts for row in self.rows], dtype=float
            ),
            "core_mhz": np.asarray(
                [row.config.core_mhz for row in self.rows], dtype=float
            ),
            "memory_mhz": np.asarray(
                [row.config.memory_mhz for row in self.rows], dtype=float
            ),
            "u_core": np.vstack(
                [row.utilizations.core_array() for row in self.rows]
            ),
            "u_dram": np.asarray(
                [row.utilizations[Component.DRAM] for row in self.rows],
                dtype=float,
            ),
        }
        return soa

    def _soa_from_columns(self) -> Dict[str, object]:
        cols = self._columns
        core = np.asarray(cols.core_mhz, dtype=float)
        memory = np.asarray(cols.memory_mhz, dtype=float)
        ordered_keys = sorted(
            {(float(c), float(m)) for c, m in zip(core, memory)}
        )
        config_list = [FrequencyConfig(c, m) for c, m in ordered_keys]
        index_of_key = {key: i for i, key in enumerate(ordered_keys)}
        config_indices = np.asarray(
            [
                index_of_key[(float(c), float(m))]
                for c, m in zip(core, memory)
            ],
            dtype=int,
        )
        per_kernel_core = [u.core_array() for u in cols.utilizations]
        per_kernel_dram = [u[Component.DRAM] for u in cols.utilizations]
        kernel_indices = cols.kernel_indices
        soa = {
            "configurations": config_list,
            "config_indices": config_indices,
            "rows_by_config": self._rows_by_config(
                config_indices, len(config_list)
            ),
            "measured": np.asarray(cols.measured_watts, dtype=float),
            "core_mhz": core,
            "memory_mhz": memory,
            "u_core": np.vstack(
                [per_kernel_core[int(k)] for k in kernel_indices]
            ),
            "u_dram": np.asarray(
                [per_kernel_dram[int(k)] for k in kernel_indices],
                dtype=float,
            ),
        }
        return soa

    @staticmethod
    def _rows_by_config(
        config_indices: np.ndarray, n_configs: int
    ) -> List[List[int]]:
        rows_by_config: List[List[int]] = [[] for _ in range(n_configs)]
        for position, index in enumerate(config_indices):
            rows_by_config[index].append(position)
        return rows_by_config

    def configurations(self) -> List[FrequencyConfig]:
        """Distinct configurations present, in a stable order."""
        return list(self._soa()["configurations"])

    def config_indices(self) -> np.ndarray:
        """Per-row index into :meth:`configurations` (read-only view)."""
        return self._soa()["config_indices"]

    def measured_vector(self) -> np.ndarray:
        """Measured watts per row (read-only cached array)."""
        return self._soa()["measured"]

    def core_mhz_vector(self) -> np.ndarray:
        """Per-row core frequency in MHz (read-only cached array)."""
        return self._soa()["core_mhz"]

    def memory_mhz_vector(self) -> np.ndarray:
        """Per-row memory frequency in MHz (read-only cached array)."""
        return self._soa()["memory_mhz"]

    def core_utilization_matrix(self) -> np.ndarray:
        """``(n_rows, len(CORE_COMPONENTS))`` utilization matrix."""
        return self._soa()["u_core"]

    def dram_utilization_vector(self) -> np.ndarray:
        """Per-row DRAM utilization (read-only cached array)."""
        return self._soa()["u_dram"]

    def rows_at(self, config: FrequencyConfig) -> List[TrainingRow]:
        """The observations taken at one configuration."""
        soa = self._soa()
        key = (config.core_mhz, config.memory_mhz)
        ordered = {
            (c.core_mhz, c.memory_mhz): i
            for i, c in enumerate(soa["configurations"])
        }
        index = ordered.get(key)
        if index is not None:
            return [self.rows[i] for i in soa["rows_by_config"][index]]
        # Tolerant fallback for queries that are near-but-not-exactly a
        # grid level (historic behavior: +-0.5 MHz), in row order.
        positions: List[int] = []
        for (core, memory), i in ordered.items():
            if abs(core - key[0]) < 0.5 and abs(memory - key[1]) < 0.5:
                positions.extend(soa["rows_by_config"][i])
        return [self.rows[i] for i in sorted(positions)]

    def subset(self, configs: Iterable[FrequencyConfig]) -> "TrainingDataset":
        """Dataset restricted to a set of configurations."""
        rows: List[TrainingRow] = []
        for config in configs:
            rows.extend(self.rows_at(config))
        return TrainingDataset(spec=self.spec, rows=tuple(rows))

    def subset_kernels(self, kernel_names: Iterable[str]) -> "TrainingDataset":
        """Dataset restricted to a set of kernels (row order preserved).

        The few-shot calibration experiment leans on this: collect the full
        campaign once, then fit k-probe models on kernel-filtered views
        without re-measuring anything.
        """
        wanted = set(kernel_names)
        rows = tuple(r for r in self.rows if r.kernel_name in wanted)
        return TrainingDataset(spec=self.spec, rows=rows)

    def kernel_names(self) -> List[str]:
        names: List[str] = []
        for row in self.rows:
            if row.kernel_name not in names:
                names.append(row.kernel_name)
        return names


def _rebuild_dataset(
    spec: GPUSpec, rows: Tuple[TrainingRow, ...]
) -> TrainingDataset:
    """Pickle reconstructor for :class:`TrainingDataset.__reduce__`."""
    return TrainingDataset(spec=spec, rows=rows)


@dataclass(frozen=True)
class CampaignReport:
    """Health record of one measurement campaign.

    Summarizes how the resilience layer handled faults: how many rows came
    back clean versus flagged, which cells/kernels had to be skipped, and
    the raw fault tallies and virtual backoff time from the session.
    A fault-free campaign reports all-zero counts and ``complete == True``.
    """

    device_name: str
    kernel_count: int
    config_count: int
    row_count: int
    clean_rows: int
    retried_rows: int
    dropout_rows: int
    throttle_injected_rows: int
    #: Cells dropped after the full retry budget, as (kernel, config).
    skipped_cells: Tuple[Tuple[str, FrequencyConfig], ...]
    #: Kernels dropped entirely (event collection kept failing).
    skipped_kernels: Tuple[str, ...]
    read_faults: int
    clock_faults: int
    event_faults: int
    dropped_samples: int
    injected_throttles: int
    corrupted_counters: int
    #: Virtual seconds the retry backoff would have waited.
    backoff_seconds: float

    @property
    def complete(self) -> bool:
        """Whether every requested (kernel, configuration) cell made it in."""
        return not self.skipped_cells and not self.skipped_kernels

    @property
    def flagged_rows(self) -> int:
        return self.row_count - self.clean_rows

    def summary(self) -> str:
        """One-paragraph human-readable campaign summary."""
        lines = [
            f"campaign on {self.device_name}: {self.row_count} rows "
            f"({self.kernel_count} kernels x {self.config_count} configs), "
            f"{self.clean_rows} clean / {self.flagged_rows} flagged",
            f"  retried: {self.retried_rows}  dropouts: {self.dropout_rows}  "
            f"throttle-injected: {self.throttle_injected_rows}",
            f"  faults: {self.read_faults} read, {self.event_faults} event, "
            f"{self.clock_faults} clock-set; {self.dropped_samples} samples "
            f"dropped, {self.corrupted_counters} counters corrupted",
            f"  backoff: {self.backoff_seconds:.3f} s (virtual)",
        ]
        if self.skipped_kernels:
            lines.append(
                "  skipped kernels: " + ", ".join(self.skipped_kernels)
            )
        if self.skipped_cells:
            cells = ", ".join(
                f"{name}@{config.core_mhz:.0f}/{config.memory_mhz:.0f}"
                for name, config in self.skipped_cells
            )
            lines.append(f"  skipped cells: {cells}")
        return "\n".join(lines)


_UNREADABLE_BIT = faultlib.QUALITY_BITS[faultlib.UNREADABLE]


@dataclass(frozen=True)
class KernelRowBlock:
    """Profile + measure outcome of a run of whole kernel rows.

    The campaign's unit of work (:func:`measure_kernel_rows`): the serial
    campaign measures one block spanning the whole grid, the sharded
    executor one per shard and concatenates them. ``utilizations[k]`` is
    ``None`` when kernel ``k``'s event collection kept failing. The four
    columns hold ``len(utilizations) * n_configs`` cells, kernel-major:
    median watts, applied clocks and the
    :data:`~repro.driver.faults.QUALITY_BITS` code of each cell (zeros on
    a skipped kernel's row, NaN watts on an unreadable cell).
    """

    utilizations: Tuple[Optional[UtilizationVector], ...]
    watts: np.ndarray
    core_mhz: np.ndarray
    memory_mhz: np.ndarray
    quality: np.ndarray
    #: How many of the session's backoff sleeps the profiling step took —
    #: the sharded executor replays every shard's profile sleeps before any
    #: measure sleep, the serial campaign's order.
    profile_sleeps: int = 0


def measure_kernel_rows(
    session: ProfilingSession,
    kernels: Sequence[KernelDescriptor],
    configs: Sequence[FrequencyConfig],
) -> KernelRowBlock:
    """The campaign's measurement task: profile kernels, then measure rows.

    Events (hence utilizations) are collected once per kernel at the
    reference configuration; a kernel whose collection keeps failing under
    an active fault plan is skipped. The surviving kernels' power rows then
    come from one :meth:`ProfilingSession.measure_grid_columns` call, with
    unreadable cells flagged rather than raised. An empty ``configs``
    profiles only.
    """
    calculator = MetricCalculator(session.gpu.spec)
    sleep_log = session.backoff_clock.sleep_log
    sleeps_before = len(sleep_log)
    utilizations: List[Optional[UtilizationVector]] = []
    for kernel in kernels:
        try:
            record = session.collect_events(kernel)
        except PersistentDriverError:
            utilizations.append(None)
            continue
        utilizations.append(calculator.utilizations(record))
    profile_sleeps = len(sleep_log) - sleeps_before

    n_configs = len(configs)
    n_cells = len(kernels) * n_configs
    watts = np.zeros(n_cells, dtype=np.float64)
    core_mhz = np.zeros(n_cells, dtype=np.float64)
    memory_mhz = np.zeros(n_cells, dtype=np.float64)
    quality = np.zeros(n_cells, dtype=np.uint8)
    surviving = [k for k, u in enumerate(utilizations) if u is not None]
    if surviving and n_configs:
        columns = session.measure_grid_columns(
            [kernels[k] for k in surviving], configs, on_unreadable="skip"
        )
        cells = (
            np.asarray(surviving)[:, None] * n_configs + np.arange(n_configs)
        ).ravel()
        watts[cells] = columns.watts
        core_mhz[cells] = columns.applied_core_mhz
        memory_mhz[cells] = columns.applied_mem_mhz
        quality[cells] = columns.quality
    return KernelRowBlock(
        utilizations=tuple(utilizations),
        watts=watts,
        core_mhz=core_mhz,
        memory_mhz=memory_mhz,
        quality=quality,
        profile_sleeps=profile_sleeps,
    )


def fault_snapshot(
    session: ProfilingSession,
) -> Tuple[faultlib.FaultStats, float]:
    """Copies of the session's fault tally and backoff total, taken before
    a campaign so its report can state the campaign's own deltas."""
    return (
        dataclasses.replace(session.fault_stats),
        session.backoff_clock.total_seconds,
    )


def campaign_grid(
    session: ProfilingSession,
    kernels: Sequence[KernelDescriptor],
    configs: Optional[Sequence[FrequencyConfig]],
) -> Tuple[FrequencyConfig, ...]:
    """Validate a campaign's inputs; the requested configurations.

    ``configs`` defaults to the device's whole V-F grid.
    """
    if not kernels:
        raise ValidationError("no kernels supplied for training")
    spec = session.gpu.spec
    if configs is None:
        configs = spec.all_configurations()
    if not configs:
        raise ValidationError("no configurations supplied for training")
    return tuple(spec.validate_configuration(c) for c in configs)


def finish_campaign(
    session: ProfilingSession,
    kernels: Sequence[KernelDescriptor],
    configs: Sequence[FrequencyConfig],
    block: KernelRowBlock,
    campaign_span,
    before: Tuple[faultlib.FaultStats, float],
) -> Tuple[TrainingDataset, CampaignReport]:
    """Turn a campaign's block into its dataset and report.

    Shared by the serial campaign and the sharded executor, which folds
    its workers' fault tallies and backoff into ``session`` first — so the
    two produce identical reports for identical campaigns. Skipped kernels
    and unreadable cells are recorded in the report; the remaining cells
    become the dataset's column blocks. With telemetry on, the campaign's
    spans and row counters are emitted here, from the same columns.
    """
    n_configs = len(configs)
    n_cells = len(kernels) * n_configs
    if len(block.utilizations) != len(kernels) or len(block.quality) != n_cells:
        raise ValidationError(
            f"campaign block of {len(block.utilizations)} kernels x "
            f"{len(block.quality)} cells does not cover the "
            f"{len(kernels)} x {n_configs} grid"
        )
    recorder = session.recorder
    if recorder.enabled:
        _trace_campaign(recorder, kernels, configs, block)
    unreadable = (block.quality & _UNREADABLE_BIT).astype(bool)
    kernel_names: List[str] = []
    utilizations: List[UtilizationVector] = []
    kept: List[np.ndarray] = []
    kernel_indices: List[np.ndarray] = []
    skipped_kernels: List[str] = []
    skipped_cells: List[Tuple[str, FrequencyConfig]] = []
    for k, (kernel, utilization) in enumerate(
        zip(kernels, block.utilizations)
    ):
        if utilization is None:
            skipped_kernels.append(kernel.name)
            continue
        start = k * n_configs
        lost = unreadable[start : start + n_configs]
        skipped_cells.extend(
            (kernel.name, configs[j]) for j in np.flatnonzero(lost)
        )
        cells = start + np.flatnonzero(~lost)
        kept.append(cells)
        kernel_indices.append(np.full(len(cells), len(kernel_names)))
        kernel_names.append(kernel.name)
        utilizations.append(utilization)
    row_count = sum(len(cells) for cells in kept)
    campaign_span.set(
        rows=row_count,
        skipped_cells=len(skipped_cells),
        skipped_kernels=len(skipped_kernels),
    )
    if not row_count:
        raise ValidationError(
            "measurement campaign produced no usable rows (every kernel or "
            "cell was skipped)"
        )
    rows = np.concatenate(kept)
    columns = DatasetColumns(
        kernel_names=tuple(kernel_names),
        utilizations=tuple(utilizations),
        kernel_indices=np.concatenate(kernel_indices),
        core_mhz=block.core_mhz[rows],
        memory_mhz=block.memory_mhz[rows],
        measured_watts=block.watts[rows],
        quality_codes=block.quality[rows],
    )
    codes = columns.quality_codes
    bits = faultlib.QUALITY_BITS
    stats = session.fault_stats
    baseline, backoff_before = before
    report = CampaignReport(
        device_name=session.gpu.spec.name,
        kernel_count=len(kernel_names),
        config_count=n_configs,
        row_count=row_count,
        clean_rows=int(np.count_nonzero(codes == 0)),
        retried_rows=int(np.count_nonzero(codes & bits[faultlib.RETRIED])),
        dropout_rows=int(np.count_nonzero(codes & bits[faultlib.DROPOUTS])),
        throttle_injected_rows=int(
            np.count_nonzero(codes & bits[faultlib.THROTTLE_INJECTED])
        ),
        skipped_cells=tuple(skipped_cells),
        skipped_kernels=tuple(skipped_kernels),
        read_faults=stats.read_faults - baseline.read_faults,
        clock_faults=stats.clock_faults - baseline.clock_faults,
        event_faults=stats.event_faults - baseline.event_faults,
        dropped_samples=stats.dropped_samples - baseline.dropped_samples,
        injected_throttles=(
            stats.injected_throttles - baseline.injected_throttles
        ),
        corrupted_counters=(
            stats.corrupted_counters - baseline.corrupted_counters
        ),
        backoff_seconds=session.backoff_clock.total_seconds - backoff_before,
    )
    return TrainingDataset(spec=session.gpu.spec, columns=columns), report


def _trace_campaign(
    recorder: TelemetryRecorder,
    kernels: Sequence[KernelDescriptor],
    configs: Sequence[FrequencyConfig],
    block: KernelRowBlock,
) -> None:
    """Emit the campaign's span tree and row counters from its columns.

    One ``profile`` span per kernel (``skipped`` when its events never
    came), then one ``measure`` span per profiled kernel holding a
    ``cell`` span per configuration: at the applied clocks with the
    decoded quality flags, or at the requested clocks when the cell was
    unreadable.
    """
    for kernel, utilization in zip(kernels, block.utilizations):
        with recorder.span("profile", kernel=kernel.name) as profile_span:
            if utilization is None:
                profile_span.set(skipped=True)
                recorder.add("kernels.skipped")
    n_configs = len(configs)
    for k, (kernel, utilization) in enumerate(
        zip(kernels, block.utilizations)
    ):
        if utilization is None:
            continue
        with recorder.span("measure", kernel=kernel.name):
            for j, config in enumerate(configs):
                cell = k * n_configs + j
                code = int(block.quality[cell])
                if code & _UNREADABLE_BIT:
                    with recorder.span(
                        "cell", core=config.core_mhz, memory=config.memory_mhz
                    ) as cell_span:
                        cell_span.set(skipped=True)
                        recorder.add("cells.skipped")
                    continue
                with recorder.span(
                    "cell",
                    core=float(block.core_mhz[cell]),
                    memory=float(block.memory_mhz[cell]),
                ) as cell_span:
                    if code:
                        cell_span.set(
                            quality=list(faultlib.decode_quality(code))
                        )
                        recorder.add("rows.degraded")
                    recorder.add("rows.collected")


def collect_campaign(
    session: ProfilingSession,
    kernels: Sequence[KernelDescriptor],
    configs: Optional[Sequence[FrequencyConfig]] = None,
    workers: int = 0,
    shard_size: Optional[int] = None,
    fallback: str = "auto",
) -> Tuple[TrainingDataset, CampaignReport]:
    """Run the measurement campaign and report its health.

    Events (hence utilizations) are collected once per kernel, at the
    reference configuration, and power is measured (median-of-repeats) at
    every configuration in ``configs`` — default: the device's entire V-F
    grid — through :func:`measure_kernel_rows`. TDP-throttled observations
    are recorded at their *applied* configuration, mirroring what a real
    campaign would see on the sensor.

    The fault-tolerant entry point: under an active
    :class:`~repro.driver.faults.FaultPlan` the campaign degrades
    gracefully — kernels whose event collection keeps failing and cells
    that stay unreadable after the retry budget are skipped and recorded in
    the :class:`CampaignReport` instead of aborting the run. Every cell is
    bitwise identical to a scalar :meth:`ProfilingSession.measure_power`
    call at the same (kernel, configuration).

    ``workers`` > 0 (or ``"auto"``, which resolves to the machine's usable
    core count) shards the same task over whole-kernel-row shards in
    worker processes (:func:`repro.parallel.executor.collect_campaign_sharded`),
    whose dataset and report are bitwise identical to the serial
    campaign's for any worker count; ``shard_size`` (cells per shard)
    defaults to an adaptive split. With ``fallback="auto"`` (default),
    grids too small to amortize worker startup run serially instead
    (emitting a ``parallel.fallback`` counter); ``fallback="never"``
    forces the sharded executor regardless.
    """
    if fallback not in ("auto", "never"):
        raise ValidationError(
            f"fallback must be 'auto' or 'never', got {fallback!r}"
        )
    requested = campaign_grid(session, kernels, configs)
    if workers:
        from repro.parallel.planner import resolve_workers, should_fallback

        resolved = resolve_workers(workers)
        if fallback == "never" or not should_fallback(
            len(kernels), len(requested), resolved
        ):
            from repro.parallel.executor import collect_campaign_sharded

            return collect_campaign_sharded(
                session,
                kernels,
                requested,
                workers=resolved,
                shard_size=shard_size,
            )
        # Grid too small for sharding to pay off: run serially, but leave
        # a trace so callers can see the planner overrode them.
        session.recorder.add("parallel.fallback")
    before = fault_snapshot(session)
    with session.recorder.span(
        "campaign",
        device=session.gpu.spec.name,
        kernels=len(kernels),
        configs=len(requested),
    ) as campaign_span:
        block = measure_kernel_rows(session, kernels, requested)
        return finish_campaign(
            session, kernels, requested, block, campaign_span, before
        )


def collect_training_dataset(
    session: ProfilingSession,
    kernels: Sequence[KernelDescriptor],
    configs: Optional[Sequence[FrequencyConfig]] = None,
    workers: int = 0,
    shard_size: Optional[int] = None,
    fallback: str = "auto",
) -> TrainingDataset:
    """Run the full measurement campaign for a set of microbenchmarks.

    Thin wrapper over :func:`collect_campaign` that drops the report;
    campaigns under an active fault plan degrade gracefully the same way
    (skipped cells/kernels are simply not visible without the report).
    ``workers > 0`` (or ``"auto"``) shards the campaign across worker
    processes (bitwise-identical output; see :mod:`repro.parallel`), with
    ``fallback="auto"`` transparently keeping small grids serial.
    """
    return collect_campaign(
        session,
        kernels,
        configs,
        workers=workers,
        shard_size=shard_size,
        fallback=fallback,
    )[0]
