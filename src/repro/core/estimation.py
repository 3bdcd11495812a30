"""The iterative model estimator (Sec. III-D).

A plain least-squares fit of Eq. 6/7 is impossible: the voltages multiply
the hardware coefficients, so the joint problem is non-full-rank. The
paper's remedy is an alternating heuristic:

1. **Bootstrap** — assume ``V = 1`` at the reference configuration F1 and at
   two nearby configurations F2 (core frequency changed) and F3 (memory
   frequency changed), and solve a constrained linear least squares for the
   parameter vector X on the measurements of those three configurations.
2. **Voltage step** — with X fixed, estimate the normalized voltage pair of
   *every* configuration by bounded least squares over that configuration's
   microbenchmark measurements, then enforce the monotonicity constraint
   (higher frequency never means lower voltage) with isotonic regression
   along each frequency axis.
3. **Parameter step** — with the voltages fixed, re-fit X on the
   measurements of **all** configurations.
4. Iterate 2-3 until the training RMSE converges (the paper reports
   convergence in < 50 iterations).

The reference configuration is pinned at ``V = (1, 1)`` throughout — that is
the normalization of Eq. 5 and it removes the scale ambiguity between the
voltages and the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import TrainingDataset, collect_training_dataset
from repro.core.model import (
    DVFSPowerModel,
    ModelParameters,
    VoltageEstimate,
)
from repro.core.regression import (
    minimize_voltage_1d_stats,
    fit_voltage_pair,
    isotonic_regression,
    nonnegative_least_squares,
)
from repro.driver.session import ProfilingSession
from repro.errors import EstimationError
from repro.hardware.components import CORE_COMPONENTS, Component
from repro.hardware.specs import FrequencyConfig
from repro.kernels.kernel import KernelDescriptor
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder
from repro.units import mean_absolute_percentage_error


@dataclass(frozen=True)
class EstimatorReport:
    """Diagnostics of one estimation run."""

    iterations: int
    converged: bool
    rmse_history: Tuple[float, ...]
    train_mae_percent: float

    @property
    def final_rmse(self) -> float:
        """RMSE after the last recorded pass.

        A report whose ``rmse_history`` is empty cannot answer this (it
        would otherwise surface as an opaque ``IndexError`` or a silent
        NaN downstream), so it raises :class:`EstimationError` instead.
        """
        if not self.rmse_history:
            raise EstimationError(
                "estimator report carries no RMSE history (no estimation "
                "pass was recorded); final_rmse is undefined"
            )
        return self.rmse_history[-1]


def _key(config: FrequencyConfig) -> Tuple[float, float]:
    return (round(config.core_mhz, 1), round(config.memory_mhz, 1))


def select_bootstrap_configs(
    spec,
    available: Optional[Sequence[FrequencyConfig]] = None,
) -> List[FrequencyConfig]:
    """The near-reference F1/F2/F3 configurations of estimation step 1.

    F1 is the reference itself, F2 the core level closest to 85 % of the
    reference core frequency, F3 the memory level closest to the reference
    memory frequency (single-memory devices substitute a second core
    level). The same selection seeds the power estimator's bootstrap and
    the performance estimator's timing probes, so both models train on the
    same near-reference neighbourhood. ``available`` restricts the result
    to configurations present in a dataset; an empty intersection raises.
    """
    reference = spec.reference
    configs = [reference]
    core_levels = sorted(spec.core_frequencies_mhz)
    other_cores = [f for f in core_levels if f != reference.core_mhz]
    if other_cores:
        # F2: core frequency closest to 85 % of the reference — near
        # enough for the constant-voltage assumption to be tolerable.
        target = 0.85 * reference.core_mhz
        core2 = min(other_cores, key=lambda f: abs(f - target))
        configs.append(FrequencyConfig(core2, reference.memory_mhz))
    memory_levels = sorted(spec.memory_frequencies_mhz)
    other_memories = [f for f in memory_levels if f != reference.memory_mhz]
    if other_memories:
        # F3: the memory level closest to the reference.
        mem2 = min(
            other_memories, key=lambda f: abs(f - reference.memory_mhz)
        )
        configs.append(FrequencyConfig(reference.core_mhz, mem2))
    elif len(other_cores) >= 2:
        # Single-memory devices (Tesla K40c): use a second core level.
        core3 = min(
            (f for f in other_cores if f != configs[-1].core_mhz),
            key=lambda f: abs(f - reference.core_mhz),
        )
        configs.append(FrequencyConfig(core3, reference.memory_mhz))
    if available is None:
        return configs
    keys = {_key(c) for c in available}
    chosen = [c for c in configs if _key(c) in keys]
    if not chosen:
        raise EstimationError(
            "none of the bootstrap configurations appear in the dataset"
        )
    return chosen


class ModelEstimator:
    """Runs the Sec. III-D algorithm on a training dataset.

    Internally the dataset is flattened into numpy arrays (one row per
    (microbenchmark, configuration) observation) so each alternating step is
    a vectorized linear-algebra problem.
    """

    def __init__(
        self,
        dataset: TrainingDataset,
        max_iterations: int = 50,
        tolerance: float = 3.0e-4,
        model_voltage: bool = True,
        vectorized: bool = True,
        recorder: TelemetryRecorder = NULL_RECORDER,
    ) -> None:
        """``model_voltage=False`` disables the voltage steps entirely
        (every configuration keeps ``V = 1``) — the linear-frequency
        assumption of GPUWattch-style models, kept here as an ablation.

        ``vectorized`` selects the batched voltage step, which solves every
        configuration's coordinate-descent sweep as array operations over
        per-configuration sufficient statistics. ``vectorized=False`` keeps
        the per-configuration loop; the two agree to well below 1e-9 in
        every fitted voltage (the equivalence tests assert this).

        ``recorder`` (no-op by default) traces the alternating loop: one
        ``estimate`` span with an ``iteration`` child per pass, an
        ``estimator.iterations`` counter and an ``estimator.rmse`` gauge —
        telemetry only observes, the fitted model is bitwise identical
        with it on or off."""
        self.dataset = dataset
        self.spec = dataset.spec
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.model_voltage = model_voltage
        self.vectorized = vectorized
        self.recorder = recorder

        self._configs: List[FrequencyConfig] = dataset.configurations()
        config_index = {_key(c): i for i, c in enumerate(self._configs)}
        reference_key = _key(self.spec.reference)
        if reference_key not in config_index:
            raise EstimationError(
                "training dataset does not include the reference "
                f"configuration {self.spec.reference}"
            )
        self._reference_index = config_index[reference_key]

        # Struct-of-arrays views built once by the dataset and shared.
        self._measured = dataset.measured_vector()
        self._config_of_row = dataset.config_indices()
        self._fc = dataset.core_mhz_vector()
        self._fm = dataset.memory_mhz_vector()
        self._u_core = dataset.core_utilization_matrix()
        self._u_dram = dataset.dram_utilization_vector()

        # Config-sorted row order and segment boundaries: every
        # per-configuration reduction of the vectorized voltage step is one
        # ``np.add.reduceat`` over these segments.
        order = np.argsort(self._config_of_row, kind="stable")
        self._row_order = order
        sorted_configs = self._config_of_row[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_configs)) + 1]
        )
        self._segment_starts = starts
        self._segment_configs = sorted_configs[starts]
        self._segment_counts = np.diff(
            np.concatenate([starts, [order.size]])
        ).astype(float)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(self) -> Tuple[DVFSPowerModel, EstimatorReport]:
        """Run the full iterative algorithm."""
        recorder = self.recorder
        n_configs = len(self._configs)
        v_core = np.ones(n_configs)
        v_mem = np.ones(n_configs)

        with recorder.span(
            "estimate",
            device=self.spec.name,
            rows=self.dataset.row_count(),
            configs=n_configs,
        ) as estimate_span:
            # Step 1: bootstrap X from the three near-reference
            # configurations. The design matrix depends only on the
            # voltages, so each iteration builds it once and shares it
            # between the parameter fit and the RMSE evaluation.
            bootstrap_mask = self._bootstrap_mask()
            design = self._design_matrix(v_core, v_mem)
            parameters = self._fit_parameters_design(design, bootstrap_mask)

            rmse_history: List[float] = [self._rmse_design(design, parameters)]
            estimate_span.set(bootstrap_rmse=rmse_history[0])
            converged = False
            iterations = 0
            for iterations in range(1, self.max_iterations + 1):
                with recorder.span("iteration", index=iterations) as it_span:
                    if self.model_voltage:
                        v_core, v_mem = self._fit_voltages(
                            parameters, v_core, v_mem
                        )
                        design = self._design_matrix(v_core, v_mem)
                    parameters = self._fit_parameters_design(design)  # step 3
                    rmse = self._rmse_design(design, parameters)
                    rmse_history.append(rmse)
                    it_span.set(rmse=rmse)
                recorder.add("estimator.iterations")
                recorder.set_gauge("estimator.rmse", rmse)
                previous = rmse_history[-2]
                if abs(previous - rmse) <= self.tolerance * max(1.0, previous):
                    converged = True
                    break
                if not self.model_voltage:
                    converged = True  # one parameter pass is a fixed point
                    break
            estimate_span.set(
                iterations=iterations,
                converged=converged,
                final_rmse=rmse_history[-1],
            )
            recorder.set_gauge(
                "estimator.converged", 1.0 if converged else 0.0
            )

        model = DVFSPowerModel(
            spec=self.spec,
            parameters=parameters,
            voltages={
                config: VoltageEstimate(float(v_core[i]), float(v_mem[i]))
                for i, config in enumerate(self._configs)
            },
        )
        predictions = design @ parameters.as_vector()
        report = EstimatorReport(
            iterations=iterations,
            converged=converged,
            rmse_history=tuple(rmse_history),
            train_mae_percent=mean_absolute_percentage_error(
                self._measured, predictions
            ),
        )
        return model, report

    # ------------------------------------------------------------------
    # Step 1 helper: bootstrap configurations F1, F2, F3
    # ------------------------------------------------------------------
    def bootstrap_configurations(self) -> List[FrequencyConfig]:
        """The F1/F2/F3 configurations step 1 bootstraps from (public for
        the training-grid ablation)."""
        return self._bootstrap_configs()

    def _bootstrap_configs(self) -> List[FrequencyConfig]:
        return select_bootstrap_configs(self.spec, self._configs)

    def _bootstrap_mask(self) -> np.ndarray:
        keys = {_key(c) for c in self._bootstrap_configs()}
        indices = {
            i for i, config in enumerate(self._configs) if _key(config) in keys
        }
        return np.isin(self._config_of_row, list(indices))

    # ------------------------------------------------------------------
    # Steps 1/3: parameter fit
    # ------------------------------------------------------------------
    def _design_matrix(
        self, v_core: np.ndarray, v_mem: np.ndarray
    ) -> np.ndarray:
        vc = v_core[self._config_of_row]
        vm = v_mem[self._config_of_row]
        core_scale = vc**2 * self._fc
        mem_scale = vm**2 * self._fm
        return np.column_stack(
            [vc, core_scale]
            + [core_scale * self._u_core[:, j] for j in range(len(CORE_COMPONENTS))]
            + [vm, mem_scale, mem_scale * self._u_dram]
        )

    def _fit_parameters(
        self,
        v_core: np.ndarray,
        v_mem: np.ndarray,
        row_mask: Optional[np.ndarray] = None,
    ) -> ModelParameters:
        return self._fit_parameters_design(
            self._design_matrix(v_core, v_mem), row_mask
        )

    def _fit_parameters_design(
        self,
        design: np.ndarray,
        row_mask: Optional[np.ndarray] = None,
    ) -> ModelParameters:
        target = self._measured
        if row_mask is not None:
            design = design[row_mask]
            target = target[row_mask]
        solution = nonnegative_least_squares(design, target)
        return ModelParameters.from_vector(solution)

    # ------------------------------------------------------------------
    # Step 2: voltage fit + monotonicity
    # ------------------------------------------------------------------
    def _fit_voltages(
        self,
        parameters: ModelParameters,
        v_core: np.ndarray,
        v_mem: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        omega = np.asarray(
            [parameters.omega_core[c] for c in CORE_COMPONENTS], dtype=float
        )
        core_activity = parameters.beta1 + self._u_core @ omega
        mem_activity = parameters.beta3 + parameters.omega_mem * self._u_dram
        if self.vectorized:
            new_core, new_mem = self._sweep_voltages_batched(
                parameters, core_activity, mem_activity, v_core, v_mem
            )
        else:
            new_core, new_mem = self._sweep_voltages_scalar(
                parameters, core_activity, mem_activity, v_core, v_mem
            )
        return self._enforce_monotonicity(new_core, new_mem)

    def _sweep_voltages_scalar(
        self,
        parameters: ModelParameters,
        core_activity: np.ndarray,
        mem_activity: np.ndarray,
        v_core: np.ndarray,
        v_mem: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One :func:`fit_voltage_pair` call per configuration (reference)."""
        new_core = v_core.copy()
        new_mem = v_mem.copy()
        for index, config in enumerate(self._configs):
            if index == self._reference_index:
                new_core[index] = new_mem[index] = 1.0
                continue
            rows = self._config_of_row == index
            vc, vm = fit_voltage_pair(
                self._measured[rows],
                config.core_mhz,
                config.memory_mhz,
                parameters.beta0,
                parameters.beta2,
                core_activity[rows],
                mem_activity[rows],
                initial=(float(v_core[index]), float(v_mem[index])),
            )
            new_core[index] = vc
            new_mem[index] = vm
        return new_core, new_mem

    def _sweep_voltages_batched(
        self,
        parameters: ModelParameters,
        core_activity: np.ndarray,
        mem_activity: np.ndarray,
        v_core: np.ndarray,
        v_mem: np.ndarray,
        bounds: Tuple[float, float] = (0.6, 1.6),
        sweeps: int = 10,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every configuration's coordinate descent, as array operations.

        The 1-D subproblem of :func:`fit_voltage_pair` only consumes its
        rows through five sums, and the coordinate-descent targets expand
        algebraically over the other voltage — so the whole sweep reduces
        to per-configuration sufficient statistics (one ``np.add.reduceat``
        each over the config-sorted rows) plus ``(n_configs,)``-shaped
        updates via the closed-form cubic minimizer.
        """
        order = self._row_order
        starts = self._segment_starts
        s_core = (self._fc * core_activity)[order]
        s_mem = (self._fm * mem_activity)[order]
        measured = self._measured[order]

        counts = self._segment_counts
        sum_sc = np.add.reduceat(s_core, starts)
        sum_sc2 = np.add.reduceat(s_core * s_core, starts)
        sum_sm = np.add.reduceat(s_mem, starts)
        sum_sm2 = np.add.reduceat(s_mem * s_mem, starts)
        sum_scm = np.add.reduceat(s_core * s_mem, starts)
        sum_m = np.add.reduceat(measured, starts)
        sum_msc = np.add.reduceat(measured * s_core, starts)
        sum_msm = np.add.reduceat(measured * s_mem, starts)

        beta0 = parameters.beta0
        beta2 = parameters.beta2
        vc = np.asarray(v_core, dtype=float)[self._segment_configs].copy()
        vm = np.asarray(v_mem, dtype=float)[self._segment_configs].copy()
        for _ in range(sweeps):
            # Core step: t_k = P_k - beta2 Vm - s_mem_k Vm^2, summed.
            sr = sum_m - beta2 * vm * counts - sum_sm * vm**2
            srs = sum_msc - beta2 * vm * sum_sc - sum_scm * vm**2
            vc = minimize_voltage_1d_stats(
                beta0, counts, sum_sc, sum_sc2, sr, srs, bounds
            )
            # Memory step: t_k = P_k - beta0 Vc - s_core_k Vc^2, summed.
            sr = sum_m - beta0 * vc * counts - sum_sc * vc**2
            srs = sum_msm - beta0 * vc * sum_sm - sum_scm * vc**2
            vm = minimize_voltage_1d_stats(
                beta2, counts, sum_sm, sum_sm2, sr, srs, bounds
            )

        new_core = v_core.copy()
        new_mem = v_mem.copy()
        new_core[self._segment_configs] = vc
        new_mem[self._segment_configs] = vm
        new_core[self._reference_index] = 1.0
        new_mem[self._reference_index] = 1.0
        return new_core, new_mem

    def _enforce_monotonicity(
        self, v_core: np.ndarray, v_mem: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Project the per-configuration voltages onto the Eq. 12 constraint
        set: non-decreasing in the domain's own frequency, with the
        reference configuration pinned at V = 1 (Eq. 5). The pin enters the
        isotonic projections with an overwhelming weight, so re-imposing it
        afterwards cannot create a monotonicity violation.

        Note that the per-configuration voltages are otherwise free: like
        the paper's estimates, they may absorb structural misfit in
        directions no tool can validate (the paper could read neither the
        memory-domain voltage nor the Tesla K40c's voltages at all).
        """
        cores = np.asarray([c.core_mhz for c in self._configs])
        memories = np.asarray([c.memory_mhz for c in self._configs])
        reference = self._configs[self._reference_index]
        pin_weight = 1.0e6

        # Core voltage: isotonic in f_core within each memory-frequency group.
        for memory in np.unique(memories):
            group = np.where(memories == memory)[0]
            order = group[np.argsort(cores[group])]
            weights = np.ones(order.size)
            if memory == reference.memory_mhz:
                weights[order == self._reference_index] = pin_weight
            v_core[order] = isotonic_regression(v_core[order], weights)

        # Memory voltage: isotonic in f_mem within each core-frequency group.
        for core in np.unique(cores):
            group = np.where(cores == core)[0]
            order = group[np.argsort(memories[group])]
            weights = np.ones(order.size)
            if core == reference.core_mhz:
                weights[order == self._reference_index] = pin_weight
            v_mem[order] = isotonic_regression(v_mem[order], weights)

        v_core[self._reference_index] = 1.0
        v_mem[self._reference_index] = 1.0
        return v_core, v_mem

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def _predict(
        self,
        parameters: ModelParameters,
        v_core: np.ndarray,
        v_mem: np.ndarray,
    ) -> np.ndarray:
        return self._design_matrix(v_core, v_mem) @ parameters.as_vector()

    def _rmse(
        self,
        parameters: ModelParameters,
        v_core: np.ndarray,
        v_mem: np.ndarray,
    ) -> float:
        return self._rmse_design(
            self._design_matrix(v_core, v_mem), parameters
        )

    def _rmse_design(
        self, design: np.ndarray, parameters: ModelParameters
    ) -> float:
        residual = design @ parameters.as_vector() - self._measured
        return float(np.sqrt(np.mean(residual**2)))


def fit_power_model(
    session: ProfilingSession,
    kernels: Optional[Sequence[KernelDescriptor]] = None,
    configs: Optional[Sequence[FrequencyConfig]] = None,
    max_iterations: int = 50,
    model_voltage: bool = True,
    workers: int = 0,
    shard_size: Optional[int] = None,
    fallback: str = "auto",
) -> Tuple[DVFSPowerModel, EstimatorReport]:
    """Collect the microbenchmark dataset and fit the model in one call.

    ``kernels`` defaults to the full 83-microbenchmark suite and ``configs``
    to the device's entire V-F grid. ``workers > 0`` (or ``"auto"``) shards
    the measurement campaign across worker processes (bitwise-identical
    dataset, hence an identical fit; see :mod:`repro.parallel`) — with
    ``fallback="auto"`` small grids transparently stay serial.
    """
    if kernels is None:
        from repro.microbench import build_suite

        kernels = build_suite()
    dataset = collect_training_dataset(
        session,
        kernels,
        configs,
        workers=workers,
        shard_size=shard_size,
        fallback=fallback,
    )
    estimator = ModelEstimator(
        dataset,
        max_iterations=max_iterations,
        model_voltage=model_voltage,
        recorder=session.recorder,
    )
    return estimator.estimate()
