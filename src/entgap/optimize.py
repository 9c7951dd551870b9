"""ADAM descent on the unitary parametrization, batched shots, and q-sweeps.

Reproducibility contract: every shot owns a PCG64 generator seeded with its
shot seed, shot seeds derive from a master seed as ``master ^ shot_index``,
and batch results are returned in seed order regardless of the execution
parallelism, so (seed, configs) fully determine each record.
"""

from __future__ import annotations

import contextlib
import ctypes
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .entropy import EntropyConfig
from .objective import (
    GapProfile,
    ObjectiveConfig,
    UTParams,
    _complex_to_real,
    _real_to_complex,
    objective_value_and_gradient,
    state_from_params,
)
from .states import Dims, PartitionSpec, QuditState


@dataclass(frozen=True)
class AdamConfig:
    """Standard first/second-moment bias-corrected descent hyperparameters."""

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    steps: int = 5000

    def __post_init__(self) -> None:
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class AdamState:
    """First and second moment accumulators."""

    m: np.ndarray
    v: np.ndarray

    @staticmethod
    def zeros(n: int) -> "AdamState":
        return AdamState(np.zeros(n), np.zeros(n))


def adam_step(
    params: np.ndarray, grad: np.ndarray, moment_state: AdamState, t: int, cfg: AdamConfig
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected ADAM update on a real parameter vector (t >= 1)."""
    if t < 1:
        raise ValueError("step index t must be >= 1")
    if params.shape != grad.shape or params.shape != moment_state.m.shape:
        raise ValueError("parameter, gradient, and moment shapes disagree")
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient in adam_step")
    m = cfg.beta1 * moment_state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * moment_state.v + (1.0 - cfg.beta2) * grad * grad
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    new_params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return new_params, AdamState(m, v)


@dataclass(frozen=True)
class ShotRecord:
    """Outcome of one seeded optimization shot."""

    seed: int
    dims: tuple[int, ...]
    partition: PartitionSpec
    q_trained: float
    best_gap: float  # best objective: the penalized one when the penalty is on
    best_params: np.ndarray  # complex entries at the best objective
    steps_run: int
    objective_trace: np.ndarray
    failed: bool = False
    note: str = ""
    family: str = "unitary"


@dataclass(frozen=True)
class SweepRecord:
    """One (q, minimal gap) sample over a state set."""

    q: float
    min_gap: float
    argmin_state_id: str


def derive_seed(master_seed: int, shot_index: int) -> int:
    """Per-shot seed: master_seed XOR shot_index."""
    return int(master_seed) ^ int(shot_index)


def derive_seeds(master_seed: int, count: int) -> list[int]:
    return [derive_seed(master_seed, i) for i in range(count)]


def initial_params(d: int, rng: np.random.Generator) -> UTParams:
    """I.i.d. complex Gaussian entries of std 1/sqrt(d) (per complex entry)."""
    n = UTParams.num_entries(d)
    raw = rng.standard_normal(2 * n)
    return UTParams(d, (raw[0::2] + 1j * raw[1::2]) / np.sqrt(2.0 * d))


ValueGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


def descend(
    x0: np.ndarray,
    value_and_grad: ValueGrad,
    adam: AdamConfig,
) -> tuple[float, np.ndarray, int, list[float], bool, str]:
    """Run ADAM from x0, tracking the best objective over the whole trajectory.

    Returns (best_value, best_x, steps_run, trace, failed, note).  The
    objective is evaluated at the pre-update point of every step, so the
    trace has one entry per completed step and best_value == min(trace).
    """
    x = x0.copy()
    state = AdamState.zeros(x.shape[0])
    trace: list[float] = []
    best_value = np.inf
    best_x = x.copy()
    for t in range(1, adam.steps + 1):
        try:
            value, grad = value_and_grad(x)
        except FloatingPointError as exc:
            return best_value, best_x, t - 1, trace, True, str(exc)
        if not np.isfinite(value):
            return best_value, best_x, t - 1, trace, True, f"non-finite objective {value!r}"
        trace.append(value)
        if value < best_value:
            best_value = value
            best_x = x.copy()
        x, state = adam_step(x, grad, state, t, adam)
    return best_value, best_x, len(trace), trace, False, ""


def descend_shot(
    cfg: ObjectiveConfig, adam: AdamConfig, seed: int,
    init: Callable[[np.random.Generator], np.ndarray], value_and_grad: ValueGrad, family: str,
) -> ShotRecord:
    """One seeded shot of either search family: ADAM on ``value_and_grad`` from ``init(rng)``.

    ``rng`` is the shot's own PCG64 generator, seeded with ``seed``.  The best
    real point is recorded as complex entries (interleaved real/imaginary pairs).
    """
    x0 = init(np.random.Generator(np.random.PCG64(seed)))
    best, best_x, steps_run, trace, failed, note = descend(x0, value_and_grad, adam)
    return ShotRecord(
        seed=int(seed),
        dims=cfg.dims.sites,
        partition=cfg.partition,
        q_trained=cfg.q,
        best_gap=float(best),
        best_params=_real_to_complex(best_x),
        steps_run=steps_run,
        objective_trace=np.asarray(trace),
        failed=failed,
        note=note,
        family=family,
    )


def run_shot(cfg: ObjectiveConfig, adam: AdamConfig, seed: int) -> ShotRecord:
    """One seeded shot of the gap search; deterministic in (cfg, adam, seed)."""
    d = cfg.dims.total

    def vg(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad, _ = objective_value_and_gradient(UTParams(d, _real_to_complex(x)), cfg)
        return value, grad

    def init(rng: np.random.Generator) -> np.ndarray:
        return _complex_to_real(initial_params(d, rng).entries)

    return descend_shot(cfg, adam, seed, init, vg, "unitary")


def guarded_shot(
    shot: Callable[[int], ShotRecord], cfg: ObjectiveConfig, num_entries: int, family: str,
    seed: int,
) -> ShotRecord:
    """``shot(seed)``, or if it raises a record of no steps, objective inf, the error as note."""
    try:
        return shot(seed)
    except Exception as exc:  # record the failure, keep the batch going
        return ShotRecord(
            seed=int(seed),
            dims=cfg.dims.sites,
            partition=cfg.partition,
            q_trained=cfg.q,
            best_gap=float("inf"),
            best_params=np.zeros(num_entries, dtype=np.complex128),
            steps_run=0,
            objective_trace=np.zeros(0),
            failed=True,
            note=f"{type(exc).__name__}: {exc}",
            family=family,
        )


def _one_blas_thread() -> None:
    """Pool initializer: one thread for numpy's bundled OpenBLAS, a no-op without it."""
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas64_*.so"):
        with contextlib.suppress(OSError, AttributeError):
            ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_(ctypes.c_int(1))


def run_batch(
    cfg: ObjectiveConfig,
    adam: AdamConfig,
    seeds: Sequence[int],
    parallelism: int = 1,
) -> list[ShotRecord]:
    """Independent shots for every seed, results in seed order."""
    worker = partial(guarded_shot, partial(run_shot, cfg, adam), cfg,
                     UTParams.num_entries(cfg.dims.total), "unitary")
    return map_shots(worker, list(seeds), parallelism)


def map_shots(worker: Callable, jobs: list, parallelism: int) -> list[ShotRecord]:
    """``worker`` over the jobs, in order; in one-BLAS-thread workers when parallelism > 1."""
    if not jobs:
        raise ValueError("seeds must be non-empty")
    if parallelism <= 1 or len(jobs) == 1:
        return [worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=parallelism, initializer=_one_blas_thread) as pool:
        return list(pool.map(worker, jobs))


# ---------------------------------------------------------------------------
# q-sweeps


def state_gap_curve(
    state: QuditState,
    q_grid: Sequence[float],
    partition: PartitionSpec,
    config: EntropyConfig = EntropyConfig(),
) -> list[tuple[float, float]]:
    """The gap of a single state at each q on the grid (no minimization)."""
    prof = GapProfile(state, partition, config)
    return [(float(q), prof.gap_at(q)) for q in q_grid]


def sweep_min_gap(
    states: Sequence[QuditState],
    q_grid: Sequence[float],
    partition: PartitionSpec,
    config: EntropyConfig = EntropyConfig(),
    ids: Optional[Sequence[str]] = None,
) -> list[SweepRecord]:
    """At each q, the smallest gap over the state set and which state attains it."""
    if not states or not len(q_grid):
        raise ValueError("states and q_grid must be non-empty")
    if ids is None:
        ids = [f"state{i}" for i in range(len(states))]
    if len(ids) != len(states):
        raise ValueError("ids must match states")
    profiles = [GapProfile(s, partition, config) for s in states]
    out = []
    for q in q_grid:
        gaps = [prof.gap_at(q) for prof in profiles]
        k = int(np.argmin(gaps))
        out.append(SweepRecord(q=float(q), min_gap=float(gaps[k]), argmin_state_id=str(ids[k])))
    return out


def state_from_record(record: ShotRecord) -> QuditState:
    """Rebuild the state at a shot's best parameters, for either search family."""
    if record.family == "mera":
        from .mera import mera_state_from_record  # mera imports this module

        return mera_state_from_record(record)
    cfg = ObjectiveConfig(Dims(record.dims), record.partition, q=record.q_trained)
    return state_from_params(UTParams(cfg.dims.total, record.best_params), cfg)
