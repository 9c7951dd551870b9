"""ADAM descent on the real parameter rows of a search family, batched shots, and q-sweeps.

A :class:`Family` is the unitary search (:func:`unitary_family`) or MERA
(``mera.mera_family``); both run through :func:`run_search`.  Shots run in
lockstep: :func:`descend` advances a stack of S shots (S, n) with one
stacked objective call and one :func:`adam_step` call per step and tracks
each shot's best point and trace.  A shot whose evaluation raises,
or whose objective or gradient is not finite, ends at that step with what
it found before it and a note of why; the other shots step on.  A batch
splits its seeds into contiguous chunks, one per worker process
(:func:`worker_count`): ``parallelism`` of them when it is above one, else
one per thread of the OpenBLAS budget (``OPENBLAS_NUM_THREADS``, or the
library's default), so the budget is spent on shots rather than inside
BLAS calls.  Every worker runs OpenBLAS on one thread.  A single
worker runs in this process; more are forked (:func:`map_chunks`).

Reproducibility contract: every shot owns a PCG64 generator seeded with its
shot seed, shot seeds derive from a master seed as ``master ^ shot_index``,
every stacked operation treats shots independently (a shot steps bit for
bit as it would alone), every batch runs its BLAS calls on one OpenBLAS
thread, and batch results are returned in seed order regardless of the
worker count, so (seed, configs) fully determine each record.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
from dataclasses import dataclass
from functools import partial
from math import isfinite
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .entropy import EntropyConfig
from .objective import (
    GapProfile,
    ObjectiveConfig,
    stacked_value_and_gradient,
    state_from_params,
)
from .states import Dims, PartitionSpec, QuditState


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class AdamConfig:
    """Step size and step count of ADAM with the standard moments (ADAM_BETA1, ADAM_BETA2)."""

    learning_rate: float = 0.01
    steps: int = 5000

    def __post_init__(self) -> None:
        if not (isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def adam_step(
    params: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, cfg: AdamConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bias-corrected ADAM update t >= 1 of real parameters and their moments, one row or a stack."""
    if t < 1:
        raise ValueError("step index t must be >= 1")
    if params.shape != grad.shape or params.shape != m.shape:
        raise ValueError("parameter, gradient, and moment shapes disagree")
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient in adam_step")
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), m, v


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


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Per-shot seeds: master_seed XOR shot_index."""
    return [int(master_seed) ^ i for i in range(count)]


def gaussian_row(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. complex Gaussian entries of std 1/sqrt(d) as a real row: the start of both search families."""
    raw = rng.standard_normal(2 * n)
    # divided as complex numbers, which rounds differently from dividing raw
    return ((raw[0::2] + 1j * raw[1::2]) / np.sqrt(2.0 * d)).view(np.float64)


StackValueGrad = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _evaluate(value_and_grad: StackValueGrad, x: np.ndarray):
    """Objectives and gradients of the rows of x, and a note for each row that raised.

    If the stacked call raises, each row is evaluated alone to find the rows at fault.
    """
    try:
        values, grads = value_and_grad(x)
        return np.asarray(values, dtype=np.float64), grads, {}
    except Exception:
        pass
    values, grads, notes = np.full(len(x), np.nan), np.zeros_like(x), {}
    for j in range(len(x)):
        try:
            value, grad = value_and_grad(x[j:j + 1])
        except FloatingPointError as exc:
            notes[j] = str(exc)
        except Exception as exc:
            notes[j] = f"{type(exc).__name__}: {exc}"
        else:
            values[j], grads[j] = value[0], grad[0]
    return values, grads, notes


class Stopped(Exception):
    """A stack abandoned mid-descent because its worker's batch was stopped."""


# set by a batch in each worker it forks (_start_worker): once it is set,
# every worker's next step raises Stopped
_stop = None


def descend(x0: np.ndarray, value_and_grad: StackValueGrad, adam: AdamConfig) -> list[tuple]:
    """Run ADAM in lockstep from every row of x0 (S, n), tracking each row's best objective.

    ``value_and_grad`` maps a stack of points (k, n) to objectives (k,) and
    gradients (k, n) and must treat rows independently, so a row steps bit for
    bit as it would alone.  A row whose evaluation raises, or whose objective
    or gradient is not finite, ends at that step and keeps what it found
    before it; its note says why.  The other rows step on.  Once the worker's
    batch is stopped, the next step raises :class:`Stopped`.

    Returns, per row, (best_value, best_x, steps_run, trace, failed, note).
    The objective is evaluated at the pre-update point of every step, so the
    trace has one entry per completed step and best_value == min(trace); a
    row that ends at step 1 keeps its start point, objective inf and no steps.
    """
    x = np.array(x0, dtype=np.float64)
    rows = np.arange(len(x))  # the x0 row of each stack row
    m, v = np.zeros_like(x), np.zeros_like(x)
    traces = np.empty((len(x), adam.steps))
    best = np.full(len(x), np.inf)
    best_x = x.copy()
    steps_run = np.full(len(x), adam.steps)
    notes = [""] * len(x)
    for t in range(1, adam.steps + 1):
        if _stop is not None and _stop.is_set():
            raise Stopped(f"stopped at step {t}")
        values, grads, raised = _evaluate(value_and_grad, x)
        live = np.isfinite(values) & np.all(np.isfinite(grads), axis=1)
        if not live.all():
            for j in np.flatnonzero(~live):
                if j in raised:
                    note = raised[j]
                elif not np.isfinite(values[j]):
                    note = f"non-finite objective {float(values[j])!r}"
                else:
                    note = "non-finite gradient"
                steps_run[rows[j]], notes[rows[j]] = t - 1, note
            x, values, grads, rows = x[live], values[live], grads[live], rows[live]
            m, v = m[live], v[live]
            if not len(rows):
                break
        traces[rows, t - 1] = values
        better = values < best[rows]
        best[rows[better]] = values[better]
        best_x[rows[better]] = x[better]
        x, m, v = adam_step(x, grads, m, v, t, adam)
    return [(float(best[i]), best_x[i].copy(), int(steps_run[i]), traces[i, :steps_run[i]].copy(),
             bool(steps_run[i] < adam.steps), notes[i]) for i in range(len(best))]


@dataclass(frozen=True)
class Family:
    """A search family: how a shot starts, what it steps, and the state of a real parameter row."""

    name: str  # ShotRecord.family
    config: ObjectiveConfig
    init: Callable[[np.random.Generator], np.ndarray]  # a shot's start row, drawn from its generator
    value_and_grad: StackValueGrad  # a stack of rows to objectives and gradients, as descend takes
    state: Callable[[np.ndarray], QuditState]


def unitary_family(cfg: ObjectiveConfig) -> Family:
    """The gap search: exp(M - M^dag) of one d(d+1) real row applied to the equal superposition."""
    d = cfg.dims.total

    def vg(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, grads, _ = stacked_value_and_gradient(x, cfg)
        return values, grads

    return Family("unitary", cfg, partial(gaussian_row, d * (d + 1) // 2, d), vg,
                  partial(state_from_params, config=cfg))


# shots stepped as one stack: memory grows with the stack, speed barely past this
MAX_STACK = 64


def lockstep_shots(family: Family, adam: AdamConfig, seeds: Sequence[int]) -> list[ShotRecord]:
    """Seeded shots of a search family, stepped together by :func:`descend`.

    Shot ``seed`` starts at ``family.init(rng)``, where ``rng`` is its own
    PCG64 generator seeded with ``seed``, so each record depends on its seed
    alone.  Seeds are stepped in stacks of at most MAX_STACK.  The best real
    point is recorded as complex entries, the real row viewed as complex128.
    Records come in seed order.
    """
    cfg, outcomes = family.config, []
    for i in range(0, len(seeds), MAX_STACK):
        x0 = np.stack([family.init(np.random.Generator(np.random.PCG64(s))) for s in seeds[i:i + MAX_STACK]])
        outcomes += descend(x0, family.value_and_grad, adam)
    return [
        ShotRecord(seed=int(seed), dims=cfg.dims.sites, partition=cfg.partition, q_trained=cfg.q,
                   best_gap=best, best_params=best_x.view(np.complex128), steps_run=steps_run,
                   objective_trace=trace, failed=failed, note=note, family=family.name)
        for seed, (best, best_x, steps_run, trace, failed, note) in zip(seeds, outcomes)
    ]


def _openblas_call(name: str, *args):
    """Call ``name`` in numpy's bundled OpenBLAS; its result, or None without that library."""
    out = None
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas64_*.so"):
        with contextlib.suppress(OSError, AttributeError):
            out = getattr(ctypes.CDLL(str(lib)), name)(*args)
    return out


def _set_blas_threads(count: int) -> None:
    _openblas_call("scipy_openblas_set_num_threads64_", ctypes.c_int(count))


def blas_threads() -> Optional[int]:
    """The thread count numpy's bundled OpenBLAS is set to in this process; None without it.

    It is the process's thread budget: :func:`worker_count` spends it on worker processes.
    """
    return _openblas_call("scipy_openblas_get_num_threads64_")


@contextlib.contextmanager
def _blas_on_one_thread():
    """OpenBLAS on one thread inside the block, back at its own count after it."""
    # the library's own count, even where blas_threads is replaced to state another budget
    before = _openblas_call("scipy_openblas_get_num_threads64_")
    _set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            _set_blas_threads(before)


def worker_count(count: int, parallelism: int) -> int:
    """Worker processes a batch of ``count`` seeds runs on.

    ``parallelism`` above one asks for that many; one asks for one per
    thread of the OpenBLAS budget, :func:`blas_threads` (one on another BLAS
    build).  Never more workers than seeds or than ``os.cpu_count()``.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    wanted = parallelism if parallelism > 1 else blas_threads() or 1
    return min(wanted, count, os.cpu_count() or 1)


def run_search(
    family: Family, adam: AdamConfig, seeds: Sequence[int], parallelism: int = 1
) -> list[ShotRecord]:
    """Independent shots of a search family for every seed, results in seed order."""
    seeds = list(seeds)
    return map_chunks(partial(lockstep_shots, family, adam), seeds, worker_count(len(seeds), parallelism))


def run_batch(
    cfg: ObjectiveConfig,
    adam: AdamConfig,
    seeds: Sequence[int],
    parallelism: int = 1,
) -> list[ShotRecord]:
    """Independent gap-search shots for every seed, results in seed order."""
    return run_search(unitary_family(cfg), adam, seeds, parallelism)


def run_shot(cfg: ObjectiveConfig, adam: AdamConfig, seed: int) -> ShotRecord:
    """One seeded shot of the gap search: :func:`run_batch` on one seed."""
    return run_batch(cfg, adam, [seed])[0]


def _split(seeds: list, k: int) -> list[list]:
    """``k`` contiguous chunks of the seeds, sizes differing by one at most."""
    return [seeds[len(seeds) * i // k:len(seeds) * (i + 1) // k] for i in range(k)]


# the chunk runner of a forked worker (_start_worker)
_run = None


def _start_worker(run: Callable[[list], list], stop) -> None:
    """Pool initializer: run ``run`` on the chunk, stop once ``stop`` is set, leave Ctrl-C to the parent."""
    global _run, _stop
    _run, _stop = run, stop
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_chunk(seeds: list) -> list:
    return _run(seeds)


def map_chunks(run: Callable[[list], list], seeds: list, workers: int) -> list[ShotRecord]:
    """``run`` on ``workers`` contiguous chunks of the seeds, one per worker, in seed order.

    OpenBLAS runs on one thread in every worker, so a shot rounds alike
    however the seeds are split.  One worker runs in this process; more are
    forked, and inherit ``run`` and the loaded modules.  When a worker
    raises, or this process is interrupted, the other workers stop at their
    next step (:class:`Stopped`), and the exception propagates once every
    worker has exited.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    chunks = _split(seeds, min(workers, len(seeds)))
    with _blas_on_one_thread():  # forked workers inherit the one thread
        if len(chunks) == 1:
            return run(seeds)
        import multiprocessing  # only a pool pays for these imports
        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

        ctx = multiprocessing.get_context("fork")
        stop = ctx.Event()
        with ProcessPoolExecutor(len(chunks), ctx, _start_worker, (run, stop)) as pool:
            try:
                futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
                wait(futures, return_when=FIRST_EXCEPTION)
            finally:  # a worker raised, or this process was interrupted
                stop.set()
    for f in futures:  # the first worker exception that is not a stop
        if f.exception() is not None and not isinstance(f.exception(), Stopped):
            raise f.exception()
    return [rec for f in futures for rec in f.result()]


# ---------------------------------------------------------------------------
# q-sweeps


def state_gap_curve(
    state: QuditState,
    q_grid: Sequence[float],
    partition: PartitionSpec,
    config: EntropyConfig = EntropyConfig(),
) -> list[tuple[float, float]]:
    """The gap of a single state at each q on the grid (no minimization)."""
    gaps = GapProfile(state, partition, config).gaps(q_grid)
    return [(float(q), g) for q, g in zip(q_grid, gaps.tolist())]


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
    gaps = np.array([GapProfile(s, partition, config).gaps(q_grid) for s in states])
    first = gaps.argmin(axis=0)  # the first state attaining each minimum
    return [
        SweepRecord(q=float(q), min_gap=float(gaps[k, j]), argmin_state_id=str(ids[k]))
        for j, (q, k) in enumerate(zip(q_grid, first))
    ]


def state_from_record(record: ShotRecord) -> QuditState:
    """Rebuild the state at a shot's best parameters through the family that found it."""
    from .mera import mera_family  # mera imports this module

    builders = {"unitary": unitary_family, "mera": mera_family}
    if record.family not in builders:
        raise ValueError(f"unknown search family {record.family!r}, expected one of: {', '.join(builders)}")
    family = builders[record.family](ObjectiveConfig(Dims(record.dims), record.partition, q=record.q_trained))
    return family.state(np.asarray(record.best_params, dtype=np.complex128).view(np.float64))
