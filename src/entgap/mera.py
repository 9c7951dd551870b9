"""Parametrized binary MERA states on 8 and 16 qubits.

Circuit family (open boundary, top-down): the register starts as |00> and
one top unitary acts on it; each subsequent layer doubles the register by
pairing every qubit with a fresh |0> on its right through an
isometry-generating two-qubit unitary, then applies disentanglers across
every adjacent pair straddling sibling branches. Every gate is exp(M - M^dag)
of an upper-triangular 4x4 generator (10 complex entries), so an all-zero
parameter vector gives |0...0>.

The fresh |0> is never stored: an isometry acts on its one un-embedded
qubit as the 4x2 map U[:, [0, 2]], the columns where the fresh qubit is |0>.
Every gate is one matrix product on a gate-first copy of the state, the
gate's qubits leading and every other qubit flattened behind them.

The analytic gradient backpropagates through the circuit without recording
it: the forward pass keeps only the output state, and the backward pass
walks the gates in reverse, uncomputing each gate's input from its output
as W^dag y (W^dag W = 1 holds for the unitaries and the 4x2 isometries
alike) next to the cotangent W^dag c.  A value-and-gradient call so holds a
few state-sized arrays at a time, whatever the depth; the uncomputed inputs
differ from the forward ones by rounding only.

Reduced density matrices are always contracted straight from the state
vector (see ``objective._Marginal``); a 2^16 x 2^16 operator is never
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .objective import ObjectiveConfig, _cached_state_objective, _parameter_gradient, _unitaries
from .optimize import (
    AdamConfig,
    ShotRecord,
    gaussian_entries,
    lockstep_shots,
    map_chunks,
    worker_count,
)
from .states import Dims, PartitionSpec, QuditState

GATE_DIM = 4
ENTRIES_PER_GATE = GATE_DIM * (GATE_DIM + 1) // 2  # 10


@dataclass(frozen=True)
class MeraLayout:
    """Gate schedule of the binary MERA circuit for a given qubit count."""

    num_qubits: int
    ops: tuple[tuple[int, str], ...]  # (pos, kind) per gate; kind: top/isometry/disentangler

    @property
    def num_gates(self) -> int:
        return len(self.ops)

    @property
    def num_entries(self) -> int:
        return self.num_gates * ENTRIES_PER_GATE


def mera_layout(num_qubits: int) -> MeraLayout:
    """Build the op schedule; 8 qubits -> 3 layers / 11 gates, 16 -> 4 / 26."""
    if num_qubits not in (8, 16):
        raise ValueError(f"supported qubit counts are 8 and 16, got {num_qubits}")
    ops: list[tuple[int, str]] = [(0, "top")]
    width = 2
    while width < num_qubits:
        width *= 2
        # isometry i sees 2i qubits already paired, its own qubit, then the
        # not yet paired rest: it sits at position 2i either way
        ops.extend((2 * i, "isometry") for i in range(width // 2))
        ops.extend((2 * i + 1, "disentangler") for i in range(width // 2 - 1))
    return MeraLayout(num_qubits=num_qubits, ops=tuple(ops))


@dataclass(frozen=True)
class MeraParams:
    """One packed 10-entry generator vector per gate, in schedule order."""

    entries: np.ndarray  # complex, shape (num_gates, 10)

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=np.complex128).copy()
        if ent.ndim != 2 or ent.shape[1] != ENTRIES_PER_GATE:
            raise ValueError(f"expected shape (num_gates, {ENTRIES_PER_GATE}), got {ent.shape}")
        if not np.all(np.isfinite(ent)):
            raise ValueError("gate parameters must be finite")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @property
    def num_gates(self) -> int:
        return self.entries.shape[0]


def default_mera_partition(num_qubits: int) -> PartitionSpec:
    """Four contiguous equal blocks (A, B, A', B') along the qubit line."""
    w = num_qubits // 4
    blocks = [tuple(range(i * w, (i + 1) * w)) for i in range(4)]
    return PartitionSpec(*blocks)


def mera_objective_config(num_qubits: int, q: float = 1.0, **kwargs) -> ObjectiveConfig:
    dims = Dims((2,) * num_qubits)
    return ObjectiveConfig(dims, default_mera_partition(num_qubits), q=q, **kwargs)


def _gate_unitaries(layout: MeraLayout, params: MeraParams):
    """(U, theta, V) of every gate, stacked along a leading gate axis."""
    if params.num_gates != layout.num_gates:
        raise ValueError(
            f"layout has {layout.num_gates} gates, parameters carry {params.num_gates}"
        )
    return _unitaries(params.entries.view(np.float64), GATE_DIM)


def mera_state(layout: MeraLayout, params: MeraParams) -> QuditState:
    """Run the circuit on |0...0>; all-identity gates return |0...0> itself."""
    amps = _run_circuit(layout, _gate_unitaries(layout, params)[0])
    return QuditState(Dims((2,) * layout.num_qubits), amps)


def _columns(kind: str) -> slice:
    """The columns of U a gate applies: all, or an isometry's 0 and 2, where its fresh (second) qubit is |0>."""
    return slice(None, None, 2) if kind == "isometry" else slice(None)


def _gate_first(amps: np.ndarray, pos: int, k: int) -> np.ndarray:
    """Copy of ``amps`` as (k, rest): the k-dim factor at qubit ``pos`` leads."""
    t = amps.reshape(2**pos, k, -1)
    return np.ascontiguousarray(t.transpose(1, 0, 2)).reshape(k, -1)


def _natural(y: np.ndarray, pos: int) -> np.ndarray:
    """Inverse of _gate_first: a (k, rest) array back in the natural qubit order."""
    return y.reshape(y.shape[0], 2**pos, -1).transpose(1, 0, 2).reshape(-1)


def _run_circuit(layout: MeraLayout, u: np.ndarray) -> np.ndarray:
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0
    for (pos, kind), ug in zip(layout.ops, u):
        w = ug[:, _columns(kind)]
        amps = _natural(w @ _gate_first(amps, pos, w.shape[1]), pos)
    return amps


def _circuit_grad(layout: MeraLayout, gates, amps: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
    """Backpropagate a state-space gradient through the circuit.

    ``gates`` is the stacked (U, theta, V) of _gate_unitaries and ``amps``
    the circuit's output state.  Walking the gates backward, each gate's
    input is uncomputed from its output as W^dag y, which is exact as
    W^dag W = 1 for the unitaries and the 4x2 isometries alike.  An
    isometry's gradient fills only the columns its map reads; the others
    are exact zeros, as the state does not depend on them.  Returns the
    real gradient over the flattened gate parameters.
    """
    u, theta, v = gates
    g_u = np.zeros_like(u)
    y, c = amps, cotangent
    for g in range(layout.num_gates - 1, -1, -1):
        pos, kind = layout.ops[g]
        cols = _columns(kind)
        w_dag = u[g][:, cols].conj().T
        x = w_dag @ _gate_first(y, pos, GATE_DIM)
        c_front = _gate_first(c, pos, GATE_DIM)
        g_u[g][:, cols] = c_front @ x.conj().T
        # cotangent and state through the gate: c_before = W^dag c_after
        c = _natural(w_dag @ c_front, pos)
        y = _natural(x, pos)
    return _parameter_gradient(theta, v, g_u).reshape(-1)


def _flatten(params: MeraParams) -> np.ndarray:
    return params.entries.view(np.float64).reshape(-1)


def _unflatten(vec: np.ndarray, num_gates: int) -> MeraParams:
    entries = np.ascontiguousarray(vec, dtype=np.float64).view(np.complex128)
    return MeraParams(entries.reshape(num_gates, ENTRIES_PER_GATE))


def mera_objective_value(layout: MeraLayout, params: MeraParams, cfg: ObjectiveConfig) -> float:
    amps = mera_state(layout, params).amplitudes
    return _cached_state_objective(cfg)(amps[None], want_grad=False)[0][0]


def mera_value_and_gradient(
    layout: MeraLayout,
    params: MeraParams,
    cfg: ObjectiveConfig,
    gradient: str = "analytic",
):
    """Objective value and real gradient over flattened gate parameters, by circuit backpropagation."""
    _check_gradient(gradient)
    gates = _gate_unitaries(layout, params)
    amps = _run_circuit(layout, gates[0])
    values, g_psi, _ = _cached_state_objective(cfg)(amps[None])
    return values[0], _circuit_grad(layout, gates, amps, g_psi[0])


def _check_gradient(gradient: str) -> None:
    if gradient != "analytic":
        raise ValueError(f"gradient must be 'analytic', the only one, got {gradient!r}")


def initial_mera_params(layout: MeraLayout, rng: np.random.Generator) -> MeraParams:
    """Per-gate i.i.d. complex Gaussian entries of std 1/sqrt(4)."""
    ent = gaussian_entries(layout.num_entries, GATE_DIM, rng)
    return MeraParams(ent.reshape(layout.num_gates, ENTRIES_PER_GATE))


def _mera_shots(layout: MeraLayout, cfg: ObjectiveConfig, adam: AdamConfig,
                seeds: Sequence[int]) -> list[ShotRecord]:
    """MERA shots for the seeds in one lockstep stack, evaluated one row at a time."""

    def vg(x: np.ndarray):
        rows = [mera_value_and_gradient(layout, _unflatten(r, layout.num_gates), cfg) for r in x]
        return np.array([v for v, _ in rows]), np.array([g for _, g in rows])

    def init(rng: np.random.Generator) -> np.ndarray:
        return _flatten(initial_mera_params(layout, rng))

    return lockstep_shots(cfg, adam, seeds, init, vg, "mera")


def run_mera_shot(
    layout: MeraLayout,
    cfg: ObjectiveConfig,
    adam: AdamConfig,
    seed: int,
    gradient: str = "analytic",
) -> ShotRecord:
    """One seeded MERA search shot, run by the same protocol as optimize.run_shot."""
    _check_gradient(gradient)
    return _mera_shots(layout, cfg, adam, [seed])[0]


def run_mera_search(
    layout: MeraLayout,
    cfg: ObjectiveConfig,
    adam: AdamConfig,
    seeds: Sequence[int],
    gradient: str = "analytic",
    parallelism: int = 1,
) -> list[ShotRecord]:
    """Batched MERA shots, results in seed order."""
    _check_gradient(gradient)
    seeds = list(seeds)
    return map_chunks(partial(_mera_shots, layout, cfg, adam), seeds,
                      worker_count(len(seeds), parallelism))


def mera_state_from_record(record: ShotRecord) -> QuditState:
    params = MeraParams(np.asarray(record.best_params).reshape(-1, ENTRIES_PER_GATE))
    return mera_state(mera_layout(len(record.dims)), params)
