import inspect
import json
import tracemalloc
from functools import partial, reduce

import numpy as np
import pytest

from entgap.cli import build_parser, main
from entgap.io import shot_to_dict
from entgap.mera import (
    ENTRIES_PER_GATE,
    default_mera_partition,
    initial_mera_params,
    mera_layout,
    mera_objective_config,
    mera_objective_value,
    mera_state,
    mera_state_from_record,
    mera_value_and_gradient,
    run_mera_search,
    run_mera_shot,
)
from entgap.objective import gap
from entgap.optimize import AdamConfig, state_from_record, worker_count
from entgap.states import Dims, QuditState, partial_trace

from conftest import reference_partial_trace


def test_layout_gate_counts():
    lay8 = mera_layout(8)
    assert lay8.num_gates == 11
    assert lay8.num_entries == 110
    lay16 = mera_layout(16)
    assert lay16.num_gates == 26
    assert lay16.num_entries == 260
    with pytest.raises(ValueError):
        mera_layout(4)


def test_identity_gates_give_all_zeros_state():
    lay = mera_layout(8)
    psi = mera_state(lay, np.zeros(2 * lay.num_entries))
    assert abs(psi.amplitudes[0] - 1.0) < 1e-12
    assert np.max(np.abs(psi.amplitudes[1:])) < 1e-12


def test_identity_state_has_zero_gap():
    lay = mera_layout(8)
    psi = mera_state(lay, np.zeros(2 * lay.num_entries))
    assert abs(gap(psi, default_mera_partition(8), 1.0)) < 1e-12


def test_random_mera_state_normalized(rng):
    for n in (8, 16):
        lay = mera_layout(n)
        psi = mera_state(lay, initial_mera_params(lay, rng))
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-10


def test_param_count_enforced(rng):
    lay = mera_layout(8)
    cfg = mera_objective_config(8)
    x = initial_mera_params(lay, rng)
    assert x.shape == (2 * lay.num_entries,) and x.dtype == np.float64
    # five gates' worth, one entry short, and the right count as a gate table
    for bad in (np.zeros(5 * 2 * ENTRIES_PER_GATE), x[:-2], x.reshape(lay.num_gates, -1)):
        for evaluate in (partial(mera_state, lay), partial(mera_value_and_gradient, lay, cfg=cfg)):
            with pytest.raises(ValueError, match="^expected 220 real parameters for the 11-gate 8-qubit MERA"):
                evaluate(bad)
    with pytest.raises(ValueError, match="finite"):
        mera_state(lay, np.where(np.arange(x.size) == 7, np.nan, x))


def test_search_rejects_a_layout_other_than_its_configs():
    cfg8, lay16 = mera_objective_config(8), mera_layout(16)
    with pytest.raises(ValueError, match=r"layout must be mera_layout\(8\) for the 8-qubit config"):
        run_mera_shot(lay16, cfg8, AdamConfig(steps=1), 0)
    with pytest.raises(ValueError, match=r"mera_layout\(8\)"):
        run_mera_search(lay16, cfg8, AdamConfig(steps=1), [0, 1], parallelism=2)


def test_vector_reduced_density_matches_dense_path(rng):
    # the 16-qubit shortcut, validated on 8 qubits against the loop-based oracle
    lay = mera_layout(8)
    psi = mera_state(lay, initial_mera_params(lay, rng))
    keep = (0, 1, 4, 5)
    direct = partial_trace(psi, keep).matrix
    dense = reference_partial_trace(psi.amplitudes, psi.dims.sites, keep)
    assert np.max(np.abs(direct - dense)) < 1e-12


def test_sixteen_qubit_reduced_density_without_dense_matrix(rng):
    lay = mera_layout(16)
    psi = mera_state(lay, initial_mera_params(lay, rng))
    rho = partial_trace(psi, tuple(range(8))).matrix
    assert rho.shape == (256, 256)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def _central_differences(lay, x, cfg, h):
    """Value and central differences of the MERA objective over every real coordinate."""
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xp[i] += h
        vp = mera_objective_value(lay, xp, cfg)
        xp[i] -= 2.0 * h
        vm = mera_objective_value(lay, xp, cfg)
        grad[i] = (vp - vm) / (2.0 * h)
    return mera_objective_value(lay, x, cfg), grad


def test_fd_and_analytic_gradients_agree(rng):
    lay = mera_layout(8)
    cfg = mera_objective_config(8, q=1.0)
    for _ in range(2):
        params = initial_mera_params(lay, rng)
        v_fd, g_fd = _central_differences(lay, params, cfg, 1e-5)
        v_an, g_an = mera_value_and_gradient(lay, params, cfg, "analytic")
        assert v_fd == pytest.approx(v_an, abs=1e-12)
        assert np.all(np.abs(g_fd - g_an) <= np.maximum(1e-5 * np.abs(g_fd), 1e-8))


def test_analytic_gradient_is_the_default():
    assert build_parser().parse_args(["mera", "--out", "x"]).gradient == "analytic"
    for fn in (mera_value_and_gradient, run_mera_shot, run_mera_search):
        assert inspect.signature(fn).parameters["gradient"].default == "analytic"


def test_gradient_kind_validated(rng):
    lay = mera_layout(8)
    cfg = mera_objective_config(8)
    with pytest.raises(ValueError):
        mera_value_and_gradient(lay, initial_mera_params(lay, rng), cfg, "magic")


def test_finite_difference_gradient_is_rejected(tmp_path, capsys):
    lay = mera_layout(8)
    cfg = mera_objective_config(8)
    with pytest.raises(ValueError, match="'analytic'"):
        run_mera_shot(lay, cfg, AdamConfig(steps=1), 0, gradient="fd")
    with pytest.raises(ValueError, match="'analytic'"):
        run_mera_search(lay, cfg, AdamConfig(steps=1), [0, 1], gradient="fd", parallelism=2)
    with pytest.raises(SystemExit) as exc:
        main(["mera", "--qubits", "8", "--seeds", "1", "--steps", "1", "--gradient", "fd",
              "--out", str(tmp_path / "fd")])
    assert exc.value.code == 2
    assert "invalid choice: 'fd'" in capsys.readouterr().err
    assert not (tmp_path / "fd").exists()


def test_mera_shot_deterministic():
    lay = mera_layout(8)
    cfg = mera_objective_config(8, q=1.0)
    adam = AdamConfig(steps=25)
    a = run_mera_shot(lay, cfg, adam, 2, gradient="analytic")
    b = run_mera_shot(lay, cfg, adam, 2, gradient="analytic")
    assert shot_to_dict(a) == shot_to_dict(b)
    assert a.family == "mera"


def test_mera_search_seed_order_and_parallelism():
    lay = mera_layout(8)
    cfg = mera_objective_config(8, q=1.0)
    adam = AdamConfig(steps=15)
    seeds = [3, 1, 2]
    serial = run_mera_search(lay, cfg, adam, seeds, gradient="analytic", parallelism=1)
    parallel = run_mera_search(lay, cfg, adam, seeds, gradient="analytic", parallelism=2)
    assert [r.seed for r in serial] == seeds
    assert [shot_to_dict(r) for r in serial] == [shot_to_dict(r) for r in parallel]


def test_mera_record_state_round_trip(rng):
    lay = mera_layout(8)
    cfg = mera_objective_config(8, q=1.0)
    rec = run_mera_shot(lay, cfg, AdamConfig(steps=20), 4, gradient="analytic")
    psi = mera_state_from_record(rec)
    assert abs(gap(psi, rec.partition, rec.q_trained) - rec.best_gap) < 1e-12
    assert np.array_equal(state_from_record(rec).amplitudes, psi.amplitudes)


def test_mera_search_stays_nonnegative_smoke():
    # negative-finding searches never dip below -1e-3 on this family
    lay = mera_layout(8)
    cfg = mera_objective_config(8, q=1.0)
    records = run_mera_search(lay, cfg, AdamConfig(steps=250), [0, 1], gradient="analytic")
    for rec in records:
        assert not rec.failed
        assert rec.best_gap >= -1e-3


def test_sixteen_qubit_shot_protocol_smoke():
    lay = mera_layout(16)
    cfg = mera_objective_config(16, q=1.0)
    rec = run_mera_shot(lay, cfg, AdamConfig(steps=8), 0, gradient="analytic")
    assert not rec.failed
    assert rec.dims == (2,) * 16
    assert rec.best_params.shape == (lay.num_entries,)
    psi = mera_state_from_record(rec)
    assert abs(gap(psi, rec.partition, 1.0) - rec.best_gap) < 1e-12


def test_sixteen_qubit_logs_are_identical_at_any_parallelism(tmp_path):
    # every worker runs OpenBLAS on one thread, in this process as in forked ones
    logs = []
    for par in ("1", "2"):
        out = tmp_path / f"p{par}"
        assert main(["mera", "--qubits", "16", "--seeds", "2", "--steps", "2",
                     "--parallelism", par, "--out", str(out)]) == 0
        logs.append((out / "shots.jsonl").read_bytes())
        manifest = json.loads((out / "shots.jsonl.manifest.json").read_text())
        assert manifest["workers"] == worker_count(2, int(par))
    assert logs[0] == logs[1]
    # a one-seed run rounds as that seed does inside the batch
    assert main(["mera", "--qubits", "16", "--seeds", "1", "--steps", "2",
                 "--out", str(tmp_path / "one")]) == 0
    assert (tmp_path / "one" / "shots.jsonl").read_bytes() == logs[0].splitlines(keepends=True)[0]


def test_sixteen_qubit_value_and_gradient_memory(rng):
    # the backward pass uncomputes gate inputs rather than recording them, and
    # the objective drops each density matrix and backward operand after use
    lay = mera_layout(16)
    cfg = mera_objective_config(16)
    params = initial_mera_params(lay, rng)
    mera_value_and_gradient(lay, params, cfg)  # builds the cached objective
    tracemalloc.start()
    try:
        mera_value_and_gradient(lay, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# an independent oracle of the circuit: its own gate unitaries (a Taylor
# series), its own schedule and its own contractions (dense kron operators
# at 8 qubits, tensordot on a (2,)*n tensor at 16)

# |b> -> |b, 0>: a qubit paired with a fresh |0> on its right
FRESH_ZERO = np.array([[1, 0], [0, 0], [0, 1], [0, 0]], dtype=complex)


def _taylor_expm(a: np.ndarray, squarings: int = 4, terms: int = 18) -> np.ndarray:
    """exp(a) as (sum_k (a/2^s)^k / k!)^(2^s); within 4e-15 of scipy's expm on these gates."""
    b = a / 2.0**squarings
    out = term = np.eye(len(a), dtype=complex)
    for k in range(1, terms):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _oracle_unitaries(entries: np.ndarray) -> list[np.ndarray]:
    out = []
    for row in entries:
        m = np.zeros((4, 4), dtype=complex)
        m[np.triu_indices(4)] = row
        out.append(_taylor_expm(m - m.conj().T))
    return out


def _oracle_schedule(num_qubits: int):
    """Per layer: the new width and its gate positions, isometries before disentanglers."""
    width = 2
    while width < num_qubits:
        width *= 2
        yield width, [*range(0, width - 1, 2), *range(1, width - 2, 2)]


def _dense_oracle_state(num_qubits: int, entries: np.ndarray) -> np.ndarray:
    gates = iter(_oracle_unitaries(entries))
    psi = next(gates) @ np.array([1, 0, 0, 0], dtype=complex)
    for width, positions in _oracle_schedule(num_qubits):
        psi = reduce(np.kron, [FRESH_ZERO] * (width // 2)) @ psi
        for pos in positions:
            op = reduce(np.kron, [np.eye(2**pos), next(gates), np.eye(2 ** (width - pos - 2))])
            psi = op @ psi
    return psi


def _tensordot_apply(psi: np.ndarray, op: np.ndarray, pos: int, k: int) -> np.ndarray:
    """A (4, 2^k) map from the k qubits at ``pos`` onto two qubits there."""
    t = op.reshape((2, 2) + (2,) * k)
    out = np.tensordot(t, psi, axes=(list(range(2, 2 + k)), list(range(pos, pos + k))))
    return np.moveaxis(out, [0, 1], [pos, pos + 1])


def _tensordot_oracle_state(num_qubits: int, entries: np.ndarray) -> np.ndarray:
    gates = iter(_oracle_unitaries(entries))
    psi = _tensordot_apply(np.array([[1, 0], [0, 0]], dtype=complex), next(gates), 0, 2)
    for width, positions in _oracle_schedule(num_qubits):
        for j in range(width // 2):  # qubit j sits at 2j once the j before it are paired
            psi = _tensordot_apply(psi, FRESH_ZERO, 2 * j, 1)
        for pos in positions:
            psi = _tensordot_apply(psi, next(gates), pos, 2)
    return psi.reshape(-1)


def test_mera_state_matches_dense_kron_oracle(rng):
    lay = mera_layout(8)
    params = initial_mera_params(lay, rng)
    oracle = _dense_oracle_state(8, params.view(complex).reshape(lay.num_gates, ENTRIES_PER_GATE))
    assert np.max(np.abs(mera_state(lay, params).amplitudes - oracle)) < 1e-13


def test_mera_state_matches_tensordot_oracle_at_sixteen_qubits(rng):
    lay = mera_layout(16)
    params = initial_mera_params(lay, rng)
    oracle = _tensordot_oracle_state(16, params.view(complex).reshape(lay.num_gates, ENTRIES_PER_GATE))
    assert np.max(np.abs(mera_state(lay, params).amplitudes - oracle)) < 1e-13


def test_mera_gradient_matches_oracle_differences(rng):
    # real coordinates 20 g + j of gate g: the top gate, isometries (gates 1,
    # 2, 4-7) and disentanglers (gates 3, 8-10), in real and imaginary parts
    lay = mera_layout(8)
    cfg = mera_objective_config(8, q=1.0)
    x = initial_mera_params(lay, rng)
    value, grad = mera_value_and_gradient(lay, x, cfg)

    def oracle_gap(xv: np.ndarray) -> float:
        amps = _dense_oracle_state(8, xv.view(complex).reshape(lay.num_gates, ENTRIES_PER_GATE))
        return gap(QuditState(Dims((2,) * 8), amps), default_mera_partition(8), 1.0)

    assert oracle_gap(x) == pytest.approx(value, abs=1e-12)
    h = 1e-5
    for idx in (3, 20, 27, 53, 65, 101, 138, 191):
        step = np.zeros_like(x)
        step[idx] = h
        fd = (oracle_gap(x + step) - oracle_gap(x - step)) / (2 * h)
        assert abs(fd - grad[idx]) <= max(1e-6 * abs(fd), 1e-8), idx
