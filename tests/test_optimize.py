import ctypes
import math
from pathlib import Path

import numpy as np
import pytest

from entgap.entropy import EntropyConfig
from entgap.io import shot_to_dict
from entgap.objective import ObjectiveConfig, UTParams, gap
from entgap.optimize import (
    AdamConfig,
    AdamState,
    GapProfile,
    adam_step,
    blas_threads,
    derive_seeds,
    map_shots,
    run_batch,
    run_shot,
    state_from_record,
    state_gap_curve,
    sweep_min_gap,
)
from entgap.states import Dims, QuditState, default_partition

from conftest import bell_pair, load_fixture_state, random_state


def small_config(dims_t=(2, 2, 2, 2), q=1.0):
    dims = Dims(dims_t)
    return ObjectiveConfig(dims, default_partition(dims), q=q)


def test_adam_zero_gradient_no_update():
    params = np.array([1.0, -2.0, 3.0])
    new, state = adam_step(params, np.zeros(3), AdamState.zeros(3), 1, AdamConfig())
    assert np.array_equal(new, params)


def test_adam_first_step_is_signed_lr():
    cfg = AdamConfig(learning_rate=0.01)
    g = np.array([3.0, -0.2, 1e-3])
    new, _ = adam_step(np.zeros(3), g, AdamState.zeros(3), 1, cfg)
    # first bias-corrected step reduces to -lr * g/(|g| + eps)
    assert np.allclose(new, -cfg.learning_rate * np.sign(g), rtol=1e-4)


def test_adam_minimizes_quadratic():
    cfg = AdamConfig(learning_rate=0.1)
    x = np.array([1.0])
    state = AdamState.zeros(1)
    for t in range(1, 501):
        x, state = adam_step(x, 2.0 * x, state, t, cfg)
    assert abs(x[0]) < 1e-2


def test_adam_validation():
    with pytest.raises(ValueError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ValueError):
        AdamConfig(steps=0)
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(2), AdamState.zeros(2), 0, AdamConfig())
    with pytest.raises(FloatingPointError):
        adam_step(np.zeros(2), np.array([np.nan, 0.0]), AdamState.zeros(2), 1, AdamConfig())


def test_derive_seeds_xor_rule():
    assert derive_seeds(0, 4) == [0, 1, 2, 3]
    assert derive_seeds(12345, 3) == [12345, 12344, 12347]


def test_run_shot_deterministic():
    cfg = small_config()
    adam = AdamConfig(steps=120)
    a = run_shot(cfg, adam, 7)
    b = run_shot(cfg, adam, 7)
    assert a.best_gap == b.best_gap
    assert np.array_equal(a.best_params, b.best_params)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert shot_to_dict(a) == shot_to_dict(b)


def test_run_shot_best_tracks_trace_minimum():
    cfg = small_config()
    rec = run_shot(cfg, AdamConfig(steps=150), 3)
    assert rec.best_gap == pytest.approx(float(np.min(rec.objective_trace)), abs=0)
    assert rec.best_gap <= rec.objective_trace[0]
    assert rec.steps_run == 150
    psi = state_from_record(rec)
    assert abs(gap(psi, cfg.partition, cfg.q) - rec.best_gap) < 1e-12


def test_run_shot_q2_never_negative():
    cfg = small_config(q=2.0)
    for seed in range(3):
        rec = run_shot(cfg, AdamConfig(steps=250), seed)
        assert rec.best_gap >= -1e-9


def test_counterexample_search_finds_violation():
    # the headline search: negative gap at q=1 on [3,3,2,2]
    cfg = small_config((3, 3, 2, 2), q=1.0)
    rec = run_shot(cfg, AdamConfig(steps=1500), 0)
    assert not rec.failed
    assert rec.best_gap <= -1e-3


@pytest.mark.parametrize("dims_t,steps", [((4, 4, 2, 2), 1000), ((5, 5, 2, 2), 1000)])
def test_counterexample_search_larger_dims(dims_t, steps):
    cfg = small_config(dims_t, q=1.0)
    rec = run_shot(cfg, AdamConfig(steps=steps), 0)
    assert not rec.failed
    assert rec.best_gap <= -1e-3


def test_run_batch_single_equals_run_shot():
    cfg = small_config()
    adam = AdamConfig(steps=80)
    batch = run_batch(cfg, adam, [5])
    solo = run_shot(cfg, adam, 5)
    assert shot_to_dict(batch[0]) == shot_to_dict(solo)


def test_run_batch_parallelism_invariant():
    cfg = small_config()
    adam = AdamConfig(steps=80)
    seeds = [0, 1, 2]
    serial = run_batch(cfg, adam, seeds, parallelism=1)
    parallel = run_batch(cfg, adam, seeds, parallelism=2)
    assert [shot_to_dict(r) for r in serial] == [shot_to_dict(r) for r in parallel]
    assert [r.seed for r in parallel] == seeds


OPENBLAS = sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas64_*.so"))


def _openblas_threads(_job=None) -> int:
    return ctypes.CDLL(str(OPENBLAS[0])).scipy_openblas_get_num_threads64_()


@pytest.mark.skipif(not OPENBLAS, reason="numpy does not bundle scipy-openblas")
def test_shot_workers_run_one_blas_thread():
    before = _openblas_threads()
    assert blas_threads() == before  # what every manifest records
    assert map_shots(_openblas_threads, [0, 1], parallelism=2) == [1, 1]
    assert _openblas_threads() == before  # the calling process keeps its threads


def test_descend_aborts_on_nonfinite_objective():
    from entgap.optimize import descend

    calls = {"n": 0}

    def vg(x):
        calls["n"] += 1
        values = np.sum(x * x, axis=1)
        if calls["n"] > 3:
            values[x[:, 0] > 0.75] = float("nan")  # only the second row goes bad
        return values, 2.0 * x

    ok, bad = descend(np.array([[0.5, 0.5], [1.0, -1.0]]), vg, AdamConfig(steps=50))
    best, best_x, steps_run, trace, failed, note = bad
    assert failed and "non-finite" in note
    assert steps_run == 3 and len(trace) == 3
    assert np.isfinite(best) and best == min(trace)
    assert not ok[4] and ok[2] == 50 and len(ok[3]) == 50


def test_descend_aborts_on_floating_point_error():
    from entgap.optimize import descend

    def vg(x):
        if np.any(x[:, 0] > 0.5):  # the second row starts here
            raise FloatingPointError("gradient blew up")
        return np.sum(x * x, axis=1), 2.0 * x

    ok, bad = descend(np.array([[0.0, 0.3], [1.0, 0.0]]), vg, AdamConfig(steps=10))
    best, _, steps_run, trace, failed, note = bad
    assert failed and "blew up" in note
    assert steps_run == 0 and len(trace) == 0
    assert not ok[4] and ok[2] == 10


def _dicts(records):
    return [shot_to_dict(r) for r in records]


@pytest.mark.parametrize(
    "dims_t,penalty,count",
    [((3, 3, 2, 2), False, 16), ((3, 3, 2, 2), True, 16), ((4, 4, 2, 2), False, 8)],
)
def test_lockstep_batch_equals_each_seed_alone_and_any_split(dims_t, penalty, count):
    # these stacks pass numpy's 256 KiB threshold for reusing a temporary as an
    # output (13 states at d = 36, 4 at d = 64), where a swapped complex product
    # rounds differently
    dims = Dims(dims_t)
    cfg = ObjectiveConfig(dims, default_partition(dims), penalty_enabled=penalty)
    adam = AdamConfig(steps=30)
    seeds = derive_seeds(7, count)
    batch = _dicts(run_batch(cfg, adam, seeds))
    assert batch == _dicts([run_shot(cfg, adam, s) for s in seeds])
    assert batch == _dicts(run_batch(cfg, adam, seeds, parallelism=2))


def test_lockstep_switches_the_hinge_per_row(monkeypatch):
    import entgap.optimize as opt

    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), penalty_enabled=True)
    adam = AdamConfig(steps=30)
    seeds = list(range(16))
    real = opt.stacked_value_and_gradient
    mixed = []

    def spy(x, c, want_grad=True):
        values, grads, extras = real(x, c, want_grad)
        on = extras["max_tmi"] > 0.0
        mixed.append(bool(on.any() and not on.all()))
        return values, grads, extras

    monkeypatch.setattr(opt, "stacked_value_and_gradient", spy)
    batch = _dicts(run_batch(cfg, adam, seeds))
    monkeypatch.undo()
    assert any(mixed)  # some steps penalize some rows and not others
    assert batch == _dicts([run_shot(cfg, adam, s) for s in seeds])


def test_seeds_beyond_one_stack_run_in_further_stacks(monkeypatch):
    import entgap.optimize as opt

    cfg, adam, seeds = small_config(), AdamConfig(steps=20), list(range(5))
    whole = _dicts(run_batch(cfg, adam, seeds))
    real = opt.stacked_value_and_gradient
    sizes = set()

    def spy(x, c, want_grad=True):
        sizes.add(len(x))
        return real(x, c, want_grad)

    monkeypatch.setattr(opt, "stacked_value_and_gradient", spy)
    monkeypatch.setattr(opt, "MAX_STACK", 2)
    assert _dicts(run_batch(cfg, adam, seeds)) == whole
    assert sizes == {1, 2}


FAULT_STEP = 5


def _fail_one_row(monkeypatch, kind, row=1):
    """From the FAULT_STEP-th stacked call on, the point stack row ``row`` held then fails."""
    import entgap.optimize as opt

    real = opt.stacked_value_and_gradient
    seen = {"calls": 0, "bad": None}

    def flaky(x, cfg, want_grad=True):
        if len(x) > 1:
            seen["calls"] += 1
            if seen["calls"] == FAULT_STEP:
                seen["bad"] = x[row].copy()
        hit = [j for j in range(len(x)) if seen["bad"] is not None and np.array_equal(x[j], seen["bad"])]
        if hit and kind == "floating-point":
            raise FloatingPointError("row blew up")
        if hit and kind == "other":
            raise RuntimeError("boom")
        values, grads, extras = real(x, cfg, want_grad)
        for j in hit:
            if kind == "nan-objective":
                values[j] = np.nan
            else:
                grads[j, 0] = np.inf
        return values, grads, extras

    monkeypatch.setattr(opt, "stacked_value_and_gradient", flaky)


def test_run_batch_records_individual_failures(monkeypatch):
    import dataclasses

    import entgap.optimize as opt

    cfg, adam, seeds = small_config(), AdamConfig(steps=40), [0, 1, 2]
    clean = _dicts(run_batch(cfg, adam, seeds))
    until_fault = run_shot(cfg, AdamConfig(steps=FAULT_STEP - 1), 1)
    ended = {"floating-point": "row blew up", "nan-objective": "non-finite objective nan"}
    failed = {"other": "RuntimeError: boom",
              "nan-gradient": "FloatingPointError: non-finite gradient in adam_step"}
    for kind in [*ended, *failed]:
        _fail_one_row(monkeypatch, kind)
        records = opt.run_batch(cfg, adam, seeds)
        monkeypatch.undo()
        assert [r.seed for r in records] == seeds
        assert _dicts([records[0], records[2]]) == [clean[0], clean[2]], kind
        if kind in ended:  # ended as descend ends a shot: what it found before the faulty step
            want = dataclasses.replace(until_fault, failed=True, note=ended[kind])
        else:  # failed outright, as a shot that raised
            want = dataclasses.replace(
                until_fault, best_gap=float("inf"), steps_run=0, objective_trace=np.zeros(0),
                best_params=np.zeros(UTParams.num_entries(16), complex), failed=True, note=failed[kind],
            )
        assert shot_to_dict(records[1]) == shot_to_dict(want), kind


def test_run_batch_rejects_empty():
    with pytest.raises(ValueError):
        run_batch(small_config(), AdamConfig(steps=10), [])


def test_gap_profile_matches_direct_gap(rng):
    psi = random_state(Dims((3, 3, 2, 2)), rng)
    part = default_partition(psi.dims)
    prof = GapProfile(psi, part, EntropyConfig())
    for q in (0.3, 0.9, 1.0, 1.3, 2.0):
        assert abs(prof.gap_at(q) - gap(psi, part, q)) < 1e-12


def test_sweep_singleton_equals_own_curve(rng):
    psi = random_state(Dims((2, 2, 2, 2)), rng)
    part = default_partition(psi.dims)
    grid = [0.5, 1.0, 1.5]
    sweep = sweep_min_gap([psi], grid, part)
    curve = state_gap_curve(psi, grid, part)
    for rec, (q, g) in zip(sweep, curve):
        assert rec.q == q
        assert rec.min_gap == pytest.approx(g, abs=0)
        assert rec.argmin_state_id == "state0"


def test_sweep_superset_pointwise_leq(rng):
    part = default_partition(Dims((2, 2, 2, 2)))
    states = [random_state(Dims((2, 2, 2, 2)), rng) for _ in range(4)]
    grid = np.arange(0.2, 2.01, 0.2)
    small = sweep_min_gap(states[:2], grid, part)
    big = sweep_min_gap(states, grid, part)
    for a, b in zip(big, small):
        assert a.min_gap <= b.min_gap + 1e-15


def test_sweep_union_is_pointwise_min(rng):
    part = default_partition(Dims((2, 2, 2, 2)))
    s1 = [random_state(Dims((2, 2, 2, 2)), rng) for _ in range(3)]
    s2 = [random_state(Dims((2, 2, 2, 2)), rng) for _ in range(3)]
    grid = [0.5, 1.0, 1.5, 2.0]
    a = sweep_min_gap(s1, grid, part)
    b = sweep_min_gap(s2, grid, part)
    u = sweep_min_gap(s1 + s2, grid, part)
    for ra, rb, ru in zip(a, b, u):
        assert ru.min_gap == pytest.approx(min(ra.min_gap, rb.min_gap), abs=0)


def test_sweep_validation(rng):
    part = default_partition(Dims((2, 2, 2, 2)))
    psi = random_state(Dims((2, 2, 2, 2)), rng)
    with pytest.raises(ValueError):
        sweep_min_gap([], [1.0], part)
    with pytest.raises(ValueError):
        sweep_min_gap([psi], [1.0], part, ids=["a", "b"])


def test_curve_flat_for_bell_on_ab():
    amps = np.kron(bell_pair(), np.array([1.0, 0.0, 0.0, 0.0]))
    psi = QuditState(Dims((2, 2, 2, 2)), amps)
    part = default_partition(psi.dims)
    for _, g in state_gap_curve(psi, np.arange(0.1, 2.01, 0.1), part):
        assert abs(g) < 1e-9


def test_curve_continuous_through_q1(rng):
    # the exact q=1 dispatch must sit within 1e-3 of its neighbors
    psi = random_state(Dims((3, 3, 2, 2)), rng)
    part = default_partition(psi.dims)
    pts = dict(state_gap_curve(psi, [1.0 - 1e-3, 1.0, 1.0 + 1e-3], part))
    assert abs(pts[1.0] - pts[1.0 - 1e-3]) <= 1e-3
    assert abs(pts[1.0] - pts[1.0 + 1e-3]) <= 1e-3


def test_curve_bundled_state_at_q1():
    psi, part, expected = load_fixture_state("violation_3322.json")
    pts = dict(state_gap_curve(psi, [1.0], part, EntropyConfig(log_base="2")))
    assert abs(pts[1.0] - expected["gap"]) <= expected["tol_gap"]
