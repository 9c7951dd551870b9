import ctypes
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from entgap.entropy import EntropyConfig, entropy_from_spectrum
from entgap.io import shot_to_dict
from entgap.objective import ObjectiveConfig, gap
from entgap.optimize import (
    AdamConfig,
    GapProfile,
    adam_step,
    blas_threads,
    derive_seeds,
    map_chunks,
    run_batch,
    run_shot,
    state_from_record,
    state_gap_curve,
    sweep_min_gap,
)
import entgap.optimize as opt
from entgap.states import Dims, QuditState, default_partition

from conftest import bell_pair, load_fixture_state, random_state


def small_config(dims_t=(2, 2, 2, 2), q=1.0):
    dims = Dims(dims_t)
    return ObjectiveConfig(dims, default_partition(dims), q=q)


def test_adam_zero_gradient_no_update():
    params = np.array([1.0, -2.0, 3.0])
    new, _, _ = adam_step(params, np.zeros(3), np.zeros(3), np.zeros(3), 1, AdamConfig())
    assert np.array_equal(new, params)


def test_adam_first_step_is_signed_lr():
    cfg = AdamConfig(learning_rate=0.01)
    g = np.array([3.0, -0.2, 1e-3])
    new, _, _ = adam_step(np.zeros(3), g, np.zeros(3), np.zeros(3), 1, cfg)
    # first bias-corrected step reduces to -lr * g/(|g| + eps)
    assert np.allclose(new, -cfg.learning_rate * np.sign(g), rtol=1e-4)


def test_adam_minimizes_quadratic():
    cfg = AdamConfig(learning_rate=0.1)
    x = np.array([1.0])
    m, v = np.zeros(1), np.zeros(1)
    for t in range(1, 501):
        x, m, v = adam_step(x, 2.0 * x, m, v, t, cfg)
    assert abs(x[0]) < 1e-2


def test_adam_validation():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            AdamConfig(learning_rate=bad)
    with pytest.raises(ValueError):
        AdamConfig(steps=0)
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), 0, AdamConfig())
    with pytest.raises(FloatingPointError):
        adam_step(np.zeros(2), np.array([np.nan, 0.0]), np.zeros(2), np.zeros(2), 1, AdamConfig())


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
FORK = multiprocessing.get_context("fork")


def _openblas_threads() -> int:
    return ctypes.CDLL(str(OPENBLAS[0])).scipy_openblas_get_num_threads64_()


def _openblas_threads_per_seed(seeds: list) -> list:
    return [_openblas_threads() for _ in seeds]


@pytest.mark.skipif(not OPENBLAS, reason="numpy does not bundle scipy-openblas")
def test_shot_workers_run_one_blas_thread():
    before = _openblas_threads()
    assert blas_threads() == before  # what every manifest records
    assert map_chunks(_openblas_threads_per_seed, [0, 1], 2) == [1, 1]
    assert map_chunks(_openblas_threads_per_seed, [0, 1], 1) == [1, 1]
    assert _openblas_threads() == before  # the calling process keeps its threads
    assert multiprocessing.active_children() == []  # both workers exited


def test_only_a_pool_imports_multiprocessing():
    # this process has imported multiprocessing already, so a fresh one checks
    code = (
        "import sys, entgap.cli\n"
        "from entgap.optimize import map_chunks\n"
        "assert map_chunks(lambda seeds: seeds, [0], 1) == [0]\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    src = str(Path(opt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_worker_count_is_capped_at_seeds_and_cpus(monkeypatch):
    # computes the count only: no process is started
    monkeypatch.setattr(opt.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(opt, "blas_threads", lambda: 2)
    assert opt.worker_count(5000, 5000) == 4
    assert opt.worker_count(3, 5000) == 3
    assert opt.worker_count(8, 1) == 2 and opt.worker_count(1, 1) == 1  # the BLAS budget
    monkeypatch.setattr(opt, "blas_threads", lambda: None)  # another BLAS build
    assert opt.worker_count(8, 1) == 1
    monkeypatch.setattr(opt.os, "cpu_count", lambda: None)
    assert opt.worker_count(8, 3) == 1
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        opt.worker_count(8, 0)


def _spy_chunks(monkeypatch, module, name):
    """Wrap ``module.name``, a chunk runner, to log (process, seeds, OpenBLAS threads) per call.

    Forked workers inherit the wrapper and send their log through a pipe; the
    returned function reads what every call sent.
    """
    real, pipe = getattr(module, name), FORK.SimpleQueue()

    def spy(*args):
        seeds = next(a for a in args if isinstance(a, list))  # args end in seeds
        pipe.put((os.getpid(), seeds, _openblas_threads() if OPENBLAS else None))
        return real(*args)

    def calls():
        out = []
        while not pipe.empty():
            out.append(pipe.get())
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def _check_split(calls, seeds, workers):
    """The chunks ran on ``workers`` processes, forked unless one, OpenBLAS on one thread."""
    by_first = sorted(calls, key=lambda c: seeds.index(c[1][0]))
    assert [s for c in by_first for s in c[1]] == seeds  # contiguous, in seed order
    assert [len(c[1]) for c in by_first] == [len(p) for p in opt._split(seeds, workers)]
    pids = {c[0] for c in calls}
    assert len(pids) == workers
    assert (pids == {os.getpid()}) if workers == 1 else (os.getpid() not in pids)
    assert {c[2] for c in calls} == {1 if OPENBLAS else None}
    assert multiprocessing.active_children() == []


def _mera_case():
    from entgap.mera import mera_layout, mera_objective_config, run_mera_search

    lay, cfg = mera_layout(8), mera_objective_config(8)
    return partial(run_mera_search, lay, cfg), "entgap.mera", "_mera_shots"


def _unitary_case(penalty):
    dims = Dims((3, 3, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), penalty_enabled=penalty)
    return partial(run_batch, cfg), "entgap.optimize", "run_shots"


@pytest.mark.parametrize("case,count", [
    (partial(_unitary_case, False), 16), (partial(_unitary_case, True), 16), (_mera_case, 4),
], ids=["unitary", "penalized", "mera8"])
def test_threaded_batch_equals_each_seed_alone(monkeypatch, case, count):
    # at --parallelism 1 a batch starts one worker per thread of the OpenBLAS budget
    search, module, runner = case()
    adam = AdamConfig(steps=20)
    seeds = derive_seeds(11, count)
    alone = [_dicts(search(adam, [s]))[0] for s in seeds]
    before = _openblas_threads() if OPENBLAS else None
    for budget in (1, 2, 3):
        with monkeypatch.context() as mp:
            mp.setattr(opt, "blas_threads", lambda: budget)
            mp.setattr(opt.os, "cpu_count", lambda: 3)  # three workers even on fewer CPUs
            calls = _spy_chunks(mp, sys.modules[module], runner)
            assert _dicts(search(adam, seeds)) == alone, budget
            _check_split(calls(), seeds, budget)
        if OPENBLAS:
            assert _openblas_threads() == before  # restored after the batch


@pytest.mark.parametrize("count,budget,sizes", [(5, 2, [2, 3]), (1, 2, [1]), (1, 3, [1])])
def test_uneven_thread_splits(monkeypatch, count, budget, sizes):
    cfg, adam = small_config(), AdamConfig(steps=20)
    seeds = derive_seeds(3, count)
    alone = [_dicts(run_batch(cfg, adam, [s]))[0] for s in seeds]
    before = _openblas_threads() if OPENBLAS else None
    monkeypatch.setattr(opt, "blas_threads", lambda: budget)
    calls = _spy_chunks(monkeypatch, opt, "run_shots")
    assert _dicts(run_batch(cfg, adam, seeds)) == alone
    calls = calls()
    assert sorted(len(c[1]) for c in calls) == sizes
    _check_split(calls, seeds, len(sizes))  # a single seed runs in this process
    if OPENBLAS:
        assert _openblas_threads() == before


@pytest.mark.parametrize("exc,code", [(ValueError("bad chunk"), 2), (RuntimeError("bad chunk"), None)])
def test_exception_in_a_helper_thread_propagates(monkeypatch, tmp_path, capsys, exc, code):
    # a forked worker's exception reaches the caller as the same type and message
    from entgap.cli import main

    seeds = derive_seeds(0, 4)
    real = opt.run_shots
    parent = os.getpid()

    def run_shots(cfg, adam, chunk):
        if seeds[-1] in chunk:  # the last chunk: a forked worker's
            assert os.getpid() != parent
            raise exc
        return real(cfg, adam, chunk)

    before = _openblas_threads() if OPENBLAS else None
    monkeypatch.setattr(opt, "blas_threads", lambda: 2)
    monkeypatch.setattr(opt, "run_shots", run_shots)
    argv = ["optimize", "--dims", "2,2,2,2", "--seeds", "4", "--steps", "5",
            "--out", str(tmp_path / "run")]
    outcome = {}

    def invoke():
        try:
            outcome["rc"] = main(argv)
        except Exception as raised:
            outcome["raised"] = raised

    caller = threading.Thread(target=invoke, daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive()  # no hang
    if code is None:  # escapes main, as it does from this process: exit status 1
        assert type(outcome["raised"]) is type(exc) and str(outcome["raised"]) == str(exc)
    else:
        assert outcome["rc"] == code
        assert capsys.readouterr().err == "error: bad chunk\n"
    assert not (tmp_path / "run" / "shots.jsonl").exists()
    assert multiprocessing.active_children() == []
    if OPENBLAS:
        assert _openblas_threads() == before


@pytest.mark.parametrize("exc,failing", [
    (RuntimeError("bad chunk"), "calling"), (RuntimeError("bad chunk"), "helper"),
    (KeyboardInterrupt(), "calling"),
])
def test_a_failing_chunk_stops_the_other_threads(monkeypatch, exc, failing):
    # once the workers are stepping, the first ("calling") or last ("helper")
    # chunk raises, or a KeyboardInterrupt reaches the calling process; the
    # other workers then stop at their next step instead of running out their
    # budget, at --parallelism 1 (a worker per BLAS thread) and 2 alike
    steps = 20000
    seeds = derive_seeds(0, 4)
    interrupt = isinstance(exc, KeyboardInterrupt)
    bad_seed = None if interrupt else seeds[0] if failing == "calling" else seeds[-1]
    real_shots, real_vg = opt.run_shots, opt.stacked_value_and_gradient

    def vg(x, cfg, want_grad=True):
        with evaluations.get_lock():
            evaluations.value += 1
        stepping.set()
        return real_vg(x, cfg, want_grad)

    def run_shots(cfg, adam, chunk):
        if bad_seed in chunk:
            assert stepping.wait(timeout=60)
            raise exc
        return real_shots(cfg, adam, chunk)

    def interrupt_when_stepping(main_thread):
        if stepping.wait(timeout=60):
            signal.pthread_kill(main_thread, signal.SIGINT)

    before = _openblas_threads() if OPENBLAS else None
    monkeypatch.setattr(opt, "blas_threads", lambda: 2)
    monkeypatch.setattr(opt, "run_shots", run_shots)
    monkeypatch.setattr(opt, "stacked_value_and_gradient", vg)
    for parallelism in (1, 2):
        stepping, evaluations = FORK.Event(), FORK.Value("i", 0)
        if interrupt:
            threading.Thread(target=interrupt_when_stepping, args=(threading.get_ident(),)).start()
        with pytest.raises(type(exc)) as raised:
            run_batch(small_config(), AdamConfig(steps=steps), seeds, parallelism)
        assert str(raised.value) == str(exc)
        assert 0 < evaluations.value < steps // 10, parallelism  # stopped, not run out
        assert multiprocessing.active_children() == []
        if OPENBLAS:
            assert _openblas_threads() == before


def test_descend_stops_when_asked(monkeypatch):
    from entgap.optimize import Stopped, descend

    stop = threading.Event()
    monkeypatch.setattr(opt, "_stop", stop)  # as a forked worker's batch sets it

    def vg(x):
        stop.set()  # asked during the first step: the second does not start
        return np.sum(x * x, axis=1), 2 * x

    with pytest.raises(Stopped, match="step 2"):
        descend(np.ones((2, 3)), vg, AdamConfig(steps=10))


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
    best, best_x, steps_run, trace, failed, note = bad
    assert failed and note == "gradient blew up"
    # ended at step 1: its start point, objective inf and no steps
    assert best == np.inf and best_x.tolist() == [1.0, 0.0]
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
    monkeypatch.setattr(opt, "blas_threads", lambda: 1)  # one worker: this process, where spy logs
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
    monkeypatch.setattr(opt, "blas_threads", lambda: 1)  # one worker: this process, where spy logs
    monkeypatch.setattr(opt, "MAX_STACK", 2)
    assert _dicts(run_batch(cfg, adam, seeds)) == whole
    assert sizes == {1, 2}


FAULT_STEP = 5

# why a row ends, for each fault: every fault keeps what the row found before it
FAULT_NOTES = {"floating-point": "row blew up", "other": "RuntimeError: boom",
               "nan-objective": "non-finite objective nan", "nan-gradient": "non-finite gradient"}


def _faulted(kind, bad, point, value, grad):
    """``value`` and ``grad`` at ``point``, or the fault ``kind`` when ``point`` is ``bad``."""
    if not np.array_equal(point, bad):
        return value, grad
    if kind == "floating-point":
        raise FloatingPointError("row blew up")
    if kind == "other":
        raise RuntimeError("boom")
    if kind == "nan-objective":
        return np.nan, grad
    grad = grad.copy()
    grad[0] = np.inf
    return value, grad


def _hook_unitary(mp, on_row):
    """Every row the stacked kernel evaluates passes through ``on_row(point, value, grad)``."""
    real = opt.stacked_value_and_gradient

    def vg(x, cfg, want_grad=True):
        values, grads, extras = real(x, cfg, want_grad)
        for j in range(len(x)):
            values[j], grads[j] = on_row(x[j], values[j], grads[j])
        return values, grads, extras

    mp.setattr(opt, "stacked_value_and_gradient", vg)


def _hook_mera(mp, on_row):
    """Every MERA row, evaluated alone, passes through ``on_row(point, value, grad)``."""
    import entgap.mera as mera

    real = mera.mera_value_and_gradient

    def vg(layout, params, cfg, gradient="analytic"):
        return on_row(mera._flatten(params), *real(layout, params, cfg, gradient))

    mp.setattr(mera, "mera_value_and_gradient", vg)


def _check_individual_failures(run, hook):
    """Seed 1 of three faults at step FAULT_STEP, in each way a row can fail.

    ``run(steps, seeds)`` runs a batch of one family and ``hook(mp, on_row)``
    routes each row it evaluates through ``on_row``.  A shot steps bit for bit
    as it would alone, so the point seed 1 evaluates at FAULT_STEP, recorded
    from a run of it alone, finds it in whichever stack and worker it steps.
    """
    import dataclasses

    seeds = [0, 1, 2]
    clean = _dicts(run(40, seeds))
    until_fault = run(FAULT_STEP - 1, [1])[0]
    points = []

    def record(point, value, grad):
        points.append(point.copy())
        return value, grad

    with pytest.MonkeyPatch.context() as mp:
        hook(mp, record)
        run(FAULT_STEP, [1])
    bad = points[FAULT_STEP - 1]
    for kind, note in FAULT_NOTES.items():
        with pytest.MonkeyPatch.context() as mp:
            hook(mp, partial(_faulted, kind, bad))
            records = run(40, seeds)
        assert [r.seed for r in records] == seeds
        assert _dicts([records[0], records[2]]) == [clean[0], clean[2]], kind
        # ended at the faulty step with what it found before it: its steps, trace and best point
        want = dataclasses.replace(until_fault, failed=True, note=note)
        assert shot_to_dict(records[1]) == shot_to_dict(want), kind
        assert records[1].steps_run == len(records[1].objective_trace) == FAULT_STEP - 1


def test_run_batch_records_individual_failures():
    cfg = small_config()
    _check_individual_failures(lambda steps, seeds: run_batch(cfg, AdamConfig(steps=steps), seeds),
                               _hook_unitary)


def test_mera_search_records_individual_failures():
    from entgap.mera import mera_layout, mera_objective_config, run_mera_search

    layout, cfg = mera_layout(8), mera_objective_config(8)
    _check_individual_failures(
        lambda steps, seeds: run_mera_search(layout, cfg, AdamConfig(steps=steps), seeds),
        _hook_mera)


def test_run_batch_rejects_empty():
    with pytest.raises(ValueError):
        run_batch(small_config(), AdamConfig(steps=10), [])


def test_gap_profile_matches_direct_gap(rng):
    psi = random_state(Dims((3, 3, 2, 2)), rng)
    part = default_partition(psi.dims)
    qs = (0.3, 0.9, 1.0, 1.3, 2.0)
    assert GapProfile(psi, part, EntropyConfig()).gaps(qs).tolist() == [gap(psi, part, q) for q in qs]


# the CLI's default grid, holding 0.5 and 1.0, plus 2.0 and points either side of 1
GRID = [round(0.05 + i * 0.01, 12) for i in range(116)] + [1.0 - 1e-3, 1.0 + 1e-3, 2.0, 2.5, 4.0]


def per_q_gaps(prof: GapProfile, qs) -> list[float]:
    """The oracle: one entropy_from_spectrum call per q, as the single-q path evaluated it."""
    return [prof.s_aap - 0.5 * entropy_from_spectrum(prof.spectrum, q, prof.config) for q in qs]


@pytest.mark.parametrize("log_base", ["e", "2"])
@pytest.mark.parametrize("dims_t", [(2, 2, 2, 2), (3, 3, 2, 2), (4, 4, 2, 2), (3, 3, 3, 3)])
def test_gap_grid_equals_per_q_sums_bit_for_bit(rng, dims_t, log_base):
    # a scalar exponent makes numpy take sqrt at 0.5 and square at 2.0, which
    # round differently from pow: the grid must take them too
    for _ in range(25):  # pow sums off the sqrt or square row for about one state in 20
        psi = random_state(Dims(dims_t), rng)
        prof = GapProfile(psi, default_partition(psi.dims), EntropyConfig(log_base))
        assert prof.gaps(GRID).tolist() == per_q_gaps(prof, GRID)


@pytest.mark.parametrize("log_base", ["e", "2"])
def test_gap_grid_on_a_spectrum_with_exact_zeros(rng, log_base):
    # AB times A'B': rho_AB is pure and rho_A has rank 2 of 4, so the reflected
    # spectrum is the 4 products of rho_A's two eigenvalues and 12 exact zeros
    dims = Dims((4, 2, 2, 2))
    ab = random_state(Dims((4, 2)), rng).amplitudes
    psi = QuditState(dims, np.kron(ab, np.eye(4)[0]))
    prof = GapProfile(psi, default_partition(dims), EntropyConfig(log_base))
    assert np.count_nonzero(prof.spectrum == 0.0) == 12
    assert prof.gaps(GRID).tolist() == per_q_gaps(prof, GRID)
    assert state_gap_curve(psi, GRID, default_partition(dims), prof.config) == list(
        zip(GRID, per_q_gaps(prof, GRID)))


def test_sweep_takes_the_first_of_tied_minima(rng):
    part = default_partition(Dims((2, 2, 2, 2)))
    a, b = (random_state(Dims((2, 2, 2, 2)), rng) for _ in range(2))
    states, ids = [a, b, b, a], ["a1", "b1", "b2", "a2"]
    sweep = sweep_min_gap(states, GRID, part, ids=ids)
    rows = [per_q_gaps(GapProfile(s, part, EntropyConfig()), GRID) for s in states]
    for j, rec in enumerate(sweep):
        column = [row[j] for row in rows]
        first = column.index(min(column))
        assert (rec.q, rec.min_gap, rec.argmin_state_id) == (GRID[j], column[first], ids[first])
    assert {rec.argmin_state_id for rec in sweep} <= {"a1", "b1"}


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf, -math.inf])
def test_gap_grid_rejects_a_bad_q(rng, bad):
    psi = random_state(Dims((2, 2, 2, 2)), rng)
    part = default_partition(psi.dims)
    prof = GapProfile(psi, part, EntropyConfig())
    with pytest.raises(ValueError) as want:
        entropy_from_spectrum(prof.spectrum, bad, prof.config)
    message = f"^{re.escape(str(want.value))}$"
    with pytest.raises(ValueError, match=message):
        prof.gaps([0.5, bad, 2.0])
    with pytest.raises(ValueError, match=message):
        state_gap_curve(psi, [1.0, bad], part)
    with pytest.raises(ValueError, match=message):
        sweep_min_gap([psi, psi], [bad], part)
    with pytest.raises(ValueError, match=message):
        gap(psi, part, bad)


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
