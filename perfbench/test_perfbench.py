"""The benchmark's own tests: every output check fails on a corrupted input.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from entgap.io import verify_state_file
from entgap.mera import mera_layout, mera_objective_config, mera_state_from_record, run_mera_shot
from entgap.objective import ObjectiveConfig
from entgap.optimize import AdamConfig, run_shot, state_from_record
from entgap.states import Dims, default_partition
from tracing import Tracer

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _shot(steps, penalty_weight=None):
    """A seed-0 3,3,2,2 shot and its facts; from 300 steps on it is a violator (step 72)."""
    dims = Dims((3, 3, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), penalty_enabled=penalty_weight is not None,
                          penalty_weight=penalty_weight or 1.0)
    rec = run_shot(cfg, AdamConfig(steps=steps), 0)
    return rec, checks.shot_facts(rec, state_from_record(rec), penalty_weight)


@pytest.fixture(scope="module")
def violator():
    rec, facts = _shot(300)
    assert facts.violates
    return rec, facts


@pytest.fixture(scope="module")
def penalized_violator():
    rec, facts = _shot(300, penalty_weight=1.0)
    assert facts.violates and facts.penalized is not None
    return rec, facts


@pytest.fixture(scope="module")
def random_state_facts():
    wl = workloads.ReferenceEval(0)
    a, psi = next(wl._states(0))
    part = default_partition(a.dims)
    from entgap.entropy import max_tmi
    from entgap.objective import gap
    from entgap.optimize import state_gap_curve

    return checks.state_facts(
        "s", psi, part, gap(psi, part, 2.0), state_gap_curve(psi, wl.grid, part), max_tmi(psi, part)
    )


def test_search_check_rejects_shifted_best_gap(violator):
    rec, facts = violator
    assert checks.search_failures([facts]) == []
    moved = dataclasses.replace(rec, best_gap=rec.best_gap + 1e-6)
    shifted = checks.shot_facts(moved, state_from_record(moved))
    assert checks.search_failures([shifted])


@pytest.mark.parametrize("steps", [5, 300])  # a shot that does not violate, and one that does
def test_penalized_check_rejects_objective_off_the_penalized_gap(steps):
    rec, facts = _shot(steps, penalty_weight=1.0)
    assert facts.violates == (steps == 300)
    assert checks.search_failures([facts]) == []
    moved = dataclasses.replace(rec, best_gap=rec.best_gap + 1e-6)
    assert checks.search_failures([checks.shot_facts(moved, state_from_record(moved), 1.0)])


def test_penalized_check_rejects_violator_with_positive_max_i3(penalized_violator):
    _, facts = penalized_violator
    assert facts.max_i3 < 0.0
    forged = dataclasses.replace(facts, max_i3=abs(facts.max_i3))
    assert checks.search_failures([forged])


def test_search_checks_reject_q2_violation_and_hinge_below_gap(violator, penalized_violator):
    _, facts = violator
    assert checks.search_failures([dataclasses.replace(facts, gap_q2=-1e-6)])
    _, pen = penalized_violator
    below = pen.gap - 1e-9  # consistent with the reference penalized gap, below the gap
    assert checks.search_failures([dataclasses.replace(pen, objective=below, penalized=below)])


@pytest.mark.parametrize("which", ["violator", "penalized_violator"])
def test_run_check_rejects_a_run_without_violation(which, request):
    _, facts = request.getfixturevalue(which)
    assert checks.reached_violation_failures([facts]) == []
    assert checks.reached_violation_failures([dataclasses.replace(facts, gap=0.01, objective=0.01)])


def test_mera_check_rejects_shifted_best_gap():
    layout, cfg = mera_layout(8), mera_objective_config(8)
    rec = run_mera_shot(layout, cfg, AdamConfig(steps=2), 0, gradient="analytic")
    facts = checks.shot_facts(rec, mera_state_from_record(rec))
    assert checks.mera_failures([facts]) == []
    assert checks.mera_failures([dataclasses.replace(facts, objective=facts.objective + 1e-6)])


def test_mera_gradient_check_passes_at_a_random_point():
    layout, cfg = mera_layout(8), mera_objective_config(8)
    from entgap.mera import initial_mera_params

    p0 = initial_mera_params(layout, np.random.Generator(np.random.PCG64(3)))
    assert checks.mera_gradient_failures(layout, p0, cfg, [0, 57, 219]) == []


def test_state_check_rejects_decreasing_curve(random_state_facts):
    f = random_state_facts
    assert checks.state_failures(f) == []
    gaps = list(f.gaps)
    gaps[-1] = gaps[-2] - 1e-6
    assert checks.state_failures(dataclasses.replace(f, gaps=tuple(gaps)))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda f: {"gap_q2": -1e-6},
        lambda f: {"gap_q1": f.gap_q1 + 1e-6},
        lambda f: {"i3s": (f.i3s[0] + 1e-6,) + f.i3s[1:]},
        lambda f: {"max_i3": f.max_i3 + 1e-6},
        lambda f: {"s_bbp": f.s_bbp + 1e-6},
        lambda f: {"i_ab": 2.0 * (f.s_aap - f.gaps[f.qs.index(1.0)]) + 1e-6},  # S_R < I(A:B)
        lambda f: {"s_a": 0.0},  # S_R > 2 min(S_A, S_B)
    ],
)
def test_state_check_rejects_broken_invariants(random_state_facts, corrupt):
    f = random_state_facts
    assert checks.state_failures(dataclasses.replace(f, **corrupt(f)))


@pytest.mark.parametrize("name", workloads.FIXTURE_NAMES)
def test_fixture_check_rejects_value_outside_tolerance(name):
    path = workloads.FIXTURES / name
    expected = json.loads(path.read_text())["expected"]
    rep = verify_state_file(path)
    assert checks.fixture_failures(name, rep.values_bits, expected, rep.passed) == []
    for key, tol_key in checks.FIXTURE_KEYS:
        off = dict(rep.values_bits, **{key: expected[key] + 1.5 * expected[tol_key]})
        assert checks.fixture_failures(name, off, expected, True)


def test_self_time_subtracts_direct_children():
    tr = Tracer()

    def inner():
        return sum(range(20000))

    inner_t = tr.wrap("inner", inner)
    outer_t = tr.wrap("outer", lambda: [inner_t() for _ in range(3)])
    tr.active = True
    outer_t()
    tr.active = False
    s = tr.summary()
    assert s["inner"]["calls"] == 3 and s["outer"]["calls"] == 1
    assert s["outer"]["self_ns"] == s["outer"]["total_ns"] - s["inner"]["total_ns"]
    assert tr.under("inner", ("outer",)) == (3, s["inner"]["total_ns"])
    assert list(tr.parents) == [-1, 0, 0, 0]


def _run(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    r = _run("--workload", "reference-eval", "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert r.returncode == 0, r.stderr
    res = json.loads(r.stdout.strip().splitlines()[-1])
    group = "per_layer" if trace == "1" else "end_to_end"
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] > 0 and res["failed"] == 0
    assert {m["name"]: m["unit"] for m in BENCH[group]} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }


def test_traced_search_writes_the_same_shot_log():
    r = _run("--workload", "penalized-3322", "--seed", "5", "--seconds", "0.1", "--trace", "1")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.strip().splitlines()[-1])["correct"], r.stderr
    run_dir = HERE.parent / ".perfbench_runs" / "penalized-3322" / "seed5-trace1"
    untraced = (run_dir / "untraced" / "round0000" / "shots.jsonl").read_bytes()
    assert untraced == (run_dir / "round0000" / "shots.jsonl").read_bytes()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    r = _run("--workload", "search-3322", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert r.returncode != 0
    assert not r.stdout.strip()
