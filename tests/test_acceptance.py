"""Acceptance suite: one test per shipping criterion, loud pass/fail lines.

Budgets are deterministic (fixed master seeds) and sized to finish in
minutes; every tolerance is pinned here, not in helper code.

Criteria 6 and 9 assert the sign of the tripartite mutual information
I3 = S_X+S_Y+S_Z-S_XY-S_XZ-S_YZ+S_XYZ, the convention in which monogamy
of mutual information (MMI, obeyed by holographic states) reads I3 <= 0.
An independent oracle (``reference_tmi``: loop-based partial traces plus
eigvalsh, in tests/conftest.py) gives GHZ4 +ln 2, the AME(4,3) perfect tensor
-2 ln 3, and both published counterexamples a negative I3 in all four
triples (-0.019049 and -0.058336 nats).  The bound-violating states
therefore satisfy MMI, and these criteria assert exactly that: found
violators have Max(I3) < 0 (6), and the MMI-penalized search still
reaches a violation with the hinge inactive (9).
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from entgap.entropy import EntropyConfig, max_tmi, von_neumann
from entgap.io import (
    emit_reports,
    read_shots_jsonl,
    verify_state_file,
    write_shots_jsonl,
    write_sweep_csv,
)
from entgap.mera import mera_layout, mera_objective_config, run_mera_search
from entgap.objective import (
    ObjectiveConfig,
    gap,
    objective_value_and_gradient,
    stacked_value_and_gradient,
)
from entgap.optimize import (
    AdamConfig,
    derive_seeds,
    run_batch,
    state_from_record,
    sweep_min_gap,
)
from entgap.reflect import canonical_purification, reflected_entropy
from entgap.states import DensityMatrix, Dims, QuditState, default_partition, partial_trace

from conftest import fixture_path, load_fixture_state, random_state, reference_tmi


def crit(num: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------- 1, 2


@pytest.mark.parametrize(
    "num,name,published",
    [
        ("1", "violation_3322.json", (0.81941, 1.64454, -0.00286)),
        ("2", "violation_qubits6.json", (0.89796, 1.80783, -0.00596)),
    ],
)
def test_criterion_fixture_values(num, name, published):
    t0 = time.time()
    report = verify_state_file(str(fixture_path(name)))
    elapsed = time.time() - t0
    s_aap, s_r, g = published
    vals = report.values_bits
    ok = (
        abs(vals["s_aap"] - s_aap) <= 0.02
        and abs(vals["s_r"] - s_r) <= 0.02
        and abs(vals["gap"] - g) <= 0.01
        and report.identity_error <= 1e-12
        and elapsed < 1.0
        and report.passed
    )
    # the published tuples satisfy the identity at printed precision too
    assert abs(s_aap - s_r / 2.0 - g) < 6e-5
    crit(
        num,
        ok,
        f"{name}: S(AA')={vals['s_aap']:.5f} S_R={vals['s_r']:.5f} "
        f"gap={vals['gap']:.5f} (base 2), identity_err={report.identity_error:.1e}, "
        f"{elapsed*1e3:.0f} ms",
    )


def test_criterion_2_grouped_dims_match():
    # the six-qubit fixture fused to [4,4,2,2] gives identical entropies; its
    # parties A = (0, 1), B = (2, 3), A' = (4,), B' = (5,) are in site order,
    # so the fused state has the same amplitude vector
    psi, part, expected = load_fixture_state("violation_qubits6.json")
    assert part.all_sites() == tuple(range(6))
    fused = QuditState(Dims((4, 4, 2, 2)), psi.amplitudes)
    bits = EntropyConfig(log_base="2")
    g = gap(fused, default_partition(fused.dims), 1.0, bits)
    crit("2b", abs(g - expected["gap"]) <= expected["tol_gap"],
         f"[4,4,2,2]-fused gap={g:.5f} vs {expected['gap']}")


# ------------------------------------------------------------------------- 3


SEARCH_DIMS = Dims((3, 3, 2, 2))
SEARCH_SEEDS = derive_seeds(0, 8)
SEARCH_STEPS = 3000


@pytest.fixture(scope="module")
def counterexample_records():
    cfg = ObjectiveConfig(SEARCH_DIMS, default_partition(SEARCH_DIMS), q=1.0)
    return run_batch(cfg, AdamConfig(steps=SEARCH_STEPS), SEARCH_SEEDS)


def test_criterion_3_counterexample_search(counterexample_records):
    # 8 seeds x 3000 steps, within the <= 64 x 5000 budget
    best = min(r.best_gap for r in counterexample_records if not r.failed)
    crit("3", best <= -1e-3,
         f"{len(SEARCH_SEEDS)} seeds x {SEARCH_STEPS} steps, best gap {best:+.6f}")


# ------------------------------------------------------------------------- 4


TRAIN_QS = (0.1, 0.5, 0.9, 0.99, 1.0, 1.02)


@pytest.fixture(scope="module")
def sweep_state_set():
    adam = AdamConfig(steps=3000)
    seeds = derive_seeds(0, 4)
    states, ids = [], []
    for q in TRAIN_QS:
        cfg = ObjectiveConfig(SEARCH_DIMS, default_partition(SEARCH_DIMS), q=q)
        for rec in run_batch(cfg, adam, seeds):
            if not rec.failed:
                states.append(state_from_record(rec))
                ids.append(f"q{q:g}/seed{rec.seed}")
    return states, ids


def test_criterion_4_sweep_reproduction(sweep_state_set, tmp_path):
    states, ids = sweep_state_set
    part = default_partition(SEARCH_DIMS)
    lo = [round(q, 10) for q in np.arange(0.1, 1.0001, 0.05)]
    hi = [round(q, 10) for q in np.arange(1.0, 1.1001, 0.01)]
    grid = sorted(set(lo + hi))
    sweep = sweep_min_gap(states, grid, part, ids=ids)
    write_sweep_csv(sweep, tmp_path / "sweep.csv")
    by_q = {r.q: r.min_gap for r in sweep}

    neg_at = all(by_q[q] < 0.0 for q in (0.1, 0.5, 0.9, 1.0))
    in_unit = [r.min_gap for r in sweep if r.q <= 1.0]
    monotone = all(b - a >= -5e-4 for a, b in zip(in_unit, in_unit[1:]))
    crossing = next((r.q for r in sweep if r.q > 1.0 and r.min_gap >= 0.0), None)
    has_crossing = crossing is not None and 1.0 < crossing <= 1.10 and by_q[1.0] < 0.0
    crit(
        "4",
        neg_at and monotone and has_crossing,
        f"min gap at q=0.1/0.5/0.9/1.0 = {by_q[0.1]:+.4f}/{by_q[0.5]:+.4f}/"
        f"{by_q[0.9]:+.4f}/{by_q[1.0]:+.5f}, monotone(0,1]={monotone}, "
        f"zero crossing at q*={crossing}",
    )


# ------------------------------------------------------------------------- 5


def test_criterion_5_theorem_guard_q2():
    rng = np.random.default_rng(2024)
    worst = math.inf
    for dims_t in [(2, 2, 2, 2), (3, 3, 2, 2), (4, 4, 2, 2)]:
        dims = Dims(dims_t)
        part = default_partition(dims)
        for _ in range(1000):
            psi = random_state(dims, rng)
            worst = min(worst, gap(psi, part, 2.0))
    crit("5", worst >= -1e-9, f"3000 random states, min gap(q=2) = {worst:+.3e}")


# ------------------------------------------------------------------------- 6


def test_criterion_6_found_states_have_positive_max_tmi(counterexample_records):
    """Every negative-gap state found here has Max(I3) < 0, as the references do.

    The name records the criterion's original claim, Max(I3) > 0.  In the
    I3 <= 0 (MMI) convention of ``entgap.entropy.max_tmi`` that claim is
    refuted by the paper's own counterexamples: both bundled reference
    states have negative I3 in all four triples, confirmed by an
    independent oracle in tests/test_entropy.py.  The criterion asserts
    the sign the references carry, computed here alongside.
    """
    part = default_partition(SEARCH_DIMS)
    refs = {}
    for name in ("violation_3322.json", "violation_qubits6.json"):
        psi, ref_part, _ = load_fixture_state(name)
        refs[name] = max_tmi(psi, ref_part)
    assert all(v < 0.0 for v in refs.values()), f"reference Max(I3) sign changed: {refs}"
    values = []
    for rec in counterexample_records:
        if rec.failed or rec.best_gap > -1e-3:
            continue
        values.append(max_tmi(state_from_record(rec), part))
    assert values, "criterion 3 produced no negative-gap states to examine"
    detail = ", ".join(f"{v:+.4f}" for v in values)
    ref_detail = ", ".join(f"{v:+.4f}" for v in refs.values())
    crit("6", all(v < 0.0 for v in values),
         f"Max(I3) of {len(values)} found negative-gap states: [{detail}]; "
         f"references: [{ref_detail}]")


def test_criterion_6_four_tmi_values_agree(counterexample_records):
    rng = np.random.default_rng(7)
    part = default_partition(SEARCH_DIMS)
    states = [state_from_record(r) for r in counterexample_records if not r.failed]
    states += [random_state(SEARCH_DIMS, rng) for _ in range(50)]
    worst = 0.0
    for psi in states:
        vals = [reference_tmi(psi, *t) for t in combinations(
            (part.a_sites, part.b_sites, part.ap_sites, part.bp_sites), 3)]
        worst = max(worst, max(vals) - min(vals))
    crit("6b", worst <= 1e-9,
         f"four-triple TMI spread over {len(states)} states: max {worst:.2e}")


# ------------------------------------------------------------------------- 7


def test_criterion_7_pure_reflected_and_round_trip():
    rng = np.random.default_rng(11)
    worst_pure = 0.0
    for _ in range(100):
        d_a = int(rng.integers(2, 6))
        d_b = int(rng.integers(2, 6))
        psi = random_state(Dims((d_a, d_b)), rng)
        rho = DensityMatrix(Dims((d_a, d_b)), np.outer(psi.amplitudes, psi.amplitudes.conj()))
        s_r = reflected_entropy(rho, 1.0)
        s_a = von_neumann(partial_trace(psi, (0,)))
        worst_pure = max(worst_pure, abs(s_r - 2.0 * s_a))
    worst_rt = 0.0
    for _ in range(100):
        d_a = int(rng.integers(2, 6))
        d_b = int(rng.integers(2, 6))
        d = d_a * d_b
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = DensityMatrix(Dims((d_a, d_b)), mat)
        back = partial_trace(canonical_purification(rho), (0, 1)).matrix
        worst_rt = max(worst_rt, float(np.max(np.abs(back - mat))))
    crit("7", worst_pure <= 1e-9 and worst_rt <= 1e-10,
         f"pure |S_R - 2S(A)| max {worst_pure:.2e}; round-trip max {worst_rt:.2e}")


# ------------------------------------------------------------------------- 8


def test_criterion_8_gradient_oracle():
    h = 1e-5
    qs = (0.5, 1.0, 2.0)
    rng = np.random.default_rng(5)
    worst_rel, worst_abs = 0.0, 0.0
    checked = 0
    for dims_t in [(2, 2, 2, 2), (3, 3, 2, 2)]:
        dims = Dims(dims_t)
        d = dims.total
        n = d * (d + 1) // 2
        for point in range(20):
            q = qs[point % len(qs)]
            cfg = ObjectiveConfig(dims, default_partition(dims), q=q)
            raw = rng.standard_normal(2 * n)
            p = (raw[0::2] + 1j * raw[1::2]) / np.sqrt(2.0 * d)  # M's entries; the row is their float64 view
            g = objective_value_and_gradient(p.view(np.float64), cfg)[1]
            fd = np.empty_like(g)
            # the perturbations of real coordinates 2k + comp, evaluated in stacks of 64
            # (the stacked kernel evaluates each row as it would alone)
            for start in range(0, 2 * n, 64):
                coords = range(start, min(start + 64, 2 * n))
                ep, em = np.tile(p, (len(coords), 1)), np.tile(p, (len(coords), 1))
                for row, c in enumerate(coords):
                    delta = h if c % 2 == 0 else 1j * h
                    ep[row, c // 2] += delta
                    em[row, c // 2] -= delta
                fd[start:start + len(coords)] = (
                    stacked_value_and_gradient(ep.view(np.float64), cfg, want_grad=False)[0]
                    - stacked_value_and_gradient(em.view(np.float64), cfg, want_grad=False)[0]
                ) / (2.0 * h)
            err = np.abs(g - fd)
            bad = err > np.maximum(1e-5 * np.abs(fd), 1e-8)
            checked += 1
            assert not np.any(bad), (
                f"gradient mismatch at dims={dims_t} q={q}: "
                f"max abs err {err.max():.3e}"
            )
            worst_abs = max(worst_abs, float(err.max()))
    crit("8", True, f"{checked} points x central differences (h=1e-5), "
                    f"worst abs deviation {worst_abs:.2e}")


# ------------------------------------------------------------------------- 9


def test_criterion_9_penalized_search(tmp_path):
    """The MMI-penalized search still finds violations, all satisfying MMI.

    The hinge adds max(Max(I3), 0), so it only acts on MMI-violating
    states.  The violating basin has Max(I3) < 0 (see criterion 6), so
    the penalty stays inactive there: the search must still reach
    gap < -1e-3, and at every violating shot Max(I3) <= 0 and the recorded
    objective (``best_gap`` holds the penalized objective) equals the
    recomputed gap.
    """
    cfg = ObjectiveConfig(
        SEARCH_DIMS, default_partition(SEARCH_DIMS), q=1.0,
        penalty_enabled=True, penalty_weight=1.0,
    )
    records = run_batch(cfg, AdamConfig(steps=1200), derive_seeds(0, 64))
    emit_reports(records, write_shots_jsonl, tmp_path / "penalized_shots.jsonl",
                 command="acceptance-9", config={"steps": 1200, "seeds": 64})
    part = default_partition(SEARCH_DIMS)
    gaps, violators, bad = {}, 0, []
    for rec in records:
        if rec.failed:
            continue
        psi = state_from_record(rec)
        g = gap(psi, part, 1.0)
        gaps[rec.seed] = g
        if g >= -1e-3:
            continue
        violators += 1
        mt = max_tmi(psi, part)
        if mt > 0.0 or abs(rec.best_gap - g) > 1e-9:
            bad.append((rec.seed, g, rec.best_gap, mt))
    assert gaps, "every penalized shot failed"
    best = min(gaps.values())
    print(f"\npenalized search report: 64 shots, min recomputed gap {best:+.6f}, "
          f"report at {tmp_path/'penalized_shots.jsonl'}")
    crit(
        "9",
        best < -1e-3 and not bad,
        f"min gap {best:+.6f}, {violators} violating shots; with Max(I3)>0 or "
        f"objective != gap: {bad[:4]}{'...' if len(bad) > 4 else ''}",
    )


def test_criterion_9_mera_search(tmp_path):
    layout = mera_layout(8)
    cfg = mera_objective_config(8, q=1.0)
    records = run_mera_search(layout, cfg, AdamConfig(steps=400),
                              derive_seeds(0, 6), gradient="analytic")
    emit_reports(records, write_shots_jsonl, tmp_path / "mera_shots.jsonl",
                 command="acceptance-9-mera", config={"steps": 400, "seeds": 6})
    best = min(r.best_gap for r in records if not r.failed)
    contradictions = [r.seed for r in records
                      if not r.failed and r.best_gap <= -1e-3]
    crit("9-mera", best >= -1e-3 and not contradictions,
         f"8-qubit MERA, 6 shots x 400 steps, best gap {best:+.6f}")


# ------------------------------------------------------------------------ 10


def test_criterion_10_determinism(tmp_path):
    cfg = ObjectiveConfig(SEARCH_DIMS, default_partition(SEARCH_DIMS), q=1.0)
    adam = AdamConfig(steps=400)
    seeds = derive_seeds(0, 3)

    runs = {}
    for tag, par in [("p1", 1), ("p2", 2), ("p1again", 1)]:
        records = run_batch(cfg, adam, seeds, parallelism=par)
        path = tmp_path / f"shots_{tag}.jsonl"
        write_shots_jsonl(records, path)
        runs[tag] = path.read_bytes()
        states = [state_from_record(r) for r in records]
        sweep = sweep_min_gap(states, [0.5, 1.0, 1.05], cfg.partition)
        cpath = tmp_path / f"sweep_{tag}.csv"
        write_sweep_csv(sweep, cpath)
        runs[tag + "_csv"] = cpath.read_bytes()

    ok = (
        runs["p1"] == runs["p2"] == runs["p1again"]
        and runs["p1_csv"] == runs["p2_csv"] == runs["p1again_csv"]
    )
    crit("10", ok, "shot logs and sweep CSVs byte-identical at parallelism 1 and 2")
