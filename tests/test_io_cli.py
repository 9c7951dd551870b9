import argparse
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from entgap import __version__
from entgap.cli import MAX_GRID_POINTS, _parse_grid, main
from entgap.entropy import EntropyConfig, entropy_from_spectrum, max_tmi
from entgap.io import (
    ShotLogError,
    StateFileError,
    emit_reports,
    fmt12,
    parse_state_file,
    read_shots_jsonl,
    shot_from_dict,
    shot_to_dict,
    verify_state_file,
    write_curve_csv,
    write_shots_jsonl,
    write_state_file,
    write_sweep_csv,
    write_tmi_csv,
)
from entgap.objective import GapProfile, ObjectiveConfig, _cached_state_objective, gap
from entgap.optimize import (
    AdamConfig,
    ShotRecord,
    SweepRecord,
    blas_threads,
    run_batch,
    state_from_record,
)
from entgap.states import Dims, QuditState, default_partition

from conftest import antihermitian_to_params, fixture_path, load_fixture_state, random_state


def small_records(steps=60, seeds=(0, 1)):
    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), q=1.0)
    return run_batch(cfg, AdamConfig(steps=steps), list(seeds))


def test_fmt12():
    assert fmt12(0.1) == "0.1"
    assert fmt12(1.0 / 3.0) == "0.333333333333"
    assert fmt12(-2.5e-17) == "-2.5e-17"


def test_state_file_round_trip(tmp_path, rng):
    psi = random_state(Dims((3, 3, 2, 2)), rng)
    part = default_partition(psi.dims)
    path = tmp_path / "state.json"
    write_state_file(path, psi, part, description="round trip",
                     expected={"gap": -1.0, "tol_gap": 2.0})
    parsed = parse_state_file(path)
    assert parsed.dims.sites == (3, 3, 2, 2)
    assert parsed.partition == part
    # writer rounds to 12 significant digits
    assert np.max(np.abs(parsed.amplitudes - psi.amplitudes)) < 1e-11
    assert parsed.expected["gap"] == -1.0


def test_state_file_rejects_wrong_amplitude_count(tmp_path):
    doc = {
        "dims": [3, 3, 2, 2],
        "parties": {"A": [0], "B": [1], "Ap": [2], "Bp": [3]},
        "amplitudes": [[1.0, 0.0]] * 35,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError):
        parse_state_file(path)
    assert main(["verify", str(path)]) == 2


def test_state_file_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2]}))
    with pytest.raises(StateFileError):
        parse_state_file(path)
    path.write_text("not json at all {")
    with pytest.raises(StateFileError):
        parse_state_file(path)


VALID_STATE = {
    "dims": [2, 2, 2, 2],
    "parties": {"A": [0], "B": [1], "Ap": [2], "Bp": [3]},
    "amplitudes": [[0.25, 0.0]] * 16,
}


@pytest.mark.parametrize("argv", [["verify", "{path}"], ["curve", "--state", "{path}", "--out", "{out}"]])
@pytest.mark.parametrize("doc", [
    5,
    [],
    {**VALID_STATE, "expected": [1]},
    {**VALID_STATE, "parties": 5},
    {**VALID_STATE, "amplitudes": 5},
], ids=["int", "list", "expected-list", "parties-int", "amplitudes-int"])
def test_state_file_of_wrong_json_types_is_an_input_error(tmp_path, capsys, argv, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError):
        parse_state_file(path)
    assert main([a.format(path=path, out=tmp_path / "out") for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["verify", "{path}"], ["curve", "--state", "{path}", "--out", "{out}"]])
@pytest.mark.parametrize("amplitudes, message", [
    ([[0.25, 0.0]] * 5 + [["NaN", 0.0]] + [[0.25, 0.0]] * 10, "amplitude 5 is not finite"),
    ([[0.0, 0.0]] * 16, "state norm 0.000000 deviates"),
    ([[3.15 / 4, 0.0]] * 16, "state norm 3.150000 deviates"),
], ids=["nan", "zero", "norm-3.15"])
def test_state_file_with_bad_amplitudes_is_an_input_error(tmp_path, capsys, argv, amplitudes, message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**VALID_STATE, "amplitudes": amplitudes}))
    assert main([a.format(path=path, out=tmp_path / "out") for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("expected", [
    {"gap": None},
    {"gap": [1]},
    {"gap": "x"},
    {"gap": True},
    {"s_r": math.nan},
    {"s_aap": math.inf},
    {"gap": -1.0, "tol_gap": None},
    {"gap": -1.0, "tol_gap": -math.inf},
    {"gap": -1.0, "tol_s_r": -0.5},
], ids=["null", "list", "string", "bool", "nan", "inf", "tol-null", "tol-inf", "tol-negative"])
def test_verify_malformed_expected_block_is_an_input_error(tmp_path, capsys, expected):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**VALID_STATE, "expected": {"log_base": "2", **expected}}))
    with pytest.raises(StateFileError, match="must be a finite number"):
        parse_state_file(path)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: expected field")


def test_verify_rejects_large_norm_deviation(tmp_path):
    amps = [[0.5, 0.0]] * 16  # norm 2
    doc = {
        "dims": [2, 2, 2, 2],
        "parties": {"A": [0], "B": [1], "Ap": [2], "Bp": [3]},
        "amplitudes": amps,
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError):
        verify_state_file(path)
    assert main(["verify", str(path)]) == 2


def test_verify_bundled_fixtures_pass():
    for name in ("violation_3322.json", "violation_qubits6.json"):
        report = verify_state_file(str(fixture_path(name)))
        assert report.passed
        assert report.matched_base == "2"
        assert report.identity_error <= 1e-12
        assert main(["verify", str(fixture_path(name))]) == 0


def _independent_values(psi, part, config):
    """verify's values and kernel gap error, computed from scratch in one log base."""
    prof = GapProfile(psi, part, config)
    s_r = entropy_from_spectrum(prof.spectrum, 1.0, config)
    g = prof.s_aap - 0.5 * s_r
    kernel_gap = _cached_state_objective(ObjectiveConfig(psi.dims, part, entropy=config))(
        psi.amplitudes[None], want_grad=False)[0][0]
    values = {"s_aap": prof.s_aap, "s_r": s_r, "gap": g, "max_i3": max_tmi(psi, part, config)}
    return values, abs(g - kernel_gap)


@pytest.mark.parametrize("source", ["violation_3322.json", "violation_qubits6.json", "random"])
def test_verify_bits_values_equal_a_bits_evaluation(tmp_path, rng, source):
    # verify computes every spectrum once, in nats, and derives bits from it
    if source == "random":
        path = tmp_path / "state.json"
        psi = random_state(Dims((3, 3, 2, 2)), rng)
        write_state_file(path, psi, default_partition(psi.dims))
    else:
        path = fixture_path(source)
    parsed = parse_state_file(path)
    psi, part = parsed.state(), parsed.partition
    nats, nats_err = _independent_values(psi, part, EntropyConfig(log_base="e"))
    bits, bits_err = _independent_values(psi, part, EntropyConfig(log_base="2"))
    report = verify_state_file(path)
    assert report.values_nats == nats
    assert report.values_bits == bits
    assert report.identity_error == max(nats_err, bits_err)


def test_verify_fails_when_reference_drifts_from_kernel(monkeypatch, capsys):
    # the reference reflected spectrum scaled by 1 + 1e-9 moves the reference
    # gap by ~1e-10, far inside the fixture tolerances but not the 1e-12
    # kernel cross-check, which alone must fail
    import entgap.objective

    real = entgap.objective.reflected_spectrum
    monkeypatch.setattr(entgap.objective, "reflected_spectrum",
                        lambda *args: real(*args) * (1.0 + 1e-9))
    path = str(fixture_path("violation_3322.json"))
    report = verify_state_file(path)
    assert not report.passed
    assert report.identity_error > 1e-12
    assert report.matched_base == "2"
    assert "search kernel vs reference" in report.render()
    assert main(["verify", path]) == 1
    identity = [ln for ln in capsys.readouterr().out.splitlines() if "search kernel" in ln]
    assert len(identity) == 1 and identity[0].endswith("FAIL")


def test_verify_reports_mismatch(tmp_path, rng):
    psi = random_state(Dims((2, 2, 2, 2)), rng)
    part = default_partition(psi.dims)
    path = tmp_path / "state.json"
    write_state_file(path, psi, part,
                     expected={"gap": 5.0, "tol_gap": 1e-3})
    report = verify_state_file(path)
    assert not report.passed
    assert report.matched_base is None
    assert main(["verify", str(path)]) == 1


def test_shots_jsonl_round_trip(tmp_path):
    records = small_records()
    path = tmp_path / "shots.jsonl"
    write_shots_jsonl(records, path)
    back = read_shots_jsonl(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.seed == b.seed
        assert a.family == b.family
        assert a.partition == b.partition
        assert abs(a.best_gap - b.best_gap) < 1e-11
        assert np.max(np.abs(a.best_params - b.best_params)) < 1e-11


def test_shots_jsonl_seed_ascending(tmp_path):
    records = small_records(seeds=(3, 1, 2))
    path = tmp_path / "shots.jsonl"
    write_shots_jsonl(records, path)
    seeds = [json.loads(line)["seed"] for line in path.read_text().splitlines()]
    assert seeds == sorted(seeds)


@pytest.mark.parametrize("command", ["tmi", "curve"])
@pytest.mark.parametrize("bad", ["{}", "[1,2]", '{"seed": 1', "null"])
def test_malformed_shot_log_is_an_input_error(tmp_path, capsys, command, bad):
    shots = tmp_path / "shots.jsonl"
    write_shots_jsonl(small_records(steps=5, seeds=(0,)), shots)
    with open(shots, "a") as f:
        f.write(bad + "\n")
    with pytest.raises(ShotLogError, match="shots.jsonl:2: "):
        read_shots_jsonl(shots)
    assert main([command, "--shots", str(shots), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "shots.jsonl:2: " in err
    assert not (tmp_path / "out").exists()


def test_shot_dict_round_trip():
    rec = small_records(steps=30, seeds=(5,))[0]
    doc = shot_to_dict(rec)
    back = shot_from_dict(doc)
    assert back.seed == rec.seed
    assert np.array_equal(back.best_params, rec.best_params)


def test_failed_shot_round_trips_as_strict_json(tmp_path):
    from dataclasses import replace

    rec = replace(small_records(steps=20, seeds=(0,))[0],
                  failed=True, best_gap=float("inf"), note="did not converge")
    path = tmp_path / "failed.jsonl"
    write_shots_jsonl([rec], path)
    # strict JSON: no bare Infinity tokens on disk
    assert "Infinity" not in path.read_text()
    back = read_shots_jsonl(path)[0]
    assert back.failed and math.isinf(back.best_gap)


def read_csv(path) -> np.ndarray:
    """The rows of a numeric CSV report, its header skipped."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_csv_writers_golden_bytes(tmp_path):
    # rows sorted on their first column, numbers at 12 significant digits, csv's CRLF line ends
    sweep = [SweepRecord(q=1.0, min_gap=-0.00123456789012345, argmin_state_id="q1/seed0"),
             SweepRecord(q=1 / 3, min_gap=-0.25, argmin_state_id="s1")]
    emit_reports(sweep, write_sweep_csv, tmp_path / "sweep.csv", command="test")
    assert (tmp_path / "sweep.csv").read_bytes() == (
        b"q,min_gap,state_id\r\n0.333333333333,-0.25,s1\r\n1,-0.00123456789012,q1/seed0\r\n")

    emit_reports([(1.0, -0.002), (0.5, 2 / 3)], write_curve_csv, tmp_path / "curve.csv")
    assert (tmp_path / "curve.csv").read_bytes() == b"q,gap\r\n0.5,0.666666666667\r\n1,-0.002\r\n"

    emit_reports([(1, -0.002, 0.05), (0, -1e-13, -0.01)], write_tmi_csv, tmp_path / "tmi.csv")
    assert (tmp_path / "tmi.csv").read_bytes() == (
        b"seed,gap,max_i3\r\n0,-1e-13,-0.01\r\n1,-0.002,0.05\r\n")


def test_emit_reports_writes_manifest(tmp_path):
    records = [SweepRecord(q=1.0, min_gap=0.0, argmin_state_id="s0")]
    out = emit_reports(records, write_sweep_csv, tmp_path / "x.csv",
                       command="sweep", config={"alpha": 0.1})
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["config"] == {"alpha": 0.1}
    assert "version" in manifest and "timestamp" in manifest
    assert manifest["blas_threads"] == blas_threads()
    assert "workers" not in manifest  # only searches run on workers
    assert out.exists()
    emit_reports(records, write_sweep_csv, tmp_path / "y.csv", "sweep", {}, workers=2)
    assert json.loads((tmp_path / "y.csv.manifest.json").read_text())["workers"] == 2


def test_emit_reports_validation(tmp_path):
    with pytest.raises(ValueError):
        emit_reports([], write_sweep_csv, tmp_path / "x.csv")


def test_emit_byte_identical_rerun(tmp_path):
    records = small_records()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_shots_jsonl(records, p1)
    write_shots_jsonl(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_optimize_and_tmi_flow(tmp_path):
    out = tmp_path / "run"
    rc = main(["optimize", "--dims", "3,3,2,2", "--q", "1", "--seeds", "1",
               "--steps", "500", "--out", str(out)])
    assert rc == 0
    shots = out / "shots.jsonl"
    assert shots.exists() and (out / "shots.jsonl.manifest.json").exists()
    recs = read_shots_jsonl(shots)
    assert len(recs) == 1 and recs[0].best_gap <= -1e-3

    rc = main(["tmi", "--shots", str(shots), "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "tmi.csv")
    assert len(rows) == 1
    assert rows[0][2] < 0.0  # found states carry negative Max(I3)


def test_cli_tmi_filters_on_the_rebuilt_gap(tmp_path):
    # best_gap is the logged objective (penalized under --penalty), not the gap:
    # a +1.0 record holding the violating fixture must be kept with its true
    # gap, and a -1.0 record holding the uniform (product) state dropped
    psi, part, _ = load_fixture_state("violation_3322.json")
    dims = psi.dims

    def record(seed, best_gap, entries):
        return ShotRecord(seed=seed, dims=dims.sites, partition=part, q_trained=1.0,
                          best_gap=best_gap, best_params=entries, steps_run=1,
                          objective_trace=np.array([best_gap]))

    # exp(i pi v v^dag) is the Householder reflection taking the uniform state
    # to the fixture (up to a global phase)
    chi = np.full(dims.total, 1.0 / np.sqrt(dims.total))
    y = psi.amplitudes * np.exp(-1j * np.angle(np.vdot(chi, psi.amplitudes)))
    v = (chi - y) / np.linalg.norm(chi - y)
    fixture_params = antihermitian_to_params(1j * np.pi * np.outer(v, v.conj())).view(np.complex128)
    uniform_params = np.zeros(dims.total * (dims.total + 1) // 2, dtype=np.complex128)
    shots = tmp_path / "shots.jsonl"
    write_shots_jsonl([record(3, 1.0, fixture_params), record(4, -1.0, uniform_params)], shots)
    rebuilt = state_from_record(read_shots_jsonl(shots)[0])
    want = gap(rebuilt, part, 1.0)
    assert abs(want - gap(psi, part, 1.0)) < 1e-9 and want < -1e-3

    for base, div in (("e", 1.0), ("2", math.log(2.0))):
        out = tmp_path / base
        assert main(["tmi", "--shots", str(shots), "--log-base", base, "--out", str(out)]) == 0
        rows = read_csv(out / "tmi.csv")
        assert [r[0] for r in rows] == [3]
        assert abs(rows[0][1] - want / div) < 1e-12
        assert rows[0][2] < 0.0


@pytest.mark.parametrize(
    "argv,target",
    [(["optimize", "--dims", "2,2,2,2"], "entgap.optimize.stacked_value_and_gradient"),
     (["mera", "--qubits", "8", "--gradient", "analytic"], "entgap.mera.mera_value_and_gradient"),
     (["sweep", "--dims", "2,2,2,2", "--train-q", "1.0"],
      "entgap.optimize.stacked_value_and_gradient")],
)
def test_cli_every_shot_failed_exits_1_with_notes(tmp_path, monkeypatch, capsys, argv, target):
    def blow_up(*args, **kwargs):
        raise FloatingPointError("objective is not finite: nan")

    monkeypatch.setattr(target, blow_up)
    rc = main(argv + ["--seeds", "2", "--steps", "5", "--out", str(tmp_path)])
    assert rc == 1
    recs = read_shots_jsonl(tmp_path / "shots.jsonl")
    assert [(r.seed, r.failed) for r in recs] == [(0, True), (1, True)]
    err = capsys.readouterr().err
    for seed in (0, 1):
        assert f"seed {seed} failed: objective is not finite: nan" in err


@pytest.mark.parametrize(
    "argv", [["optimize", "--dims", "2,2,2,2"], ["sweep", "--dims", "2,2,2,2", "--train-q", "1.0"],
             ["mera", "--qubits", "8"]],
)
@pytest.mark.parametrize("parallelism", ["0", "-2"])
def test_cli_rejects_parallelism_below_one(tmp_path, capsys, argv, parallelism):
    rc = main(argv + ["--seeds", "2", "--steps", "2", "--parallelism", parallelism,
                      "--out", str(tmp_path)])
    assert rc == 2
    assert f"parallelism must be >= 1, got {parallelism}" in capsys.readouterr().err
    assert not (tmp_path / "shots.jsonl").exists()


def test_cli_optimize_names_the_penalized_objective(tmp_path, capsys):
    # under --penalty best_gap is gap + weight * max(Max(I3), 0), not the gap
    args = ["optimize", "--dims", "2,2,2,2", "--seeds", "2", "--steps", "5"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert "; best gap over 2 shots: " in capsys.readouterr().out
    assert main(args + ["--penalty", "--out", str(tmp_path / "pen")]) == 0
    out = capsys.readouterr().out
    assert "; best objective (gap + MMI hinge) over 2 shots: " in out
    assert "best gap" not in out


def test_cli_curve_from_fixture(tmp_path):
    out = tmp_path / "curve"
    rc = main(["curve", "--state", str(fixture_path("violation_3322.json")),
               "--q-grid", "0.9:1.1:0.05", "--out", str(out)])
    assert rc == 0
    pts = dict(read_csv(out / "curve.csv"))
    assert pts[1.0] < 0.0
    assert len(pts) == 5


def test_cli_curve_needs_exactly_one_source(tmp_path, capsys):
    assert main(["curve", "--out", str(tmp_path)]) == 2
    # --seed picks a shot of a log; with --state it was silently ignored
    rc = main(["curve", "--state", str(fixture_path("violation_3322.json")), "--seed", "3",
               "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "--seed needs --shots" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_cli_curve_from_shots_skips_failed_shots(tmp_path, capsys):
    failed, finished = small_records(steps=20)
    failed = replace(failed, failed=True, note="FloatingPointError: objective is not finite: nan",
                     best_gap=float("inf"), best_params=np.zeros_like(failed.best_params))
    shots = tmp_path / "shots.jsonl"
    write_shots_jsonl([failed, finished], shots)
    grid = ["--q-grid", "0.5:1.5:0.5"]
    assert main(["curve", "--shots", str(shots), "--out", str(tmp_path)] + grid) == 0
    want = gap(state_from_record(finished), finished.partition, 1.0)
    assert dict(read_csv(tmp_path / "curve.csv"))[1.0] == pytest.approx(want, abs=1e-11)
    rc = main(["curve", "--shots", str(shots), "--seed", "0", "--out", str(tmp_path / "s0")] + grid)
    assert rc == 2
    assert "seed 0 failed: FloatingPointError: objective is not finite: nan" in capsys.readouterr().err
    assert not (tmp_path / "s0").exists()


def test_cli_curve_refuses_a_seed_held_once_per_training_q(tmp_path, capsys):
    # a sweep log holds each seed once per --train-q: --seed alone cannot pick one
    log = tmp_path / "sweep"
    assert main(["sweep", "--dims", "2,2,2,2", "--train-q", "0.5,1", "--seeds", "2", "--steps", "30",
                 "--q-grid", "0.5:1.5:0.5", "--out", str(log)]) == 0
    capsys.readouterr()
    out = tmp_path / "curve"
    # without --seed, the first finished record would pick seed 0 at q = 0.5
    for pick, held in ((["--seed", "1"], "2 finished shots with seed 1 in "), ([], "4 finished shots in ")):
        rc = main(["curve", "--shots", str(log / "shots.jsonl"), *pick, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert held in err
        assert err.endswith("trained at q = 0.5, 1\n")
        assert not out.exists()


def test_cli_curve_refuses_a_truncated_parameter_row(tmp_path, capsys):
    log = tmp_path / "log"
    assert main(["optimize", "--dims", "3,3,2,2", "--seeds", "1", "--steps", "2", "--out", str(log)]) == 0
    rec = read_shots_jsonl(log / "shots.jsonl")[0]
    write_shots_jsonl([replace(rec, best_params=rec.best_params[:-1])], log / "cut.jsonl")
    capsys.readouterr()
    assert main(["curve", "--shots", str(log / "cut.jsonl"), "--out", str(tmp_path / "curve")]) == 2
    assert capsys.readouterr().err == "error: expected 1332 real parameters for d=36, got 1330\n"


def test_cli_bound_check_passes():
    assert main(["bound-check", "--dims", "2,2,2,2", "--samples", "50"]) == 0
    assert main(["bound-check", "--dims", "2,2,2,2", "--q", "1.5"]) == 2


@pytest.mark.parametrize("q", ["nan", "inf"])
def test_cli_bound_check_rejects_nonfinite_q(q, capsys):
    # nan < 2 is false, and min(inf, nan) is inf: unchecked, nan read as a pass
    assert main(["bound-check", "--dims", "2,2,2,2", "--q", q, "--samples", "2"]) == 2
    assert "min gap" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["optimize", "--dims", "2,2,2,2", "--lr", "nan"],
    ["optimize", "--dims", "2,2,2,2", "--lr", "inf"],
    ["optimize", "--dims", "2,2,2,2", "--q", "nan"],
    ["optimize", "--dims", "2,2,2,2", "--q", "inf"],
    ["optimize", "--dims", "2,2,2,2", "--penalty", "--penalty-weight", "nan"],
    ["optimize", "--dims", "2,2,2,2", "--penalty", "--penalty-weight", "inf"],
    ["sweep", "--dims", "2,2,2,2", "--train-q", "nan"],
    ["mera", "--qubits", "8", "--q", "nan"],
    ["mera", "--qubits", "8", "--lr", "inf"],
    # sweep trained at q = 1 before it rejected the second q
    ["sweep", "--dims", "2,2,2,2", "--train-q", "1,nan"],
    ["sweep", "--dims", "2,2,2,2", "--train-q", "1,-0.5"],
])
def test_cli_rejects_nonfinite_numeric_options(tmp_path, monkeypatch, capsys, argv):
    def no_shot(*args, **kwargs):
        raise AssertionError("a shot ran before the input error")

    monkeypatch.setattr("entgap.cli.run_batch", no_shot)
    monkeypatch.setattr("entgap.cli.run_mera_search", no_shot)
    assert main(argv + ["--seeds", "1", "--steps", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "shots.jsonl").exists()


@pytest.mark.parametrize("command", ["curve", "sweep"])
@pytest.mark.parametrize("grid", ["0.1:inf:0.1", "0.1:1:inf", "-inf:1:0.1", "nan:1:0.1",
                                  "0.1:nan:0.1", "0.1:1:nan", "0.05:1.2:1e-12", "-1e308:1e308:1",
                                  "0:1:0.5"])
def test_cli_rejects_nonfinite_q_grid(tmp_path, capsys, command, grid):
    # inf overflowed the point count and a nan step built the grid [nan]: exit 1, traceback.
    # The next two hold ~1.15e12 points and an inf span: rejected before any point is built.
    # q = 0 let sweep train and write shots.jsonl before it exited 2.
    source = (["--state", str(fixture_path("violation_3322.json"))] if command == "curve"
              else ["--dims", "2,2,2,2"])
    with pytest.raises(SystemExit) as exc:
        main([command, *source, f"--q-grid={grid}", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"bad grid {grid!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_q_grid_point_bound_is_inclusive():
    assert len(_parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS
    with pytest.raises(argparse.ArgumentTypeError, match="more than"):
        _parse_grid(f"1:{MAX_GRID_POINTS + 1}:1")


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_cli_tmi_rejects_nonfinite_threshold(tmp_path, capsys, threshold):
    # nan compares false with every gap, so it read as "no shots with gap <= nan", exit 1
    shots = tmp_path / "shots.jsonl"
    write_shots_jsonl(small_records(steps=20), shots)
    assert main(["tmi", "--shots", str(shots), f"--threshold={threshold}", "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("error: --threshold must be finite")
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_bound_check_rejects_no_samples(samples, capsys):
    assert main(["bound-check", "--dims", "2,2,2,2", "--samples", samples]) == 2
    assert "min gap" not in capsys.readouterr().out


def test_cli_rerun_byte_identical(tmp_path):
    args = ["optimize", "--dims", "2,2,2,2", "--seeds", "2", "--steps", "120"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "shots.jsonl").read_bytes() == (out2 / "shots.jsonl").read_bytes()


def test_cli_mera_smoke(tmp_path):
    out = tmp_path / "mera"
    rc = main(["mera", "--qubits", "8", "--seeds", "1", "--steps", "10",
               "--gradient", "analytic", "--out", str(out)])
    assert rc == 0
    recs = read_shots_jsonl(out / "shots.jsonl")
    assert recs[0].family == "mera"
    rc = main(["curve", "--shots", str(out / "shots.jsonl"), "--q-grid", "0.5:1.5:0.5",
               "--out", str(out)])
    assert rc == 0
    want = gap(state_from_record(recs[0]), recs[0].partition, 1.0)
    assert dict(read_csv(out / "curve.csv"))[1.0] == pytest.approx(want, abs=1e-11)


def test_cli_manifests_record_command_config_and_workers(tmp_path, monkeypatch):
    # every command's manifest, key for key and in order, timestamps aside.  With a
    # budget of one BLAS thread, --parallelism 1 and 2 run on different worker counts
    monkeypatch.setattr("entgap.optimize.blas_threads", lambda: 1)
    common = ["--seeds", "2", "--steps", "3", "--master-seed", "5", "--lr", "0.02"]

    def run_config(parallelism, log_base="e"):
        return [("seeds", 2), ("master_seed", 5), ("steps", 3), ("lr", 0.02),
                ("parallelism", parallelism), ("log_base", log_base)]

    def check(artifact, command, config, workers=None):
        doc = json.loads(artifact.with_name(artifact.name + ".manifest.json").read_text())
        keys = ["command", "config", "version", "blas_threads", "timestamp"]
        assert list(doc) == keys + ([] if workers is None else ["workers"])
        assert doc["command"] == command and doc["version"] == __version__
        assert list(doc["config"].items()) == config
        assert doc["blas_threads"] == blas_threads() and doc.get("workers") == workers

    opt = tmp_path / "opt"
    assert main(["optimize", "--dims", "2,2,2,2", *common, "--out", str(opt)]) == 0
    check(opt / "shots.jsonl", "optimize", run_config(1) + [
        ("dims", [2, 2, 2, 2]), ("q", 1.0), ("penalty", False), ("penalty_weight", 1.0)],
        1)

    pen = tmp_path / "pen"
    assert main(["optimize", "--dims", "2,2,2,2", "--q", "0.9", "--penalty", "--penalty-weight", "0.5",
                 "--log-base", "2", *common, "--out", str(pen)]) == 0
    check(pen / "shots.jsonl", "optimize", run_config(1, "2") + [
        ("dims", [2, 2, 2, 2]), ("q", 0.9), ("penalty", True), ("penalty_weight", 0.5)],
        1)

    sweep = tmp_path / "sweep"
    assert main(["sweep", "--dims", "2,2,2,2", "--train-q", "0.5,1", "--q-grid", "0.5:1.5:0.5",
                 *common, "--parallelism", "2", "--out", str(sweep)]) == 0
    for name in ("shots.jsonl", "sweep.csv"):
        check(sweep / name, "sweep", run_config(2) + [
            ("dims", [2, 2, 2, 2]), ("train_q", [0.5, 1.0]), ("q_grid", [0.5, 1.5, 3])],
            2)

    mera = tmp_path / "mera"
    assert main(["mera", "--qubits", "8", *common, "--out", str(mera)]) == 0
    check(mera / "shots.jsonl", "mera", run_config(1) + [
        ("qubits", 8), ("q", 1.0), ("gradient", "analytic")], 1)

    state = fixture_path("violation_3322.json")
    assert main(["curve", "--state", str(state), "--q-grid", "0.5:1.5:0.5", "--log-base", "2",
                 "--out", str(tmp_path / "c1")]) == 0
    check(tmp_path / "c1" / "curve.csv", "curve",
          [("source", str(state)), ("log_base", "2"), ("q_grid", [0.5, 1.5, 3])])

    shots = opt / "shots.jsonl"
    first = read_shots_jsonl(shots)[0].seed
    assert main(["curve", "--shots", str(shots), "--out", str(tmp_path / "c2")]) == 0
    check(tmp_path / "c2" / "curve.csv", "curve",
          [("source", f"{shots}:seed{first}"), ("log_base", "e"), ("q_grid", [0.05, 1.2, 116])])

    assert main(["tmi", "--shots", str(shots), "--threshold", "10", "--out", str(tmp_path / "t")]) == 0
    check(tmp_path / "t" / "tmi.csv", "tmi",
          [("shots", str(shots)), ("threshold", 10.0), ("log_base", "e")])
