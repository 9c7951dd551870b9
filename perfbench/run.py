"""Run one workload of the entgap benchmark and print its metrics.

    python3 perfbench/run.py --workload search-3322 --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs a little of the workload untraced, then replays it
and carries on with every layer function wrapped (see ``tracing.py``), and
prints the per-layer metrics.  Either way the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Shot logs, ``result.json`` (with machine facts and the git
revision) and, when traced, ``spans.csv`` go to
``.perfbench_runs/<workload>/seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
SETUP_PROBES = 7  # cold starts per run; setup_s is their median
REPLAY_SECONDS = 2.0  # untraced work that a traced run replays to compare bytes and wall time
STEP_SPANS = ("objective.value_and_gradient", "mera.value_and_gradient")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_rounds(wl, out: Path, seconds: float, min_rounds: int = 0, tracer=None):
    """Whole rounds from round 0 while they fill ``seconds`` of round wall time.

    A further round starts only if, at the median round wall so far, it would
    end less than half a round past ``seconds``, so a run's timed part is
    ``seconds`` give or take half a round, and never less than one round.
    Each round is checked as soon as it ends, outside the timed and traced
    part, and its states are then dropped, so memory does not grow with the
    number of rounds a run fits in.
    """
    rounds, walls, failures = [], [], []
    while (len(rounds) < max(min_rounds, 1)
           or sum(walls) + statistics.median(walls) / 2 < seconds):
        k = len(rounds)
        if tracer is not None:
            tracer.active = True
        t = time.perf_counter()
        rd = wl.run_round(k, out / f"round{k:04d}")
        walls.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.active = False
        rd.digest = hashlib.sha256(rd.fingerprint()).digest()
        failures += [f"round {k}: {msg}" for msg in wl.check(rd)]
        rd.states.clear()
        rd.reports.clear()
        rounds.append(rd)
    return rounds, walls, failures + wl.check_run(rounds)


def setup_seconds(name: str, seed: int, out: Path) -> list[float]:
    """``SETUP_PROBES`` cold starts, after one more whose time is dropped.

    The dropped start lets the processor leave the idle state it may be in
    when the run begins: after a pause the first starts here read up to 1.5x
    the later ones.
    """
    vals = []
    for _ in range(SETUP_PROBES + 1):
        r = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed), str(out)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        vals.append(float(r.stdout.split()[-1]))
    return vals[1:]


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def end_to_end_metrics(wl, rounds, walls, setup) -> dict:
    """Rates are the lower quartile of the run's round rates: the rate three rounds in four reach.

    The host runs some stretches of seconds to minutes up to 1.5-2x faster
    than its usual level.  A run's median follows such a stretch once it
    covers half the run; the lower quartile only once it covers three
    quarters, so it varies less from run to run.
    """
    # a workload without ADAM steps evaluates one state per operation
    evals = [r.steps if wl.unit == "step" else r.ops for r in rounds]
    eval_rate = lower_quartile([e / w for e, w in zip(evals, walls)])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "steps_per_s": (eval_rate, "steps/s"),
        "shots_per_s": (lower_quartile([r.ops / w for r, w in zip(rounds, walls)]), "shots/s"),
        "states_per_s": (eval_rate, "states/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(tr, wl, rounds, overhead: float) -> dict:
    import checks

    summ = tr.summary()
    steps = sum(r.steps for r in rounds)
    ops = sum(r.ops for r in rounds)
    per = steps if wl.unit == "step" else ops

    def ns(name, key="total_ns"):
        return summ.get(name, {}).get(key, 0)

    def us(total_ns):
        return total_ns / 1e3 / per

    eigh_calls, eigh_ns = tr.under("numpy.eigh", STEP_SPANS)
    _, einsum_ns = tr.under("numpy.einsum", ("mera.value_and_gradient",))
    facts = [f for rd in rounds for f in rd.facts]
    firsts = []
    for rd in rounds:
        for rec in rd.records:
            below = (rec.objective_trace < checks.VIOLATION).nonzero()[0]
            if below.size:
                firsts.append(int(below[0]) + 1)
    return {
        "objective.vg_self_us": (us(ns("objective.value_and_gradient", "self_ns")), "us"),
        "objective.eigh_us": (us(eigh_ns), "us"),
        "objective.eigh_calls": (eigh_calls / per, "count"),
        "objective.hinge_active_share": (
            tr.hinge_active_steps / tr.penalized_steps if tr.penalized_steps else 0.0, "share"),
        "optimize.adam_us": (us(ns("optimize.adam_step")), "us"),
        "optimize.loop_us": (
            us(ns("optimize.run_batch", "self_ns") + ns("mera.run_mera_search", "self_ns")), "us"),
        "optimize.steps_per_shot": (steps / ops, "steps"),
        "optimize.steps_to_violation": (statistics.median(firsts) if firsts else 0.0, "steps"),
        "optimize.violation_share": (
            sum(f.violates for f in facts) / len(facts) if facts else 0.0, "share"),
        "mera.circuit_us": (us(einsum_ns), "us"),
        "mera.vg_self_us": (us(ns("mera.value_and_gradient", "self_ns")), "us"),
        "states.partial_trace_us": (us(ns("states.partial_trace")), "us"),
        "states.partial_trace_calls": (ns("states.partial_trace", "calls") / per, "count"),
        "entropy.spectrum_us": (us(ns("entropy.hermitian_spectrum")), "us"),
        "entropy.spectrum_calls": (ns("entropy.hermitian_spectrum", "calls") / per, "count"),
        "entropy.max_tmi_us": (us(ns("entropy.max_tmi")), "us"),
        "reflect.reflected_entropy_us": (us(ns("reflect.reflected_entropy")), "us"),
        "optimize.profile_us": (us(ns("optimize.state_gap_curve")), "us"),
        "io.verify_us": (us(ns("io.verify_state_file")), "us"),
        "io.shots_io_us": (us(ns("io.emit_reports") + ns("io.read_shots_jsonl")), "us"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def blas_threads():
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() or None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entgap" / "__init__.py").is_file():
        print(f"error: no entgap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup = [] if args.trace else setup_seconds(args.workload, args.seed, run_dir / "probe")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.first_evaluation(run_dir / "first")  # lazy set-up and caches, paid once per CLI run, sit in setup_s
    if args.trace:
        replay, replay_walls, failures = run_rounds(
            wl, run_dir / "untraced", min(REPLAY_SECONDS, args.seconds))
        tracer = Tracer()
        tracer.install()
        rounds, walls, traced_failures = run_rounds(
            wl, run_dir, args.seconds, min_rounds=len(replay), tracer=tracer)
        failures += traced_failures
        failures += [f"round {k}: traced output differs from the untraced run"
                     for k, (a, b) in enumerate(zip(replay, rounds)) if a.digest != b.digest]
        overhead = sum(walls[: len(replay)]) / sum(replay_walls)
        metrics = layer_metrics(tracer, wl, rounds, overhead)
        tracer.write_csv(run_dir / "spans.csv")
        tracer.uninstall()
    else:
        rounds, walls, failures = run_rounds(wl, run_dir, args.seconds)
        metrics = end_to_end_metrics(wl, rounds, walls, setup)

    result = {
        "correct": not failures,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "round_walls_s": walls, "setup_probes_s": setup,
        "failures": failures,
    }
    (run_dir / "result.json").write_text(json.dumps({**details, **result}, indent=1) + "\n")
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps(details["machine"]))
    for k, (v, u) in metrics.items():
        print(f"{k:32s} {v:14.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
