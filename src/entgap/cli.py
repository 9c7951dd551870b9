"""Command-line interface.

Subcommands: verify, optimize, sweep, curve, tmi, mera, bound-check.
Exit codes: 0 pass, 1 numeric-criterion failure, 2 input/parse error.
Runs are reproducible from the emitted manifest: shot seeds derive from
--master-seed as ``master ^ index`` and outputs are byte-deterministic at
any --parallelism and any OPENBLAS_NUM_THREADS: a search runs every BLAS
call on one OpenBLAS thread and spends the thread budget on worker
processes instead.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import EntropyConfig, max_tmi
from .io import (
    emit_reports,
    parse_state_file,
    read_shots_jsonl,
    verify_state_file,
    write_curve_csv,
    write_shots_jsonl,
    write_sweep_csv,
    write_tmi_csv,
)
from .mera import mera_layout, mera_objective_config, run_mera_search
from .objective import ObjectiveConfig, gap
from .optimize import (
    AdamConfig,
    derive_seeds,
    run_batch,
    state_from_record,
    state_gap_curve,
    sweep_min_gap,
    worker_count,
)
from .states import Dims, QuditState, default_partition

DEFAULT_TRAIN_QS = (0.1, 0.5, 0.9, 0.99, 1.0, 1.02)
MAX_GRID_POINTS = 100_000


def _parse_dims(text: str) -> Dims:
    try:
        return Dims(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}: {exc}")


def _parse_grid(text: str) -> list[float]:
    """start:stop:step with 0 < start, inclusive of stop up to half a step."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}, expected start:stop:step")
    if not np.isfinite([start, stop, step]).all() or start <= 0 or step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: Renyi indices must be positive and finite")
    span = (stop - start) / step  # inf when stop - start overflows
    if span >= MAX_GRID_POINTS or round(span) + 1 > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: more than {MAX_GRID_POINTS} points")
    n = int(round(span))
    grid = [round(start + i * step, 12) for i in range(n + 1)]
    return [q for q in grid if q <= stop + step * 0.5]


def _parse_qlist(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _add_common(p: argparse.ArgumentParser, steps_default: int = 5000) -> None:
    p.add_argument("--seeds", type=int, default=64, help="number of shots")
    p.add_argument("--master-seed", type=int, default=0, help="shot seeds are master^index")
    p.add_argument("--steps", type=int, default=steps_default)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--parallelism", type=int, default=1,
                   help="worker processes, >= 1; each steps one contiguous chunk of the seeds "
                        "with OpenBLAS on one thread. 1 starts one per thread of the OpenBLAS "
                        "budget (OPENBLAS_NUM_THREADS) instead. Never more than seeds or CPUs")
    p.add_argument("--log-base", choices=("e", "2"), default="e")
    p.add_argument("--out", type=Path, required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="entgap", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="recompute a state file's entropies and check them")
    p.add_argument("state_file", type=Path)

    p = sub.add_parser("optimize", help="gap-violation search at fixed dims and q")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--penalty", action="store_true",
                   help="hinge-penalize MMI violation: add weight * max(Max(I3), 0), "
                        "where MMI is Max(I3) <= 0")
    p.add_argument("--penalty-weight", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("sweep", help="batch-train at several q, emit the min-gap curve")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--train-q", type=_parse_qlist, default=list(DEFAULT_TRAIN_QS))
    p.add_argument("--q-grid", type=_parse_grid, default=_parse_grid("0.05:1.2:0.01"))
    _add_common(p, steps_default=3000)

    p = sub.add_parser("curve", help="gap versus q for a single state")
    p.add_argument("--state", type=Path, help="state JSON file")
    p.add_argument("--shots", type=Path, help="read the state from a shot log instead")
    p.add_argument("--seed", type=int, help="which shot to take from --shots")
    p.add_argument("--q-grid", type=_parse_grid, default=_parse_grid("0.05:1.2:0.01"))
    p.add_argument("--log-base", choices=("e", "2"), default="e")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("tmi", help="Max(I3) of negative-gap shots from a shot log")
    p.add_argument("--shots", type=Path, required=True)
    p.add_argument("--threshold", type=float, default=-1e-3, help="keep shots with gap <= this")
    p.add_argument("--log-base", choices=("e", "2"), default="e")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("mera", help="gap search over the binary MERA family")
    p.add_argument("--qubits", type=int, choices=(8, 16), default=8)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--gradient", choices=("analytic",), default="analytic",
                   help="circuit backpropagation, the only gradient")
    _add_common(p, steps_default=2000)

    p = sub.add_parser("bound-check", help="fuzz the q>=2 lower bound on random states")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--log-base", choices=("e", "2"), default="e")
    return ap


def _cmd_verify(args) -> int:
    report = verify_state_file(args.state_file)
    print(report.render())
    return 0 if report.passed else 1


def _shot_config(args, dims: Dims, q: float, penalty: bool = False, weight: float = 1.0):
    return ObjectiveConfig(
        dims,
        default_partition(dims),
        q=q,
        penalty_enabled=penalty,
        penalty_weight=weight,
        entropy=EntropyConfig(log_base=args.log_base),
    )


def _finished(records) -> list:
    """The records that ran; if none did, print each seed's failure note."""
    finished = [r for r in records if not r.failed]
    if not finished:
        for r in records:
            print(f"seed {r.seed} failed: {r.note}", file=sys.stderr)
    return finished


def _report_best(records, out: Path, what: str) -> int:
    """Print the best objective, named by ``what``; exit 1 with every failure note if none ran."""
    finished = _finished(records)
    if not finished:
        return 1
    print(f"wrote {out}; best {what}: {min(r.best_gap for r in finished):+.6g}")
    return 0


def _search(args, command: str, run, extra: dict):
    """Run a search command's batch, then write its shot log and the log's manifest.

    ``run(adam, seeds)`` runs the batch.  Returns the records, the log's path
    and ``emit_reports`` bound to the log's command, config and worker count,
    for a further report of the same run.
    """
    adam = AdamConfig(learning_rate=args.lr, steps=args.steps)
    seeds = derive_seeds(args.master_seed, args.seeds)
    records = run(adam, seeds)
    config = {"seeds": args.seeds, "master_seed": args.master_seed, "steps": args.steps,
              "lr": args.lr, "parallelism": args.parallelism, "log_base": args.log_base, **extra}
    emit = partial(emit_reports, command=command, config=config,
                   workers=worker_count(len(seeds), args.parallelism))
    return records, emit(records, write_shots_jsonl, args.out / "shots.jsonl"), emit


def _cmd_optimize(args) -> int:
    cfg = _shot_config(args, args.dims, args.q, args.penalty, args.penalty_weight)
    records, out, _ = _search(
        args, "optimize", lambda adam, seeds: run_batch(cfg, adam, seeds, parallelism=args.parallelism),
        {"dims": list(args.dims.sites), "q": args.q, "penalty": args.penalty,
         "penalty_weight": args.penalty_weight},
    )
    objective = "objective (gap + MMI hinge)" if args.penalty else "gap"
    return _report_best(records, out, f"{objective} over {len(records)} shots")


def _cmd_sweep(args) -> int:
    cfgs = [_shot_config(args, args.dims, q) for q in args.train_q]  # a bad q fails before any shot
    records, _, emit = _search(
        args, "sweep",
        lambda adam, seeds: [r for cfg in cfgs
                             for r in run_batch(cfg, adam, seeds, parallelism=args.parallelism)],
        {"dims": list(args.dims.sites), "train_q": list(args.train_q),
         "q_grid": [args.q_grid[0], args.q_grid[-1], len(args.q_grid)]},
    )
    finished = _finished(records)
    if not finished:
        return 1
    sweep = sweep_min_gap(
        [state_from_record(r) for r in finished], args.q_grid, default_partition(args.dims),
        EntropyConfig(log_base=args.log_base), ids=[f"q{r.q_trained:g}/seed{r.seed}" for r in finished],
    )
    out = emit(sweep, write_sweep_csv, args.out / "sweep.csv")
    neg = [r for r in sweep if r.min_gap < 0]
    print(f"wrote {out}; min gap is negative at {len(neg)}/{len(sweep)} grid points")
    return 0


def _cmd_curve(args) -> int:
    ecfg = EntropyConfig(log_base=args.log_base)
    if (args.state is None) == (args.shots is None):
        print("curve needs exactly one of --state or --shots", file=sys.stderr)
        return 2
    if args.state is not None:
        if args.seed is not None:
            print("--seed needs --shots", file=sys.stderr)
            return 2
        parsed = parse_state_file(args.state)
        psi = parsed.state()
        part = parsed.partition
        label = str(args.state)
    else:
        records = read_shots_jsonl(args.shots)
        finished = _finished([r for r in records if args.seed is None or r.seed == args.seed])
        wanted = "" if args.seed is None else f" with seed {args.seed}"
        if not finished:
            print(f"no finished shot{wanted} in {args.shots}", file=sys.stderr)
            return 2
        # a sweep log holds each seed once per training q, so its first
        # record picks no q, and a seed held twice picks no record
        qs = list(dict.fromkeys(r.q_trained for r in finished))
        if len(qs) > 1 or (args.seed is not None and len(finished) > 1):
            print(f"{len(finished)} finished shots{wanted} in {args.shots}, "
                  f"trained at q = {', '.join(f'{q:g}' for q in qs)}", file=sys.stderr)
            return 2
        rec = finished[0]
        psi = state_from_record(rec)
        part = rec.partition
        label = f"{args.shots}:seed{rec.seed}"
    points = state_gap_curve(psi, args.q_grid, part, ecfg)
    out = emit_reports(
        points, write_curve_csv, args.out / "curve.csv", "curve",
        {"source": label, "log_base": args.log_base,
         "q_grid": [args.q_grid[0], args.q_grid[-1], len(args.q_grid)]},
    )
    print(f"wrote {out}")
    return 0


def _cmd_tmi(args) -> int:
    if not np.isfinite(args.threshold):  # no gap is <= nan: it would read as "no shots", exit 1
        print(f"error: --threshold must be finite, got {args.threshold}", file=sys.stderr)
        return 2
    ecfg = EntropyConfig(log_base=args.log_base)
    records = read_shots_jsonl(args.shots)
    rows = []
    for rec in records:
        if rec.failed:
            continue
        # best_gap is the penalized objective on a --penalty log, so use the gap itself
        psi = state_from_record(rec)
        g = gap(psi, rec.partition, rec.q_trained, ecfg)
        if g <= args.threshold:
            rows.append((rec.seed, g, max_tmi(psi, rec.partition, ecfg)))
    if not rows:
        print(f"no shots with gap <= {args.threshold} in {args.shots}", file=sys.stderr)
        return 1
    out = emit_reports(
        rows, write_tmi_csv, args.out / "tmi.csv", "tmi",
        {"shots": str(args.shots), "threshold": args.threshold, "log_base": args.log_base},
    )
    print(f"wrote {out} ({len(rows)} shots with gap <= {args.threshold})")
    return 0


def _cmd_mera(args) -> int:
    layout = mera_layout(args.qubits)
    cfg = mera_objective_config(args.qubits, q=args.q, entropy=EntropyConfig(log_base=args.log_base))
    records, out, _ = _search(
        args, "mera",
        lambda adam, seeds: run_mera_search(layout, cfg, adam, seeds, gradient=args.gradient,
                                            parallelism=args.parallelism),
        {"qubits": args.qubits, "q": args.q, "gradient": args.gradient},
    )
    return _report_best(records, out, f"gap over {len(records)} MERA shots")


def _cmd_bound_check(args) -> int:
    if not (np.isfinite(args.q) and args.q >= 2.0):
        print("bound-check is meaningful for finite q >= 2 only", file=sys.stderr)
        return 2
    if args.samples < 1:
        print("bound-check needs --samples >= 1", file=sys.stderr)
        return 2
    dims = args.dims
    if len(dims) != 4:
        print("bound-check needs four sites", file=sys.stderr)
        return 2
    part = default_partition(dims)
    ecfg = EntropyConfig(log_base=args.log_base)
    rng = np.random.Generator(np.random.PCG64(args.master_seed))
    worst = np.inf
    for _ in range(args.samples):
        z = rng.standard_normal(2 * dims.total)
        amps = z[0::2] + 1j * z[1::2]
        psi = QuditState(dims, amps / np.linalg.norm(amps))
        worst = min(worst, gap(psi, part, args.q, ecfg))
    print(f"min gap over {args.samples} random states at q={args.q:g}: {worst:+.6g}")
    if worst < -1e-9:
        print("BOUND VIOLATION at q >= 2 — this should be impossible", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "optimize": _cmd_optimize,
        "sweep": _cmd_sweep,
        "curve": _cmd_curve,
        "tmi": _cmd_tmi,
        "mera": _cmd_mera,
        "bound-check": _cmd_bound_check,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:  # StateFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
