"""File formats: state JSON, shot JSONL, CSV reports, and run manifests.

All amplitude data uses the package-wide big-endian mixed-radix index
convention (site 0 most significant).  Numbers in emitted text files carry
12 significant digits and rows are deterministically ordered, so repeated
runs with the same configuration are byte-identical; manifests carry a
timestamp and are the one exception.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import __version__
from .entropy import EntropyConfig, entropy_from_spectrum, pure_tmi_terms, von_neumann
from .objective import GapProfile, ObjectiveConfig, _cached_state_objective
from .optimize import ShotRecord, SweepRecord, blas_threads
from .states import Dims, PartitionSpec, QuditState, partial_trace

PARTY_KEYS = ("A", "B", "Ap", "Bp")


class StateFileError(ValueError):
    """Raised when a state file fails to parse or validate."""


class ShotLogError(ValueError):
    """Raised when a line of a shot log fails to parse; names the file and line."""


def fmt12(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    """Recursively round floats to 12 significant digits for JSON output."""
    if isinstance(obj, float):
        return float(fmt12(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _partition_dict(p: PartitionSpec) -> dict:
    return {
        "A": list(p.a_sites),
        "B": list(p.b_sites),
        "Ap": list(p.ap_sites),
        "Bp": list(p.bp_sites),
    }


# ---------------------------------------------------------------------------
# state files


NORM_GUARD = 0.05
EXPECTED_NAMES = ("s_aap", "s_r", "gap")  # each may carry a tolerance "tol_<name>"


@dataclass(frozen=True)
class ParsedStateFile:
    """Raw (not yet renormalized) contents of a state file."""

    dims: Dims
    partition: PartitionSpec
    amplitudes: np.ndarray
    expected: Optional[dict]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def state(self) -> QuditState:
        """The renormalized state; raises StateFileError if the norm is off 1 by more than NORM_GUARD."""
        norm = self.norm
        if abs(norm - 1.0) > NORM_GUARD:
            raise StateFileError(f"state norm {norm:.6f} deviates from 1 by more than {NORM_GUARD}")
        return QuditState(self.dims, self.amplitudes / norm)


def parse_state_file(path: Union[str, Path]) -> ParsedStateFile:
    """Parse and validate the JSON state format; raises StateFileError."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise StateFileError(f"state file must hold a JSON object, got {type(data).__name__}")
    for key, kind in (("parties", dict), ("amplitudes", list), ("expected", dict)):
        if key in data and not isinstance(data[key], kind):
            raise StateFileError(f"{key} field must be a JSON {'object' if kind is dict else 'array'}")
    for key in ("dims", "parties", "amplitudes"):
        if key not in data:
            raise StateFileError(f"state file is missing required field {key!r}")
    try:
        dims = Dims(tuple(int(d) for d in data["dims"]))
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"bad dims field: {exc}") from exc
    parties = data["parties"]
    missing = [k for k in PARTY_KEYS if k not in parties]
    if missing:
        raise StateFileError(f"parties field is missing {missing}")
    try:
        partition = PartitionSpec(*(tuple(parties[k]) for k in PARTY_KEYS))
        partition.validate_for(dims)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"bad parties field: {exc}") from exc
    raw = data["amplitudes"]
    if len(raw) != dims.total:
        raise StateFileError(
            f"amplitude count {len(raw)} does not match dims {dims.sites} (need {dims.total})"
        )
    try:
        amps = np.array([complex(float(re), float(im)) for re, im in raw], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"bad amplitude entry: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(amps))
    if bad.size:
        raise StateFileError(f"amplitude {bad[0]} is not finite: {raw[bad[0]]}")
    for key, value in (data.get("expected") or {}).items():
        if key.removeprefix("tol_") not in EXPECTED_NAMES:
            continue  # free-form fields, such as log_base
        tolerance = key.startswith("tol_")
        try:  # isfinite takes ints and floats only, and overflows on huge ints
            ok = not isinstance(value, bool) and math.isfinite(value) and (value >= 0 or not tolerance)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise StateFileError(f"expected field {key!r} must be a finite number"
                                 f"{' >= 0' if tolerance else ''}, got {value!r}")
    return ParsedStateFile(
        dims=dims,
        partition=partition,
        amplitudes=amps,
        expected=data.get("expected"),
    )


def write_state_file(
    path: Union[str, Path],
    state: QuditState,
    partition: PartitionSpec,
    expected: Optional[dict] = None,
    description: str = "",
) -> None:
    partition.validate_for(state.dims)
    doc = {
        "description": description,
        "index_convention": "big-endian mixed radix, site 0 most significant",
        "dims": list(state.dims.sites),
        "parties": _partition_dict(partition),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    if expected is not None:
        doc["expected"] = expected
    Path(path).write_text(json.dumps(_round12(doc), indent=1) + "\n")


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of verifying a state file against its optional expected values."""

    path: str
    norm_before: float
    values_nats: dict
    values_bits: dict
    identity_error: float
    expected: Optional[dict]
    matched_base: Optional[str]
    checks: list  # (name, computed, expected, tolerance, passed)
    passed: bool

    def render(self) -> str:
        lines = [f"state file: {self.path}"]
        lines.append(f"norm before renormalization: {self.norm_before:.6f}")
        lines.append(
            "computed (nats): "
            + "  ".join(f"{k}={fmt12(v)}" for k, v in self.values_nats.items())
        )
        lines.append(
            "computed (bits): "
            + "  ".join(f"{k}={fmt12(v)}" for k, v in self.values_bits.items())
        )
        lines.append(
            f"search kernel vs reference |gap_kernel - gap| = {self.identity_error:.3e}  "
            + ("PASS" if self.identity_error <= 1e-12 else "FAIL")
        )
        if self.expected is None:
            lines.append("no expected values supplied; nothing further to check")
        else:
            if self.matched_base is not None:
                lines.append(f"expected values matched in log base {self.matched_base}")
            else:
                lines.append("expected values matched in no log base")
            for name, comp, want, tol, ok in self.checks:
                lines.append(
                    f"  {name:8s} computed={fmt12(comp):>16s} expected={want:<10g} "
                    f"tol={tol:g}  {'PASS' if ok else 'FAIL'}"
                )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _state_values(psi: QuditState, partition: PartitionSpec) -> list[dict]:
    """Reference-path values and kernel gap error at q = 1, in nats, then in bits.

    Each spectrum is computed once, in nats.  A bits value divides each entropy by
    ln 2 before combining them, so it equals an evaluation in bits bit for bit.
    """
    nats = EntropyConfig(log_base="e")
    profile = GapProfile(psi, partition, nats)
    s_r = entropy_from_spectrum(profile.spectrum, 1.0, nats)
    kernel = _cached_state_objective(ObjectiveConfig(psi.dims, partition, entropy=nats))
    extras = {k: v[0] for k, v in kernel(psi.amplitudes[None], want_grad=False)[2].items()}
    i3_terms = [(sign, von_neumann(partial_trace(psi, keep), nats))
                for keep, sign in pure_tmi_terms(psi.dims, partition)]
    out = []
    for div in (nats.log_divisor, EntropyConfig(log_base="2").log_divisor):
        g = profile.s_aap / div - 0.5 * (s_r / div)
        kernel_gap = extras["s_aap"] / div - 0.5 * (extras["s_reflected"] / div)
        out.append({"s_aap": profile.s_aap / div, "s_r": s_r / div, "gap": g,
                    "max_i3": sum(sign * (s / div) for sign, s in i3_terms),
                    "identity_error": abs(g - kernel_gap)})
    return out


def verify_state_file(path: Union[str, Path]) -> VerifyReport:
    """Renormalize a parsed state, recompute its invariants, and check them.

    Values are computed in nats first; when expected values are present but
    fail in nats, they are re-checked in bits and the matching base is
    reported (published amplitudes are rounded, hence the loose tolerances
    carried in the file).
    """
    parsed = parse_state_file(path)
    psi = parsed.state()

    nats, bits = _state_values(psi, parsed.partition)
    identity_error = max(nats["identity_error"], bits["identity_error"])

    expected = parsed.expected
    matched_base = None
    checks: list = []
    passed = identity_error <= 1e-12
    if expected is not None:
        def try_base(valdict):
            out = []
            for name in EXPECTED_NAMES:
                if name not in expected:
                    continue
                want = float(expected[name])
                tol = float(expected.get("tol_" + name, 0.02))
                comp = valdict[name]
                out.append((name, comp, want, tol, abs(comp - want) <= tol))
            return out

        for base, vals in (("e", nats), ("2", bits)):
            checks = try_base(vals)
            if checks and all(ok for *_, ok in checks):
                matched_base = base
                break
        passed = passed and matched_base is not None
    return VerifyReport(
        path=str(path),
        norm_before=parsed.norm,
        values_nats={k: nats[k] for k in ("s_aap", "s_r", "gap", "max_i3")},
        values_bits={k: bits[k] for k in ("s_aap", "s_r", "gap", "max_i3")},
        identity_error=identity_error,
        expected=expected,
        matched_base=matched_base,
        checks=checks,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# shot logs


def shot_to_dict(rec: ShotRecord) -> dict:
    # failed shots can carry best_gap = inf, which strict JSON cannot express
    best = rec.best_gap if np.isfinite(rec.best_gap) else None
    return {
        "family": rec.family,
        "seed": rec.seed,
        "dims": list(rec.dims),
        "parties": _partition_dict(rec.partition),
        "q_trained": rec.q_trained,
        "best_gap": best,
        "steps_run": rec.steps_run,
        "failed": rec.failed,
        "note": rec.note,
        "best_params": [[float(z.real), float(z.imag)] for z in rec.best_params],
        "objective_trace": [float(x) for x in rec.objective_trace],
    }


def shot_from_dict(doc: dict) -> ShotRecord:
    parties = doc["parties"]
    return ShotRecord(
        seed=int(doc["seed"]),
        dims=tuple(int(d) for d in doc["dims"]),
        partition=PartitionSpec(*(tuple(parties[k]) for k in PARTY_KEYS)),
        q_trained=float(doc["q_trained"]),
        best_gap=float("inf") if doc["best_gap"] is None else float(doc["best_gap"]),
        best_params=np.array([complex(re, im) for re, im in doc["best_params"]]),
        steps_run=int(doc["steps_run"]),
        objective_trace=np.array([float(x) for x in doc["objective_trace"]]),
        failed=bool(doc["failed"]),
        note=str(doc.get("note", "")),
        family=str(doc.get("family", "unitary")),
    )


def write_shots_jsonl(records: Sequence[ShotRecord], path: Union[str, Path]) -> None:
    """One JSON object per shot, seed-ascending."""
    records = sorted(records, key=lambda r: r.seed)
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(_round12(shot_to_dict(rec)), separators=(",", ":")))
            f.write("\n")


def read_shots_jsonl(path: Union[str, Path]) -> list[ShotRecord]:
    """The shot records of a log; raises ShotLogError on a line that does not parse."""
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(shot_from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ShotLogError(f"{path}:{lineno}: bad shot record: {exc!r}") from exc
    return out


# ---------------------------------------------------------------------------
# CSV reports


def _write_csv(path: Union[str, Path], header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_sweep_csv(records: Sequence[SweepRecord], path: Union[str, Path]) -> None:
    records = sorted(records, key=lambda r: r.q)
    _write_csv(path, ["q", "min_gap", "state_id"],
               ([fmt12(r.q), fmt12(r.min_gap), r.argmin_state_id] for r in records))


def write_curve_csv(points: Sequence[tuple[float, float]], path: Union[str, Path]) -> None:
    points = sorted(points, key=lambda p: p[0])
    _write_csv(path, ["q", "gap"], ([fmt12(q), fmt12(g)] for q, g in points))


def write_tmi_csv(rows: Sequence[tuple[int, float, float]], path: Union[str, Path]) -> None:
    """Rows of (seed, gap, max_i3), seed-ascending."""
    rows = sorted(rows, key=lambda r: r[0])
    _write_csv(path, ["seed", "gap", "max_i3"],
               ([int(seed), fmt12(g), fmt12(mi3)] for seed, g, mi3 in rows))


# ---------------------------------------------------------------------------
# the report step: an artifact and its manifest


def emit_reports(records, write: Callable[[Sequence, Path], None], out_path: Union[str, Path],
                 command: str = "", config: Optional[dict] = None,
                 workers: Optional[int] = None) -> Path:
    """Write one report artifact with ``write``, then its replay manifest; returns the artifact path.

    ``write`` is ``write_shots_jsonl``, ``write_sweep_csv``, ``write_curve_csv``
    or ``write_tmi_csv``.  The manifest, ``<name>.manifest.json``, records
    ``blas_threads``, the OpenBLAS thread budget of the writing process.  A
    search spends it on worker processes, each running every BLAS call on one
    thread, so its results do not depend on it.  ``workers``, recorded for
    searches, is the worker processes a search ran on
    (``optimize.worker_count``).
    """
    if not len(records):
        raise ValueError("records must be non-empty")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write(records, out_path)
    manifest = {
        "command": command,
        "config": _round12(config or {}),
        "version": __version__,
        "blas_threads": blas_threads(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if workers is not None:
        manifest["workers"] = workers
    out_path.with_name(out_path.name + ".manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return out_path
