"""The four workloads, each an entgap command line.

The search workloads run ``entgap optimize`` and ``entgap mera`` through
``cli.main``, one invocation of ``--seeds 8`` per round, and read the shot
log back.  ``reference-eval`` draws random states the way ``bound-check``
does and makes the calls that ``bound-check``, ``curve``, ``tmi`` and
``verify`` make, since those commands take no random state.  Layer functions
are reached through their modules, so the tracer's wrappers see every call.

Work comes in rounds of identical make-up.  Round ``k`` of a run with
``--seed s`` uses the master seed ``(s << 20) + 8k``; shot ``i`` of a round
has the seed ``master ^ i``, so the same seed gives the same inputs and
different seeds or rounds never share a shot or a state.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import entgap.cli as cli
import entgap.entropy as entropy
import entgap.io as eio
import entgap.mera as mera
import entgap.objective as objective
import entgap.optimize as optimize
from entgap.states import Dims, QuditState, default_partition

import checks

SEED_STRIDE = 1 << 20  # master seeds per --seed before two seeds' inputs could overlap
SHOTS = 8  # shots per search round: --seeds 8, as acceptance criterion 3 and ROADMAP item 1
FIXTURES = Path(cli.__file__).resolve().parent / "fixtures"
FIXTURE_NAMES = ("violation_3322.json", "violation_qubits6.json")


@dataclass
class Round:
    """What one round produced; ``shots_path`` is set by the search workloads."""

    ops: int
    steps: int = 0
    failed: int = 0
    records: list = field(default_factory=list)
    shots_path: Optional[Path] = None
    states: list = field(default_factory=list)  # (label, psi, part, gap_q2, curve, max_i3)
    reports: list = field(default_factory=list)  # (name, VerifyReport)
    facts: list = field(default_factory=list)  # checks.ShotFacts of the round's shots
    digest: bytes = b""  # hash of the fingerprint, kept after states and reports are dropped

    def fingerprint(self) -> bytes:
        """Bytes that must not change when the same round is traced."""
        if self.shots_path is not None:
            return self.shots_path.read_bytes()
        rows = [(s[0], s[3], tuple(s[4]), s[5]) for s in self.states]
        rows += [(name, r.values_nats, r.values_bits) for name, r in self.reports]
        return repr(rows).encode()


def run_cli(argv: list[str]) -> None:
    """``entgap <argv>`` in this process, its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"entgap {' '.join(argv)} exited with {code}")


class _Search:
    """``entgap <argv> --seeds 8 --master-seed <m> --out <dir>``, one call a round."""

    unit = "step"

    def __init__(self, seed: int, argv: list[str], steps: int):
        self.base = seed * SEED_STRIDE
        self.argv = argv + ["--lr", "0.01", "--parallelism", "1"]
        self.steps = steps

    def _invoke(self, master: int, seeds: int, steps: int, out: Path) -> Path:
        run_cli(self.argv + ["--seeds", str(seeds), "--steps", str(steps),
                             "--master-seed", str(master), "--out", str(out)])
        return out / "shots.jsonl"

    def first_evaluation(self, out: Path) -> None:
        """A one-shot, one-step run: the set-up every CLI search pays."""
        self._invoke(self.base, 1, 1, out)

    def run_round(self, k: int, out: Path) -> Round:
        path = self._invoke(self.base + SHOTS * k, SHOTS, self.steps, out)
        back = eio.read_shots_jsonl(path)
        return Round(
            ops=len(back),
            steps=sum(r.steps_run for r in back),
            failed=sum(r.failed for r in back),
            records=back,
            shots_path=path,
        )


class UnitarySearch(_Search):
    """``entgap optimize --dims 3,3,2,2 --q 1 [--penalty --penalty-weight 1.0]``."""

    def __init__(self, seed: int, *, steps: int, penalty_weight: Optional[float]):
        argv = ["optimize", "--dims", "3,3,2,2", "--q", "1"]
        if penalty_weight is not None:
            argv += ["--penalty", "--penalty-weight", repr(penalty_weight)]
        super().__init__(seed, argv, steps)
        self.penalty_weight = penalty_weight

    def check(self, rd: Round) -> list[str]:
        rd.facts = [checks.shot_facts(r, optimize.state_from_record(r), self.penalty_weight)
                    for r in rd.records if not r.failed]
        return checks.search_failures(rd.facts)

    def check_run(self, rounds: list[Round]) -> list[str]:
        return checks.reached_violation_failures([f for rd in rounds for f in rd.facts])


class MeraSearch(_Search):
    """``entgap mera --qubits 16 --q 1 --gradient analytic``."""

    FD_COORDS = 4  # analytic gradient checked against central differences here

    def __init__(self, seed: int, *, steps: int):
        super().__init__(seed, ["mera", "--qubits", "16", "--q", "1", "--gradient", "analytic"], steps)
        self.layout = mera.mera_layout(16)
        self.cfg = mera.mera_objective_config(16, q=1.0)

    def check(self, rd: Round) -> list[str]:
        rd.facts = [checks.shot_facts(r, mera.mera_state_from_record(r))
                    for r in rd.records if not r.failed]
        return checks.mera_failures(rd.facts)

    def check_run(self, rounds: list[Round]) -> list[str]:
        # the start point of the run's first shot, drawn as run_mera_shot draws it
        start = mera.initial_mera_params(self.layout, np.random.Generator(np.random.PCG64(self.base)))
        n = 2 * self.layout.num_entries
        coords = [round(i * (n - 1) / (self.FD_COORDS - 1)) for i in range(self.FD_COORDS)]
        return checks.mera_gradient_failures(self.layout, start, self.cfg, coords)


class ReferenceEval:
    """``bound-check``, ``curve`` and ``tmi`` on seeded random states, plus ``verify``.

    A round draws one state at each of DIMS the way ``bound-check`` does,
    then verifies both bundled fixtures: six states, six operations.
    """

    unit = "state"
    DIMS = ("2,2,2,2", "3,3,2,2", "4,4,2,2", "3,3,3,3")

    def __init__(self, seed: int):
        self.base = seed * SEED_STRIDE
        parser = cli.build_parser()
        self.bound_args = [parser.parse_args(["bound-check", "--dims", d]) for d in self.DIMS]
        self.grid = parser.parse_args(["curve", "--out", "-"]).q_grid  # the CLI's default grid
        self.expected = {n: json.loads((FIXTURES / n).read_text())["expected"] for n in FIXTURE_NAMES}

    def _states(self, k: int):
        rng = np.random.Generator(np.random.PCG64(self.base + k))
        for a in self.bound_args:
            dims: Dims = a.dims
            z = rng.standard_normal(2 * dims.total)
            amps = z[0::2] + 1j * z[1::2]
            yield a, QuditState(dims, amps / np.linalg.norm(amps))

    def first_evaluation(self, out: Path) -> None:
        """``bound-check`` on one sample: the set-up every reference command pays."""
        run_cli(["bound-check", "--dims", self.DIMS[0], "--samples", "1",
                 "--master-seed", str(self.base)])

    def run_round(self, k: int, out: Path) -> Round:
        rd = Round(ops=len(self.DIMS) + len(FIXTURE_NAMES))
        for a, psi in self._states(k):
            part = default_partition(a.dims)
            g2 = objective.gap(psi, part, a.q)
            curve = optimize.state_gap_curve(psi, self.grid, part)
            rd.states.append((f"round {k} dims {a.dims.sites}", psi, part, g2, curve,
                              entropy.max_tmi(psi, part)))
        for name in FIXTURE_NAMES:
            rd.reports.append((name, eio.verify_state_file(FIXTURES / name)))
        return rd

    def check(self, rd: Round) -> list[str]:
        out = []
        for label, psi, part, g2, curve, mt in rd.states:
            out += checks.state_failures(checks.state_facts(label, psi, part, g2, curve, mt))
        for name, rep in rd.reports:
            out += checks.fixture_failures(name, rep.values_bits, self.expected[name], rep.passed)
        return out

    def check_run(self, rounds: list[Round]) -> list[str]:
        return []


# name -> constructor(seed); BENCHMARK.json gives the reason for each, and
# perfbench/README.md why the shots are shorter than the acceptance tests'
WORKLOADS = {
    "search-3322": lambda seed: UnitarySearch(seed, steps=600, penalty_weight=None),
    "penalized-3322": lambda seed: UnitarySearch(seed, steps=300, penalty_weight=1.0),
    "mera-16": lambda seed: MeraSearch(seed, steps=3),
    "reference-eval": ReferenceEval,
}
