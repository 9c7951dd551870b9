"""Correctness checks on the outputs of each workload.

Every check rests on a property the method must have or on an independent
recomputation through the ``DensityMatrix`` reference path, never on
stored output:

- a search shot's recorded objective equals the reference gap, or with the
  penalty the reference penalized gap, of the state rebuilt from its
  parameters (the hinge can only add to the gap, and is off at a violator);
- the q >= 2 gap is non-negative (Akers et al.);
- I(A:B) <= S_R <= 2 min(S_A, S_B) at q = 1 (Dutta and Faulkner,
  arXiv:1905.00577);
- gap(q) is non-decreasing, since Renyi entropies do not increase with q;
- on a pure four-party state the four triple I3 agree and S(AA') = S(BB');
- the ``GapProfile`` curve at q = 1 equals ``gap`` through ``reflected_entropy``;
- the bundled fixtures reproduce their published values within the
  tolerances carried in each file.

Each ``*_failures`` function returns a list of messages, empty when the
check passes, so a corrupted input can be shown to fail it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from entgap.entropy import EntropyConfig, max_tmi, von_neumann
from entgap.mera import (
    MeraLayout,
    MeraParams,
    _flatten,
    _unflatten,
    mera_objective_value,
    mera_value_and_gradient,
)
from entgap.objective import ObjectiveConfig, gap, penalized_gap
from entgap.optimize import ShotRecord
from entgap.states import PartitionSpec, QuditState, partial_trace

VIOLATION = -1e-3  # a shot "violates" when its reference gap is below this
EXACT = 1e-9  # agreement between two computations of one quantity
BOUND_SLACK = 1e-9  # roundoff allowed on an inequality that holds exactly
HINGE_SLACK = 1e-12  # objective >= gap, up to roundoff of 12-digit shot logs


@dataclass(frozen=True)
class ShotFacts:
    """Reference values recomputed from one shot record."""

    seed: int
    objective: float  # the recorded best objective (penalized if the penalty is on)
    gap: float  # reference gap at the training q
    gap_q2: Optional[float] = None  # reference gap at q = 2, for violators
    max_i3: Optional[float] = None  # Max(I3), for violators and penalized shots
    penalized: Optional[float] = None  # reference penalized objective, for penalized shots

    @property
    def violates(self) -> bool:
        return self.gap < VIOLATION


def shot_facts(rec: ShotRecord, psi: QuditState, penalty_weight: Optional[float] = None) -> ShotFacts:
    """Recompute a shot's reference values from the state it records.

    ``penalty_weight`` is the search's hinge weight, ``None`` without the penalty.
    """
    part, q = rec.partition, rec.q_trained
    g = gap(psi, part, q)
    mt = pen = None
    if penalty_weight is not None:
        mt = max_tmi(psi, part)
        pen = penalized_gap(psi, part, q, weight=penalty_weight)
    if g >= VIOLATION:
        return ShotFacts(rec.seed, rec.best_gap, g, max_i3=mt, penalized=pen)
    return ShotFacts(rec.seed, rec.best_gap, g, gap(psi, part, 2.0),
                     max_tmi(psi, part) if mt is None else mt, pen)


def search_failures(facts: Sequence[ShotFacts]) -> list[str]:
    """Checks on the shots of a unitary search.

    Without the penalty the objective is the gap itself.  With it, the
    objective is the reference penalized gap, which adds a non-negative
    hinge to the gap; at a violator the hinge must be off: Max(I3) <= 0 and
    objective == gap.  Every violator obeys the q = 2 bound.
    """
    out = []
    for f in facts:
        penalized = f.penalized is not None
        if not penalized and abs(f.objective - f.gap) > EXACT:
            out.append(f"seed {f.seed}: best_gap {f.objective!r} != reference gap {f.gap!r}")
        if penalized and abs(f.objective - f.penalized) > EXACT:
            out.append(f"seed {f.seed}: objective {f.objective!r} != reference penalized gap "
                       f"{f.penalized!r}")
        if penalized and f.objective < f.gap - HINGE_SLACK:
            out.append(f"seed {f.seed}: objective {f.objective!r} below reference gap {f.gap!r}")
        if not f.violates:
            continue
        if f.gap_q2 < -BOUND_SLACK:
            out.append(f"seed {f.seed}: violator has gap(q=2) = {f.gap_q2!r} < 0")
        if penalized and f.max_i3 > 0.0:
            out.append(f"seed {f.seed}: violator has Max(I3) = {f.max_i3!r} > 0")
        if penalized and abs(f.objective - f.gap) > EXACT:
            out.append(f"seed {f.seed}: violator objective {f.objective!r} != gap {f.gap!r}")
    return out


def reached_violation_failures(facts: Sequence[ShotFacts]) -> list[str]:
    """The search, penalized or not, must reach gap < -1e-3 in at least one shot of a run."""
    if any(f.violates for f in facts):
        return []
    return [f"no shot reached gap < {VIOLATION}: min {min((f.gap for f in facts), default=None)!r}"]


def mera_failures(facts: Sequence[ShotFacts]) -> list[str]:
    """A MERA shot's recorded objective is the reference gap of its state."""
    return [
        f"seed {f.seed}: MERA best_gap {f.objective!r} != reference gap {f.gap!r}"
        for f in facts
        if abs(f.objective - f.gap) > EXACT
    ]


def mera_gradient_failures(
    layout: MeraLayout, params: MeraParams, cfg: ObjectiveConfig, coords: Sequence[int], h: float = 1e-5
) -> list[str]:
    """Analytic MERA gradient against central differences on a few coordinates."""
    _, grad = mera_value_and_gradient(layout, params, cfg, gradient="analytic")
    x = _flatten(params)
    out = []
    for i in coords:
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (
            mera_objective_value(layout, _unflatten(xp, layout.num_gates), cfg)
            - mera_objective_value(layout, _unflatten(xm, layout.num_gates), cfg)
        ) / (2.0 * h)
        if abs(fd - grad[i]) > 1e-6 + 1e-4 * abs(fd):
            out.append(f"coordinate {i}: analytic {float(grad[i])!r} vs central difference {fd!r}")
    return out


@dataclass(frozen=True)
class StateFacts:
    """What the reference path reports for one random state, plus oracles."""

    label: str
    gap_q2: float
    gap_q1: float  # objective.gap at q = 1, through reflected_entropy rather than GapProfile
    qs: tuple[float, ...]
    gaps: tuple[float, ...]  # the gap curve over qs
    max_i3: float
    i3s: tuple[float, ...]  # I3 of the four triples
    s_aap: float
    s_bbp: float
    s_a: float
    s_b: float
    i_ab: float


def state_facts(
    label: str,
    psi: QuditState,
    part: PartitionSpec,
    gap_q2: float,
    curve: Sequence[tuple[float, float]],
    max_i3: float,
) -> StateFacts:
    """Bundle the program's outputs for a state with oracles from its 14 marginals.

    The triple I3 and I(A:B) are assembled here from the von Neumann entropy
    of every 1-, 2- and 3-party marginal, not through ``tmi``/``mutual_info``.
    The gap at q = 1 is recomputed through ``reflected_entropy``, the path
    that ``bound-check`` uses, to compare with the ``GapProfile`` curve.
    """
    cfg = EntropyConfig()
    parties = (part.a_sites, part.b_sites, part.ap_sites, part.bp_sites)
    s = {
        comb: von_neumann(partial_trace(psi, sorted(i for p in comb for i in parties[p])), cfg)
        for r in (1, 2, 3)
        for comb in combinations(range(4), r)
    }
    i3s = tuple(
        sum(s[(x,)] for x in tri) - sum(s[pair] for pair in combinations(tri, 2)) + s[tri]
        for tri in combinations(range(4), 3)
    )
    return StateFacts(
        label=label,
        gap_q2=gap_q2,
        gap_q1=gap(psi, part, 1.0),
        qs=tuple(q for q, _ in curve),
        gaps=tuple(g for _, g in curve),
        max_i3=max_i3,
        i3s=i3s,
        s_aap=s[(0, 2)],
        s_bbp=s[(1, 3)],
        s_a=s[(0,)],
        s_b=s[(1,)],
        i_ab=s[(0,)] + s[(1,)] - s[(0, 1)],
    )


def state_failures(f: StateFacts) -> list[str]:
    out = []
    if f.gap_q2 < -BOUND_SLACK:
        out.append(f"{f.label}: gap(q=2) = {f.gap_q2!r} < 0")
    if 1.0 not in f.qs:
        out.append(f"{f.label}: q-grid lacks q = 1")
    else:
        s_r = 2.0 * (f.s_aap - f.gaps[f.qs.index(1.0)])
        if not f.i_ab - BOUND_SLACK <= s_r <= 2.0 * min(f.s_a, f.s_b) + BOUND_SLACK:
            out.append(
                f"{f.label}: S_R = {s_r!r} outside [I(A:B), 2 min(S_A, S_B)] = "
                f"[{f.i_ab!r}, {2.0 * min(f.s_a, f.s_b)!r}]"
            )
        if abs(f.gaps[f.qs.index(1.0)] - f.gap_q1) > EXACT:
            out.append(f"{f.label}: curve gap(q=1) = {f.gaps[f.qs.index(1.0)]!r} != "
                       f"gap(q=1) = {f.gap_q1!r}")
    steps = np.diff(np.asarray(f.gaps))
    if steps.size and float(steps.min()) < -BOUND_SLACK:
        k = int(np.argmin(steps))
        out.append(f"{f.label}: gap decreases from q={f.qs[k]} to q={f.qs[k + 1]} by {-steps[k]!r}")
    if max(f.i3s) - min(f.i3s) > EXACT:
        out.append(f"{f.label}: the four triple I3 disagree: {f.i3s}")
    if abs(f.max_i3 - max(f.i3s)) > EXACT:
        out.append(f"{f.label}: max_tmi {f.max_i3!r} != max of the triples {max(f.i3s)!r}")
    if abs(f.s_aap - f.s_bbp) > EXACT:
        out.append(f"{f.label}: S(AA') = {f.s_aap!r} != S(BB') = {f.s_bbp!r}")
    return out


FIXTURE_KEYS = (("s_aap", "tol_s_aap"), ("s_r", "tol_s_r"), ("gap", "tol_gap"))


def fixture_failures(label: str, values_bits: dict, expected: dict, passed: bool) -> list[str]:
    """Published (S(AA'), S_R, gap) in bits, within the file's own tolerances."""
    out = [] if passed else [f"{label}: verify_state_file reports FAIL"]
    for key, tol_key in FIXTURE_KEYS:
        got, want, tol = values_bits[key], float(expected[key]), float(expected[tol_key])
        if not abs(got - want) <= tol:
            out.append(f"{label}: {key} = {got!r} bits, published {want} +- {tol}")
    return out
