import math
from itertools import combinations

import numpy as np
import pytest

from entgap.entropy import (
    DEFAULT_ENTROPY,
    EntropyConfig,
    entropy_from_spectrum,
    hermitian_spectrum,
    max_tmi,
    pure_tmi_terms,
    von_neumann,
)
from entgap.objective import (
    ObjectiveConfig,
    UTParams,
    objective_value_and_gradient,
    state_from_params,
)
from entgap.states import (
    DensityMatrix,
    Dims,
    PartitionSpec,
    QuditState,
    default_partition,
    partial_trace,
)

from conftest import (
    bell_pair,
    ghz,
    load_fixture_state,
    random_state,
    reference_tmi,
)

LN2 = math.log(2.0)


def dm(diag_or_mat, dims):
    mat = np.diag(diag_or_mat) if np.ndim(diag_or_mat) == 1 else np.asarray(diag_or_mat)
    return DensityMatrix(Dims(dims), mat)


def test_spectrum_diagonal():
    spec = hermitian_spectrum(dm([0.5, 0.5], (2,)))
    assert np.allclose(spec, [0.5, 0.5])


def test_spectrum_rank_one():
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    spec = hermitian_spectrum(dm(np.outer(v, v), (3,)))
    assert np.allclose(spec, [1.0, 0.0, 0.0], atol=1e-12)


def test_spectrum_recovers_constructed_eigenvalues(rng):
    # oracle: build rho = V diag(p) V^dag from a known p and a random unitary
    p = np.array([0.4, 0.3, 0.2, 0.1])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v, _ = np.linalg.qr(g)
    rho = dm(v @ np.diag(p) @ v.conj().T, (4,))
    spec = hermitian_spectrum(rho)
    assert np.max(np.abs(spec - p)) < 1e-10
    assert abs(spec.sum() - 1.0) < 1e-9


def test_spectrum_rejects_bad_inputs():
    # DensityMatrix holds Hermiticity and unit trace; the spectrum checks positivity
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_spectrum(dm([[0.5, 0.3], [0.0, 0.5]], (2,)))
    with pytest.raises(ValueError, match="positive semidefinite"):
        hermitian_spectrum(dm([1.2, -0.2], (2,)))
    with pytest.raises(ValueError, match="trace"):
        hermitian_spectrum(dm([0.4, 0.4], (2,)))


def test_entropy_config_validation():
    with pytest.raises(ValueError):
        EntropyConfig(log_base="10")


def test_von_neumann_known_values():
    assert abs(von_neumann(dm([0.5, 0.5], (2,))) - LN2) < 1e-12
    assert von_neumann(dm([1.0, 0.0], (2,))) == 0.0
    # direct evaluation oracle for {0.75, 0.25}
    want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert abs(want - 0.5623351446188083) < 1e-15
    assert abs(von_neumann(dm([0.75, 0.25], (2,))) - want) < 1e-12


def test_von_neumann_bits():
    cfg = EntropyConfig(log_base="2")
    assert abs(von_neumann(dm([0.5, 0.5], (2,)), cfg) - 1.0) < 1e-12


def test_von_neumann_maximally_mixed():
    for d in (2, 3, 6):
        rho = dm(np.full(d, 1.0 / d), (d,))
        assert abs(von_neumann(rho) - math.log(d)) < 1e-12


def renyi(rho: DensityMatrix, q: float) -> float:
    return entropy_from_spectrum(hermitian_spectrum(rho), q, DEFAULT_ENTROPY)


def test_renyi_flat_spectrum_any_q():
    rho = dm(np.full(4, 0.25), (2, 2))
    for q in (0.3, 0.5, 1.0, 2.0, 3.0):
        assert abs(renyi(rho, q) - math.log(4.0)) < 1e-12


def test_renyi_q2_known_value():
    # -ln(0.75^2 + 0.25^2) = ln(8/5)
    want = math.log(8.0 / 5.0)
    assert abs(renyi(dm([0.75, 0.25], (2,)), 2.0) - want) < 1e-12
    assert abs(want - 0.47000362924573563) < 1e-15


def test_renyi_limit_matches_von_neumann(rng):
    for _ in range(5):
        p = rng.dirichlet(np.ones(5))
        rho = dm(p, (5,))
        vn = von_neumann(rho)
        assert abs(renyi(rho, 1.0 + 1e-4) - vn) <= 1e-3
        assert abs(renyi(rho, 1.0 - 1e-4) - vn) <= 1e-3


def test_renyi_rejects_nonpositive_q():
    rho = dm([0.5, 0.5], (2,))
    with pytest.raises(ValueError):
        renyi(rho, 0.0)
    with pytest.raises(ValueError):
        renyi(rho, -1.0)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_renyi_rejects_nonfinite_q(q):
    with pytest.raises(ValueError, match="finite"):
        renyi(dm([0.5, 0.5], (2,)), q)


def test_renyi_nonincreasing_in_q(rng):
    qs = np.arange(0.1, 3.01, 0.1)
    for _ in range(100):
        p = rng.dirichlet(np.ones(rng.integers(2, 7)))
        vals = [entropy_from_spectrum(np.sort(p)[::-1], q, EntropyConfig()) for q in qs]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-10)


def test_renyi_range(rng):
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        rho = dm(p, (2, 2))
        for q in (0.5, 1.0, 2.0):
            s = renyi(rho, q)
            assert -1e-12 <= s <= math.log(4.0) + 1e-12


def ame_4_3() -> QuditState:
    """The 4-qutrit perfect tensor sum_ij |i, j, i+j, i+2j> / 3 (mod 3).

    Every single site is maximally mixed and every pair maximally
    entangled with its complement, so I3 = 3 ln 3 - 3 (2 ln 3) + ln 3.
    """
    amps = np.zeros(81, dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            amps[27 * i + 9 * j + 3 * ((i + j) % 3) + (i + 2 * j) % 3] = 1.0 / 3.0
    return QuditState(Dims((3, 3, 3, 3)), amps)


def test_max_tmi_known_states():
    assert abs(max_tmi(ghz(4), default_partition(Dims((2, 2, 2, 2)))) - LN2) < 1e-12
    # the perfect tensor is the negative-sign anchor: MMI holds strictly
    ame = ame_4_3()
    assert abs(max_tmi(ame, default_partition(ame.dims)) + 2.0 * math.log(3.0)) < 1e-9
    two_bells = QuditState(Dims((2, 2, 2, 2)), np.kron(bell_pair(), bell_pair()))
    assert abs(max_tmi(two_bells, default_partition(Dims((2, 2, 2, 2))))) < 1e-12


@pytest.mark.parametrize(
    "name,i3_nats",
    [("violation_3322.json", -0.019049), ("violation_qubits6.json", -0.058336)],
)
def test_max_tmi_matches_reference_oracle_on_counterexamples(name, i3_nats):
    # Independent of entgap's partial trace and spectrum code: both
    # published counterexamples satisfy MMI (I3 < 0) in all four triples.
    psi, part, _ = load_fixture_state(name)
    parties = (part.a_sites, part.b_sites, part.ap_sites, part.bp_sites)
    ref = [reference_tmi(psi, *t) for t in combinations(parties, 3)]
    assert max(ref) - min(ref) < 1e-9
    assert abs(max_tmi(psi, part) - max(ref)) < 1e-9
    assert abs(max(ref) - i3_nats) < 1e-6
    assert max(ref) < 0.0


def test_reference_oracle_sign_anchors():
    # the oracle itself reproduces both signs: GHZ +ln 2, AME(4,3) -2 ln 3
    sites = [(0,), (1,), (2,), (3,)]
    assert abs(reference_tmi(ghz(4), *sites[:3]) - LN2) < 1e-12
    ame = ame_4_3()
    ref = [reference_tmi(ame, *t) for t in combinations(sites, 3)]
    assert max(abs(v + 2.0 * math.log(3.0)) for v in ref) < 1e-9
    assert abs(max_tmi(ame, default_partition(ame.dims)) - max(ref)) < 1e-9


def test_qubits6_counterexample_satisfies_mmi_on_every_qubit_triple():
    psi, _, _ = load_fixture_state("violation_qubits6.json")
    vals = [reference_tmi(psi, (i,), (j,), (k,)) for i, j, k in combinations(range(6), 3)]
    assert len(vals) == 20
    assert max(vals) < 0.0


QUBITS6_SPLIT = PartitionSpec((0, 1), (2,), (3, 4), (5,))


@pytest.mark.parametrize(
    "sites,part",
    [((2, 2, 2, 2), None), ((3, 3, 2, 2), None), ((4, 4, 2, 2), None), ((3, 3, 3, 3), None),
     ((2,) * 6, QUBITS6_SPLIT)],
)
def test_pure_state_max_tmi_matches_four_triple_oracle(rng, sites, part):
    # the hot-path and reference seven-entropy I3 against the max over the
    # four triples of the loop-trace oracle
    dims = Dims(sites)
    part = part or default_partition(dims)
    cfg = ObjectiveConfig(dims, part, penalty_enabled=True)
    n = UTParams.num_entries(dims.total)
    raw = rng.standard_normal(2 * n)
    p = UTParams(dims.total, (raw[0::2] + 1j * raw[1::2]) / np.sqrt(2.0 * dims.total))
    psi = state_from_params(p, cfg)
    parties = (part.a_sites, part.b_sites, part.ap_sites, part.bp_sites)
    ref = max(reference_tmi(psi, *t) for t in combinations(parties, 3))
    _, _, extras = objective_value_and_gradient(p, cfg, want_grad=False)
    assert abs(extras["max_tmi"] - ref) < 1e-9
    assert abs(max_tmi(psi, part) - ref) < 1e-9


def test_pure_tmi_terms_take_the_smaller_side():
    # S_AB is taken on A'B' at 3,3,2,2; ties keep the region itself
    terms = pure_tmi_terms(Dims((3, 3, 2, 2)), default_partition(Dims((3, 3, 2, 2))))
    assert terms == (((0,), 1.0), ((1,), 1.0), ((2,), 1.0), ((3,), 1.0),
                     ((2, 3), -1.0), ((0, 3), -1.0), ((0, 2), -1.0))
    # S_AA' (16x16) is taken on BB' (4x4) for two-qubit A and A'
    terms = pure_tmi_terms(Dims((2,) * 6), QUBITS6_SPLIT)
    assert terms[-1] == ((2, 5), -1.0)
    assert terms[4] == ((0, 1, 2), -1.0)


def test_max_tmi_makes_seven_partial_traces(monkeypatch, rng):
    import entgap.entropy
    import entgap.states

    keeps = []
    real = entgap.states.partial_trace

    def counting(state, keep):
        keeps.append(tuple(keep))
        return real(state, keep)

    monkeypatch.setattr(entgap.states, "partial_trace", counting)
    monkeypatch.setattr(entgap.entropy, "partial_trace", counting)
    psi = random_state(Dims((3, 3, 2, 2)), rng)
    max_tmi(psi, default_partition(psi.dims))
    assert len(keeps) == 7


def test_max_tmi_bundled_violation_state():
    # The bundled bound-violating state has strictly NEGATIVE Max(I3)
    # (-0.01905 nats); this is a regression pin of the recomputed value.
    psi, part, _ = load_fixture_state("violation_3322.json")
    val = max_tmi(psi, part)
    assert abs(val - (-0.019049021589895743)) < 1e-9


def test_pure_state_complement_entropies(rng):
    psi = random_state(Dims((3, 3, 2, 2)), rng)
    sites = (0, 1, 2, 3)
    for r in (1, 2):
        for keep in combinations(sites, r):
            comp = tuple(i for i in sites if i not in keep)
            s1 = von_neumann(partial_trace(psi, keep))
            s2 = von_neumann(partial_trace(psi, comp))
            assert abs(s1 - s2) < 1e-10
