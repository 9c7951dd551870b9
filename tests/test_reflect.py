import math

import numpy as np
import pytest

from entgap.entropy import EntropyConfig, von_neumann
from entgap.objective import ObjectiveConfig, _StateObjective, gap, two_party_density
from entgap.reflect import canonical_purification, reflected_entropy, sqrt_density
from entgap.states import DensityMatrix, Dims, QuditState, partial_trace

from conftest import bell_pair, load_fixture_state, random_state

LN2 = math.log(2.0)


def random_mixed(d_a: int, d_b: int, rng) -> DensityMatrix:
    d = d_a * d_b
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(Dims((d_a, d_b)), rho)


def test_sqrt_diagonal():
    rho = DensityMatrix(Dims((2,)), np.diag([0.25, 0.75]))
    x = sqrt_density(rho)
    assert np.allclose(x, np.diag([0.5, math.sqrt(0.75)]), atol=1e-14)


def test_sqrt_projector_idempotent(rng):
    psi = random_state(Dims((2, 2)), rng)
    rho = DensityMatrix(Dims((2, 2)), np.outer(psi.amplitudes, psi.amplitudes.conj()))
    x = sqrt_density(rho)
    assert np.max(np.abs(x - rho.matrix)) < 1e-10


def test_sqrt_reconstruction(rng):
    for _ in range(20):
        rho = random_mixed(3, 3, rng)
        x = sqrt_density(rho)
        assert np.max(np.abs(x @ x - rho.matrix)) < 1e-10
        assert np.max(np.abs(x - x.conj().T)) < 1e-12


def test_sqrt_rejects_negative():
    mat = np.diag([1.2, -0.2])
    with pytest.raises(ValueError):
        sqrt_density(DensityMatrix(Dims((2,)), mat + 0j))


def test_purification_of_pure_state_factorizes(rng):
    psi = random_state(Dims((2, 3)), rng)
    rho = DensityMatrix(Dims((2, 3)), np.outer(psi.amplitudes, psi.amplitudes.conj()))
    pur = canonical_purification(rho)
    want = np.kron(psi.amplitudes, psi.amplitudes.conj())
    # global sign/phase fixed by construction (sqrt of a projector is itself)
    assert np.max(np.abs(pur.amplitudes - want)) < 1e-10
    assert pur.dims.sites == (2, 3, 2, 3)


def test_purification_of_maximally_mixed():
    rho = DensityMatrix(Dims((2, 2)), np.eye(4) / 4.0)
    pur = canonical_purification(rho)
    t = pur.amplitudes.reshape(2, 2, 2, 2)
    for a in range(2):
        for b in range(2):
            for ap in range(2):
                for bp in range(2):
                    want = 0.5 if (a == ap and b == bp) else 0.0
                    assert abs(t[a, b, ap, bp] - want) < 1e-12


def test_purification_round_trip(rng):
    for _ in range(25):
        d_a = int(rng.integers(2, 6))
        d_b = int(rng.integers(2, 6))
        rho = random_mixed(d_a, d_b, rng)
        pur = canonical_purification(rho)
        back = partial_trace(pur, (0, 1)).matrix
        assert np.max(np.abs(back - rho.matrix)) < 1e-10


def test_purification_rejects_non_bipartite(rng):
    psi = random_state(Dims((2, 2, 2)), rng)
    rho = DensityMatrix(Dims((2, 2, 2)), np.outer(psi.amplitudes, psi.amplitudes.conj()))
    with pytest.raises(ValueError):
        canonical_purification(rho)


def test_reflected_entropy_pure_is_twice_marginal(rng):
    bell = DensityMatrix(Dims((2, 2)), np.outer(bell_pair(), bell_pair().conj()))
    assert abs(reflected_entropy(bell, 1.0) - 2.0 * LN2) < 1e-10
    for _ in range(10):
        psi = random_state(Dims((3, 4)), rng)
        rho = DensityMatrix(Dims((3, 4)), np.outer(psi.amplitudes, psi.amplitudes.conj()))
        s_a = von_neumann(partial_trace(psi, (0,)))
        assert abs(reflected_entropy(rho, 1.0) - 2.0 * s_a) < 1e-9


def test_reflected_entropy_classical_two_term():
    rho = DensityMatrix(Dims((2, 2)), np.diag([0.5, 0.0, 0.0, 0.5]))
    assert abs(reflected_entropy(rho, 1.0) - LN2) < 1e-12


def test_reflected_entropy_product_state(rng):
    pa = rng.dirichlet(np.ones(3))
    pb = rng.dirichlet(np.ones(2))
    rho = DensityMatrix(Dims((3, 2)), np.diag(np.kron(pa, pb)))
    assert abs(reflected_entropy(rho, 1.0)) < 1e-9
    assert abs(reflected_entropy(rho, 2.0)) < 1e-9


def test_reflected_entropy_symmetric_under_swap(rng):
    for _ in range(10):
        d_a, d_b = 3, 4
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rho_ab = DensityMatrix(Dims((d_a, d_b)), rho)
        # swap A and B by permuting the tensor legs of the matrix
        t = rho.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(12, 12)
        rho_ba = DensityMatrix(Dims((d_b, d_a)), t)
        for q in (0.7, 1.0, 2.0):
            assert abs(reflected_entropy(rho_ab, q) - reflected_entropy(rho_ba, q)) < 1e-9


def test_reflected_entropy_range(rng):
    for _ in range(10):
        rho = random_mixed(2, 5, rng)
        s = reflected_entropy(rho, 1.0)
        assert -1e-9 <= s <= 2.0 * min(math.log(2.0), math.log(5.0)) + 1e-9


def test_reflected_entropy_bundled_state_matches_published():
    psi, part, expected = load_fixture_state("violation_3322.json")
    rho_ab = two_party_density(psi, part)
    bits = EntropyConfig(log_base="2")
    s_r = reflected_entropy(rho_ab, 1.0, bits)
    assert abs(s_r - expected["s_r"]) <= expected["tol_s_r"]


def _mp_gap(psi: QuditState, part, dps: int):
    """S(AA') - S_R(A:B)/2 in nats at `dps` digits, by index loops and no eigenvalue cutoff.

    sqrt(rho_AB) is T (T^dag T)^(-1/2) T^dag with T the (AB, A'B') amplitude matrix:
    rooting the rank-deficient rho_AB itself would root its kernel eigenvalues,
    which sit at +-10^-dps, and move the result by 10^(-dps/2).
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    sites = psi.dims.sites
    with mp.workdps(dps):
        amp = {idx: mp.mpc(complex(z)) for idx, z in zip(np.ndindex(*sites), psi.amplitudes)}

        def amplitude_matrix(rows, cols):
            r_idx = list(np.ndindex(*(sites[s] for s in rows)))
            c_idx = list(np.ndindex(*(sites[s] for s in cols)))
            t = mp.matrix(len(r_idx), len(c_idx))
            for i, x in enumerate(r_idx):
                for j, y in enumerate(c_idx):
                    where = dict(zip(rows + cols, x + y))
                    t[i, j] = amp[tuple(where[s] for s in range(len(sites)))]
            return t

        def entropy(rho):
            vals = mp.eighe(rho, eigvals_only=True)
            return -mp.fsum(p * mp.log(p) for p in vals if p > 0)

        t_aap = amplitude_matrix(part.a_sites + part.ap_sites, part.b_sites + part.bp_sites)
        s_aap = entropy(t_aap * t_aap.H)

        t = amplitude_matrix(part.a_sites + part.b_sites, part.ap_sites + part.bp_sites)
        w, u = mp.eighe(t.H * t)
        inv_root = u * mp.diag([1 / mp.sqrt(x) for x in w]) * u.H
        x = t * inv_root * t.H
        assert mp.mnorm(x * x - t * t.H, 1) < mp.mpf(10) ** (5 - dps)

        # x is the purification with row (a, b) and column (a', b'); trace out b, b'
        da = math.prod(sites[s] for s in part.a_sites)
        db = math.prod(sites[s] for s in part.b_sites)
        rho_r = mp.matrix(da * da, da * da)
        for a1, ap1, a2, ap2 in np.ndindex(da, da, da, da):
            rho_r[a1 * da + ap1, a2 * da + ap2] = mp.fsum(
                x[a1 * db + b, ap1 * db + bp] * mp.conj(x[a2 * db + b, ap2 * db + bp])
                for b in range(db)
                for bp in range(db)
            )
        return s_aap - entropy(rho_r) / 2


@pytest.mark.parametrize("name", ["violation_3322.json", "violation_qubits6.json"])
def test_gap_matches_mpmath_oracle(name):
    psi, part, _ = load_fixture_state(name)
    want30, want = _mp_gap(psi, part, 30), _mp_gap(psi, part, 50)
    assert abs(want30 - want) < 1e-25
    g = gap(psi, part)
    kernel = _StateObjective(ObjectiveConfig(psi.dims, part))(psi.amplitudes[None], want_grad=False)[0][0]
    assert abs(g - want) < 1e-13
    assert abs(kernel - want) < 1e-13
    assert abs(g - want) < 1e-10 * abs(want)
