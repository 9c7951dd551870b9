import math
from itertools import permutations

import numpy as np
import pytest

from entgap.entropy import CLIP_EPS, EntropyConfig, max_tmi, von_neumann
from entgap.objective import (
    GapProfile,
    ObjectiveConfig,
    UTParams,
    _entropy_grad_diag,
    _StateObjective,
    _generator,
    _unitaries,
    gap,
    objective_value_and_gradient,
    penalized_gap,
    stacked_value_and_gradient,
    state_from_params,
    two_party_density,
)
from entgap.reflect import reflected_entropy
from entgap.states import (
    Dims,
    PartitionSpec,
    QuditState,
    default_partition,
    equal_superposition,
    partial_trace,
)

from conftest import (
    antihermitian_to_params,
    bell_pair,
    ghz,
    load_fixture_state,
    params_mapping_uniform_to,
    random_state,
    reference_partial_trace,
)

LN2 = math.log(2.0)


def random_params(d: int, rng) -> UTParams:
    n = UTParams.num_entries(d)
    raw = rng.standard_normal(2 * n)
    return UTParams(d, (raw[0::2] + 1j * raw[1::2]) / np.sqrt(2.0 * d))


def objective_value(p: UTParams, cfg: ObjectiveConfig) -> float:
    return objective_value_and_gradient(p, cfg, want_grad=False)[0]


def unitary(p: UTParams) -> np.ndarray:
    return _unitaries(p.entries.view(np.float64), p.d)[0]


def fd_gradient(p: UTParams, cfg: ObjectiveConfig, h: float = 1e-5) -> np.ndarray:
    """Independent central-difference oracle over all real components."""
    base = p.entries
    out = np.empty(2 * base.shape[0])
    for k in range(base.shape[0]):
        for comp in range(2):
            delta = h if comp == 0 else 1j * h
            ep = base.copy()
            ep[k] += delta
            em = base.copy()
            em[k] -= delta
            vp = objective_value(UTParams(p.d, ep), cfg)
            vm = objective_value(UTParams(p.d, em), cfg)
            out[2 * k + comp] = (vp - vm) / (2.0 * h)
    return out


def grad_close(analytic, fd, rel=1e-5, abs_tol=1e-8):
    return np.all(np.abs(analytic - fd) <= np.maximum(rel * np.abs(fd), abs_tol))


def richardson_slope(f, h: float = 1e-3) -> float:
    """f'(0) from central differences at h/2 and h/4, their h^2 errors cancelled."""

    def central(step):
        return (f(step) - f(-step)) / (2.0 * step)

    return (4.0 * central(h / 4.0) - central(h / 2.0)) / 3.0


def test_unitary_zero_params_is_identity():
    p = UTParams(4, np.zeros(10))
    assert np.max(np.abs(unitary(p) - np.eye(4))) < 1e-14


def test_unitary_two_level_rotation():
    theta = 0.4
    p = UTParams(2, np.array([0.0, theta, 0.0], dtype=complex))
    want = np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])
    assert np.max(np.abs(unitary(p) - want)) < 1e-12


def test_unitary_is_unitary_d36(rng):
    p = random_params(36, rng)
    u = unitary(p)
    assert np.max(np.abs(u @ u.conj().T - np.eye(36))) < 1e-10


def test_state_from_params_zero_is_uniform():
    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims))
    p = UTParams(16, np.zeros(UTParams.num_entries(16)))
    psi = state_from_params(p, cfg)
    assert np.max(np.abs(psi.amplitudes - equal_superposition(dims).amplitudes)) < 1e-14


def test_state_from_params_normalized(rng):
    dims = Dims((3, 3, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims))
    psi = state_from_params(random_params(36, rng), cfg)
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-10


def test_real_diagonal_shift_leaves_state_unchanged(rng):
    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims))
    p = random_params(16, rng)
    shifted = p.entries.copy()
    rows, cols = np.triu_indices(16)
    shifted[rows == cols] += 0.37  # real shift on the diagonal of M
    psi0 = state_from_params(p, cfg)
    psi1 = state_from_params(UTParams(16, shifted), cfg)
    assert np.max(np.abs(psi0.amplitudes - psi1.amplitudes)) < 1e-10


def test_gap_product_state_is_zero():
    amps = np.zeros(16)
    amps[0] = 1.0
    psi = QuditState(Dims((2, 2, 2, 2)), amps)
    assert abs(gap(psi, default_partition(psi.dims), 1.0)) < 1e-12


def test_gap_bell_on_ab_is_zero():
    amps = np.kron(bell_pair(), np.array([1.0, 0.0, 0.0, 0.0]))
    psi = QuditState(Dims((2, 2, 2, 2)), amps)
    # S(AA') = ln2 and rho_AB is pure with S_R = 2 ln2
    assert abs(gap(psi, default_partition(psi.dims), 1.0)) < 1e-9


def test_gap_bundled_state_matches_published():
    psi, part, expected = load_fixture_state("violation_3322.json")
    bits = EntropyConfig(log_base="2")
    g = gap(psi, part, 1.0, bits)
    assert abs(g - expected["gap"]) <= expected["tol_gap"]
    assert g < 0.0


def _oracle_rho_ab(psi: QuditState, part: PartitionSpec) -> np.ndarray:
    """rho_AB from the loop oracle on ascending sites, reordered to A's sites then B's, as listed."""
    keep = sorted(part.a_sites + part.b_sites)
    rho = reference_partial_trace(psi.amplitudes, psi.dims.sites, keep)
    kept = [psi.dims.sites[i] for i in keep]
    order = [keep.index(i) for i in part.a_sites + part.b_sites]
    n, dk = len(keep), math.prod(kept)
    return rho.reshape(kept + kept).transpose(order + [n + k for k in order]).reshape(dk, dk)


@pytest.mark.parametrize(
    "sites,parties",
    [((3, 3, 2, 2), tuple((i,) for i in perm)) for perm in permutations(range(4))]
    # B' = (1, 2) precedes A' = (4,), and A and B list their sites out of order
    + [((2,) * 6, ((3, 0), (5,), (4,), (1, 2)))],
)
def test_two_party_density_matches_loop_oracle(rng, sites, parties):
    psi = random_state(Dims(sites), rng)
    part = PartitionSpec(*parties)
    rho = two_party_density(psi, part)
    da = math.prod(sites[i] for i in part.a_sites)
    db = math.prod(sites[i] for i in part.b_sites)
    assert rho.dims.sites == (da, db)
    assert np.max(np.abs(rho.matrix - _oracle_rho_ab(psi, part))) <= 1e-12
    with pytest.raises(ValueError, match="do not cover"):  # a site left out of every party
        two_party_density(random_state(Dims(sites + (2,)), rng), part)


def test_gap_profile_checks_its_partition_once(monkeypatch, rng):
    calls = []
    check = PartitionSpec.validate_for
    monkeypatch.setattr(PartitionSpec, "validate_for",
                        lambda self, dims: calls.append(dims) or check(self, dims))
    psi = random_state(Dims((3, 3, 2, 2)), rng)
    GapProfile(psi, default_partition(psi.dims), EntropyConfig())
    assert len(calls) == 1
    # A' = (4,) leaves site 3 out: the trace over A A' = (0, 4) would raise IndexError
    with pytest.raises(ValueError, match="do not cover") as exc:
        gap(psi, PartitionSpec((0,), (1,), (4,), (2,)))
    assert not isinstance(exc.value, IndexError)
    assert len(calls) == 2


def test_gap_internal_consistency(rng):
    # gap() rebuilt from independent module calls, exact to 1e-12
    psi = random_state(Dims((3, 3, 2, 2)), rng)
    part = default_partition(psi.dims)
    for q in (0.5, 1.0, 2.0):
        direct = gap(psi, part, q)
        s_aap = von_neumann(partial_trace(psi, (0, 2)))
        s_r = reflected_entropy(two_party_density(psi, part), q)
        assert abs(direct - (s_aap - 0.5 * s_r)) <= 1e-12


def test_objective_value_matches_gap(rng):
    dims = Dims((3, 3, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), q=1.0)
    p = random_params(36, rng)
    psi = state_from_params(p, cfg)
    assert abs(objective_value(p, cfg) - gap(psi, cfg.partition, 1.0)) <= 1e-12


def test_penalized_gap_inactive_equals_gap():
    amps = np.kron(bell_pair(), bell_pair())
    psi = QuditState(Dims((2, 2, 2, 2)), amps)
    part = default_partition(psi.dims)
    assert penalized_gap(psi, part, 1.0) == pytest.approx(gap(psi, part, 1.0), abs=1e-12)


def test_penalized_gap_ghz_adds_ln2():
    psi = ghz(4)
    part = default_partition(psi.dims)
    assert abs(penalized_gap(psi, part, 1.0) - (gap(psi, part, 1.0) + LN2)) < 1e-12


def test_penalized_gap_bundled_state_penalty_inactive():
    # the bundled violating state has Max(I3) < 0, so the hinge adds nothing
    psi, part, _ = load_fixture_state("violation_3322.json")
    assert max_tmi(psi, part) < 0.0
    assert penalized_gap(psi, part, 1.0) == pytest.approx(gap(psi, part, 1.0), abs=1e-12)


def test_penalized_gap_never_below_gap(rng):
    part = default_partition(Dims((2, 2, 2, 2)))
    for _ in range(20):
        psi = random_state(Dims((2, 2, 2, 2)), rng)
        pg = penalized_gap(psi, part, 1.0)
        g = gap(psi, part, 1.0)
        assert pg >= g - 1e-15
        if max_tmi(psi, part) <= 0.0:
            assert pg == pytest.approx(g, abs=1e-15)


def test_akers_bound_q2_random_states(rng):
    for dims_t in [(2, 2, 2, 2), (3, 3, 2, 2), (4, 4, 2, 2)]:
        dims = Dims(dims_t)
        part = default_partition(dims)
        for _ in range(200):
            psi = random_state(dims, rng)
            assert gap(psi, part, 2.0) >= -1e-9


def test_gradient_matches_fd_small_dims(rng):
    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), q=1.0)
    for _ in range(3):
        p = random_params(16, rng)
        g = objective_value_and_gradient(p, cfg)[1]
        assert grad_close(g, fd_gradient(p, cfg))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_gradient_matches_fd_3322(rng, q):
    dims = Dims((3, 3, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), q=q)
    p = random_params(36, rng)
    g = objective_value_and_gradient(p, cfg)[1]
    assert grad_close(g, fd_gradient(p, cfg))


def test_directional_derivative_secant(rng):
    dims = Dims((3, 3, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), q=1.0)
    p = random_params(36, rng)
    _, g, _ = objective_value_and_gradient(p, cfg)
    h = 1e-5
    for _ in range(4):
        v = rng.standard_normal(g.shape[0])
        v /= np.linalg.norm(v)
        dv = (v[0::2] + 1j * v[1::2]) * h
        vp = objective_value(UTParams(36, p.entries + dv), cfg)
        vm = objective_value(UTParams(36, p.entries - dv), cfg)
        secant = (vp - vm) / (2.0 * h)
        assert abs(float(g @ v) - secant) < 1e-6


def test_gradient_zero_along_flat_directions(rng):
    # real diagonal entries of M cancel in M - M^dag: exactly zero gradient
    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), q=1.0)
    g = objective_value_and_gradient(random_params(16, rng), cfg)[1]
    rows, cols = np.triu_indices(16)
    diag_re = 2 * np.flatnonzero(rows == cols)
    assert np.all(g[diag_re] == 0.0)


def test_gradient_vector_length(rng):
    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims))
    g = objective_value_and_gradient(random_params(16, rng), cfg)[1]
    assert g.shape == (16 * 17,)


@pytest.mark.parametrize("sites", [(3, 3, 2, 2), (4, 4, 2, 2)])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_state_gradient_at_rank_deficient_rho_ab(sites, q):
    # rho_AB has rank at most d_A'B' < d_AB: the square root's divided
    # differences meet its kernel, which plain central differences cannot resolve
    dims = Dims(sites)
    obj = _StateObjective(ObjectiveConfig(dims, default_partition(dims), q=q))
    rng = np.random.default_rng(20 * sites[0] + int(q))
    for _ in range(3):
        psi = random_state(dims, rng).amplitudes
        z = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
        z /= np.linalg.norm(z)
        g = obj(psi[None])[1][0]
        want = richardson_slope(lambda t: obj((psi + t * z)[None], want_grad=False)[0][0])
        assert abs(float(np.vdot(g, z).real) - want) < 1e-10


@pytest.mark.parametrize("split", [1e-11, 2e-10, 1e-9])
def test_gradient_at_near_degenerate_generator(split):
    # H = i(M - M^dag) with one eigenvalue pair split by `split`, about where the
    # exp adjoint's divided difference (e^-ia - e^-ib)/(a - b) loses its digits
    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), q=1.0)
    rng = np.random.default_rng(2)
    theta = np.sort(rng.uniform(-3.0, 3.0, 16))
    theta[9] = theta[8] + split
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    v, _ = np.linalg.qr(g)
    p = antihermitian_to_params(-1j * (v * theta) @ v.conj().T)  # M - M^dag = -iH
    m = _generator(p.entries, p.d)
    assert np.min(np.diff(np.linalg.eigvalsh(1j * (m - m.conj().T)))) < 2.0 * split
    _, grad, _ = objective_value_and_gradient(p, cfg)
    for _ in range(3):
        r = rng.standard_normal(grad.shape[0])
        r /= np.linalg.norm(r)
        dz = r[0::2] + 1j * r[1::2]
        want = richardson_slope(lambda t: objective_value(UTParams(16, p.entries + t * dz), cfg))
        assert abs(float(grad @ r) - want) < 1e-11


def _check_penalized_gradient_hinge_active(sites, rng):
    # steer to a GHZ-like region where Max(I3) ~ ln2 > 0 so the hinge is on;
    # on qutrits the GHZ state lives in their first two levels
    dims = Dims(sites)
    cfg = ObjectiveConfig(dims, default_partition(dims), q=1.0, penalty_enabled=True)
    target = np.zeros(dims.total, dtype=np.complex128)
    target[0] = target[np.ravel_multi_index((1,) * len(sites), sites)] = 1.0 / np.sqrt(2.0)
    p0 = params_mapping_uniform_to(target)
    noise = random_params(dims.total, rng).entries * 0.05
    p = UTParams(dims.total, p0.entries + noise)
    value, g, extras = objective_value_and_gradient(p, cfg)
    assert extras["max_tmi"] > 0.01
    assert value > extras["gap"]
    assert grad_close(g, fd_gradient(p, cfg))


def test_params_mapping_uniform_to_reaches_a_complex_target():
    # the hinge tests' GHZ targets are real; this fixture's first amplitude is not
    psi, part, _ = load_fixture_state("violation_3322.json")
    assert abs(psi.amplitudes[0].imag) > 0.1
    p = params_mapping_uniform_to(psi.amplitudes)
    phi = state_from_params(p, ObjectiveConfig(psi.dims, part))
    assert abs(np.vdot(psi.amplitudes, phi.amplitudes)) >= 1.0 - 1e-9
    assert abs(gap(phi, part) - gap(psi, part)) <= 1e-9


def test_penalized_gradient_matches_fd_hinge_active(rng):
    _check_penalized_gradient_hinge_active((2, 2, 2, 2), rng)


def test_penalized_gradient_matches_fd_hinge_active_3322(rng):
    # here the cuts are unequal: the penalty's S_AB is taken on A'B'
    _check_penalized_gradient_hinge_active((3, 3, 2, 2), rng)


def test_eigh_calls_per_step_3322(monkeypatch, rng):
    # 4 eigh for the exp and the gap; the penalty adds 6, none larger than rho_AA'
    sizes = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    dims = Dims((3, 3, 2, 2))
    p = random_params(36, rng)
    for penalty, want in [(False, 4), (True, 10)]:
        sizes.clear()
        cfg = ObjectiveConfig(dims, default_partition(dims), penalty_enabled=penalty)
        objective_value_and_gradient(p, cfg)
        assert len(sizes) == want
    assert sorted(sizes[4:]) == [2, 2, 3, 3, 4, 6]


def test_penalized_gradient_matches_fd_hinge_inactive(rng):
    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), q=1.0, penalty_enabled=True)
    p = random_params(16, rng)
    value, g, extras = objective_value_and_gradient(p, cfg)
    assert extras["max_tmi"] < 0.0
    assert value == pytest.approx(extras["gap"], abs=1e-15)
    assert grad_close(g, fd_gradient(p, cfg))


@pytest.mark.parametrize("n", [6, 9, 16])
@pytest.mark.parametrize("q", [1.0, 0.5, 2.0])
def test_stacked_entropies_add_each_row_as_its_kept_eigenvalues_alone(rng, n, q):
    # one stack holds rows with 0..5 clipped eigenvalues; each row's entropy must
    # round as the sum over its kept eigenvalues only, as one spectrum alone does
    vals = rng.uniform(0.01, 1.0, (6, n))
    for j in range(6):
        vals[j, :j] = rng.uniform(-1e-13, 1e-13, j)
    vals = np.sort(vals, axis=1)  # eigh order
    values, grads = _entropy_grad_diag(vals, q, 1.0)
    for row, value, g in zip(vals, values, grads):
        lam = row[row >= CLIP_EPS]
        want = -np.sum(lam * np.log(lam)) if q == 1.0 else np.log(np.sum(lam**q)) / (1.0 - q)
        assert value == want
        assert np.all(g[row < CLIP_EPS] == 0.0)


def test_state_objective_stack_rows_equal_single_states(rng):
    dims = Dims((3, 3, 2, 2))
    obj = _StateObjective(ObjectiveConfig(dims, default_partition(dims), penalty_enabled=True))
    stack = np.stack([random_state(dims, rng).amplitudes for _ in range(5)])
    values, g_psi, extras = obj(stack)
    for j in range(len(stack)):
        value, g, ext = obj(stack[j:j + 1])  # state j alone, as a stack of one
        assert value[0] == values[j] and np.array_equal(g[0], g_psi[j])
        assert {k: v[0] for k, v in ext.items()} == {k: v[j] for k, v in extras.items()}


def test_stacked_kernel_reads_any_row_layout(rng):
    # a real row is its complex entries viewed as float64, so a Fortran-ordered
    # stack or a strided row slice must be made C-contiguous before the view
    dims = Dims((3, 3, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims), penalty_enabled=True)
    points = [random_params(dims.total, rng) for _ in range(4)]
    x = np.stack([p.entries.view(np.float64) for p in points])
    values, grads, extras = stacked_value_and_gradient(x, cfg)
    for layout, rows in ((np.asfortranarray(x), slice(None)), (x[::2], slice(None, None, 2))):
        v, g, e = stacked_value_and_gradient(layout, cfg)
        assert np.array_equal(v, values[rows]) and np.array_equal(g, grads[rows])
        assert all(np.array_equal(e[k], extras[k][rows]) for k in extras)
    value, grad, ext = objective_value_and_gradient(points[0], cfg)
    assert value == values[0] and np.array_equal(grad, grads[0])
    assert ext == {k: v[0] for k, v in extras.items()}


def test_params_validation():
    with pytest.raises(ValueError):
        UTParams(4, np.zeros(9))
    with pytest.raises(ValueError):
        UTParams(2, np.array([np.inf, 0.0, 0.0]))
    dims = Dims((2, 2, 2, 2))
    cfg = ObjectiveConfig(dims, default_partition(dims))
    with pytest.raises(ValueError):
        state_from_params(UTParams(4, np.zeros(10)), cfg)
    with pytest.raises(ValueError):
        ObjectiveConfig(dims, default_partition(dims), q=0.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(dims, default_partition(dims), penalty_weight=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ObjectiveConfig(dims, default_partition(dims), q=bad)
        with pytest.raises(ValueError, match="finite"):
            ObjectiveConfig(dims, default_partition(dims), penalty_weight=bad)
