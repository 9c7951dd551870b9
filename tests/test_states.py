import numpy as np
import pytest

from entgap.entropy import hermitian_spectrum
from entgap.reflect import sqrt_density
from entgap.states import (
    DensityMatrix,
    Dims,
    PartitionSpec,
    QuditState,
    default_partition,
    equal_superposition,
    partial_trace,
)

from conftest import bell_pair, random_state, reference_partial_trace


def test_dims_validation():
    assert Dims((3, 3, 2, 2)).total == 36
    with pytest.raises(ValueError):
        Dims((1, 2))
    with pytest.raises(ValueError):
        Dims(())


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        QuditState(Dims((2, 2)), np.ones(4))
    with pytest.raises(ValueError):
        QuditState(Dims((2, 2)), np.ones(3) / np.sqrt(3))


def test_partition_spec_validation():
    part = PartitionSpec((0,), (1,), (2,), (3,))
    part.validate_for(Dims((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        PartitionSpec((0,), (0,), (2,), (3,))
    with pytest.raises(ValueError):
        PartitionSpec((0,), (), (2,), (3,))
    with pytest.raises(ValueError):
        part.validate_for(Dims((2, 2, 2, 2, 2)))
    with pytest.raises(ValueError):
        default_partition(Dims((2, 2)))


def test_equal_superposition_values():
    s = equal_superposition(Dims((2, 2)))
    assert np.allclose(s.amplitudes, 0.5)
    s = equal_superposition(Dims((3, 3, 2, 2)))
    assert s.amplitudes.shape == (36,)
    assert np.allclose(s.amplitudes, 1.0 / 6.0)
    assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) < 1e-15


def test_density_purity_rank_one(rng):
    psi = random_state(Dims((3, 2, 2)), rng)
    rho = partial_trace(psi, (0, 1, 2)).matrix
    assert np.allclose(rho, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-15)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_density_matrix_stores_an_exactly_hermitian_matrix(rng):
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    rho = z @ z.conj().T
    rho /= np.trace(rho).real
    noise = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    near = rho + 1e-12 * noise  # Hermitian to 1e-12 only
    assert np.max(np.abs(near - near.conj().T)) > 0.0
    exact = 0.5 * (near + near.conj().T)
    dm = DensityMatrix(Dims((2, 3)), near)
    assert np.array_equal(dm.matrix, dm.matrix.conj().T)
    assert np.array_equal(dm.matrix, exact)
    want = DensityMatrix(Dims((2, 3)), exact)
    assert np.array_equal(hermitian_spectrum(dm), hermitian_spectrum(want))
    assert np.array_equal(sqrt_density(dm), sqrt_density(want))


def test_partial_trace_bell_marginal():
    bell = QuditState(Dims((2, 2)), bell_pair())
    rho = partial_trace(bell, (0,))
    assert np.allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-14)


def test_partial_trace_product_state():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    amps = np.kron(np.array([1.0, 0.0]), plus)
    psi = QuditState(Dims((2, 2)), amps)
    rho = partial_trace(psi, (1,))
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-14)


def test_partial_trace_matches_reference_oracle(rng):
    for dims_t in [(2, 2, 2), (3, 2, 2), (3, 3, 2, 2)]:
        dims = Dims(dims_t)
        psi = random_state(dims, rng)
        for keep in [(0,), (1,), (0, 2), (0, 1), tuple(range(len(dims_t)))]:
            got = partial_trace(psi, keep).matrix
            want = reference_partial_trace(psi.amplitudes, dims_t, keep)
            assert np.max(np.abs(got - want)) < 1e-12


def test_partial_trace_composition(rng):
    # tracing once equals tracing the oracle's two-site marginal over its second site
    psi = random_state(Dims((2, 3, 2)), rng)
    direct = partial_trace(psi, (0,)).matrix
    pair = reference_partial_trace(psi.amplitudes, psi.dims.sites, (0, 1))
    staged = np.trace(pair.reshape(2, 3, 2, 3), axis1=1, axis2=3)
    assert np.max(np.abs(direct - staged)) < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity(rng):
    for _ in range(20):
        psi = random_state(Dims((3, 3, 2, 2)), rng)
        rho = partial_trace(psi, (0, 3)).matrix
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_partial_trace_input_errors(rng):
    psi = random_state(Dims((2, 2, 2)), rng)
    with pytest.raises(IndexError):
        partial_trace(psi, (0, 5))
    with pytest.raises(ValueError):
        partial_trace(psi, (1, 1))
    with pytest.raises(ValueError):
        partial_trace(psi, (2, 0))
    with pytest.raises(ValueError):
        partial_trace(psi, ())


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(Dims((2,)), np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(Dims((2,)), np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        DensityMatrix(Dims((2, 2)), np.eye(3) / 3.0)
