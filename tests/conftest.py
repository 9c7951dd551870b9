"""Shared helpers: independent oracles and fixture state constructors."""

from __future__ import annotations

from importlib import resources
from itertools import product

import numpy as np
import pytest

from entgap.states import Dims, PartitionSpec, QuditState


def fixture_path(name: str):
    return resources.files("entgap") / "fixtures" / name


def load_fixture_state(name: str) -> tuple[QuditState, PartitionSpec, dict]:
    from entgap.io import parse_state_file

    parsed = parse_state_file(str(fixture_path(name)))
    amps = parsed.amplitudes / np.linalg.norm(parsed.amplitudes)
    return QuditState(parsed.dims, amps), parsed.partition, parsed.expected


def random_state(dims: Dims, rng: np.random.Generator) -> QuditState:
    z = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
    return QuditState(dims, z / np.linalg.norm(z))


def bell_pair() -> np.ndarray:
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def ghz(n: int) -> QuditState:
    v = np.zeros(2**n, dtype=np.complex128)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return QuditState(Dims((2,) * n), v)


def reference_partial_trace(amps: np.ndarray, sites, keep) -> np.ndarray:
    """Independent loop-based reduced density matrix (kept sites ascending)."""
    sites = tuple(sites)
    keep = list(keep)
    rest = [i for i in range(len(sites)) if i not in keep]
    dk = int(np.prod([sites[i] for i in keep]))
    t = amps.reshape(sites)
    rho = np.zeros((dk, dk), dtype=np.complex128)
    for row, kidx in enumerate(product(*(range(sites[i]) for i in keep))):
        for col, kjdx in enumerate(product(*(range(sites[i]) for i in keep))):
            acc = 0.0 + 0.0j
            for ridx in product(*(range(sites[i]) for i in rest)):
                left = [0] * len(sites)
                right = [0] * len(sites)
                for pos, i in enumerate(keep):
                    left[i] = kidx[pos]
                    right[i] = kjdx[pos]
                for pos, i in enumerate(rest):
                    left[i] = ridx[pos]
                    right[i] = ridx[pos]
                acc += t[tuple(left)] * np.conj(t[tuple(right)])
            rho[row, col] = acc
    return rho


def reference_tmi(psi: QuditState, x, y, z) -> float:
    """S_X+S_Y+S_Z-S_XY-S_XZ-S_YZ+S_XYZ from loop traces and eigvalsh."""

    def s(sites):
        rho = reference_partial_trace(psi.amplitudes, psi.dims.sites, sorted(sites))
        p = np.linalg.eigvalsh(rho)
        p = p[p > 1e-12]
        return float(-np.sum(p * np.log(p)))

    x, y, z = tuple(x), tuple(y), tuple(z)
    return s(x) + s(y) + s(z) - s(x + y) - s(x + z) - s(y + z) + s(x + y + z)


def antihermitian_to_params(a: np.ndarray) -> np.ndarray:
    """The real parameter row of the upper-triangular M with M - M^dag == a (a anti-Hermitian)."""
    d = a.shape[0]
    m = np.triu(a, 1) + np.diag(np.diag(a) / 2.0)
    rows, cols = np.triu_indices(d)
    return m[rows, cols].view(np.float64)


def params_mapping_uniform_to(target: np.ndarray):
    """Parameters whose unitary sends the equal superposition to target, up to a global phase.

    Built from two Householder reflections and a matrix logarithm.  The
    reflection that swaps e0 and y maps e0 to y only when y[0] is real, so
    the target's global phase is rotated to make target[0] real first.
    """
    d = target.shape[0]
    target = target * np.exp(-1j * np.angle(target[0]))
    chi = np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128)

    def householder_swap(x, y):
        v = x - y
        n = np.linalg.norm(v)
        if n < 1e-14:
            return np.eye(d, dtype=np.complex128)
        v = v / n
        return np.eye(d, dtype=np.complex128) - 2.0 * np.outer(v, v.conj())

    e0 = np.zeros(d, dtype=np.complex128)
    e0[0] = 1.0
    u = householder_swap(e0, target) @ householder_swap(chi, e0)
    w, p = np.linalg.eig(u)
    a = p @ np.diag(np.log(w)) @ np.linalg.inv(p)
    a = 0.5 * (a - a.conj().T)
    return antihermitian_to_params(a)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
