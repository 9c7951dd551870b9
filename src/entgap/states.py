"""Qudit state vectors, density matrices, partitions, and partial traces.

Index convention
----------------
Amplitudes are stored big-endian mixed-radix with site 0 the most
significant digit: a state over local dimensions ``[d0, d1, ...]``
satisfies ``psi.amplitudes.reshape(d0, d1, ...)[x0, x1, ...]``.  This is
numpy's C order, and every file format in this package uses it.

All containers here are immutable once constructed and safe to share
across threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
TRACE_ATOL = 1e-10


@dataclass(frozen=True)
class Dims:
    """Ordered local dimensions of a qudit register."""

    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        sites = tuple(int(d) for d in self.sites)
        object.__setattr__(self, "sites", sites)
        if len(sites) == 0:
            raise ValueError("Dims needs at least one site")
        if any(d < 2 for d in sites):
            raise ValueError(f"every local dimension must be >= 2, got {sites}")

    @property
    def total(self) -> int:
        return prod(self.sites)

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)


@dataclass(frozen=True)
class QuditState:
    """Normalized pure state over a qudit register."""

    dims: Dims
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != self.dims.total:
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, "
                f"dims {self.dims.sites} require {self.dims.total}"
            )
        nrm2 = float(np.vdot(amps, amps).real)
        if abs(nrm2 - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {nrm2!r}")
        amps.setflags(write=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace operator on a subset of sites.

    The input must be Hermitian within 1e-10; the stored matrix is its
    Hermitian part (M + M^dag)/2, so every consumer sees an exactly Hermitian
    matrix.  Positive semidefiniteness (eigenvalues >= -1e-10) is an
    invariant of well-formed inputs but is enforced where the matrix is
    actually eigendecomposed (the entropy layer), not at construction, so
    that partial traces stay cheap.
    """

    dims: Dims
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        d = self.dims.total
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {self.dims.sites}")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_ATOL:
            raise ValueError("matrix is not Hermitian within 1e-10")
        mat = 0.5 * (mat + mat.conj().T)
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class PartitionSpec:
    """Assignment of sites to the four parties A, B, A', B'."""

    a_sites: tuple[int, ...]
    b_sites: tuple[int, ...]
    ap_sites: tuple[int, ...]
    bp_sites: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("a_sites", "b_sites", "ap_sites", "bp_sites"):
            val = tuple(int(i) for i in getattr(self, name))
            object.__setattr__(self, name, val)
            if len(val) == 0:
                raise ValueError(f"{name} must be non-empty")
        combined = self.a_sites + self.b_sites + self.ap_sites + self.bp_sites
        if len(set(combined)) != len(combined):
            raise ValueError("party site lists must be disjoint")

    def all_sites(self) -> tuple[int, ...]:
        return self.a_sites + self.b_sites + self.ap_sites + self.bp_sites

    def validate_for(self, dims: Dims) -> None:
        """Check the four parties cover exactly the sites of ``dims``."""
        if sorted(self.all_sites()) != list(range(len(dims))):
            raise ValueError(
                f"parties {self.all_sites()} do not cover sites 0..{len(dims) - 1} exactly"
            )


def default_partition(dims: Dims) -> PartitionSpec:
    """One party per site, in order (A, B, A', B'), for 4-site registers."""
    if len(dims) != 4:
        raise ValueError("default partition requires exactly 4 sites")
    return PartitionSpec((0,), (1,), (2,), (3,))


def equal_superposition(dims: Dims) -> QuditState:
    """Uniform superposition of all computational basis states."""
    d = dims.total
    return QuditState(dims, np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128))


def _check_keep(keep: Sequence[int], n_sites: int) -> tuple[int, ...]:
    keep = tuple(int(i) for i in keep)
    if len(keep) == 0:
        raise ValueError("keep must be non-empty")
    if any(i < 0 or i >= n_sites for i in keep):
        raise IndexError(f"site index out of range in keep={keep} for {n_sites} sites")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate site indices in keep={keep}")
    if list(keep) != sorted(keep):
        raise ValueError(f"keep must be in ascending site order, got {keep}")
    return keep


def partial_trace(state: QuditState, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix of a pure state on ``keep`` (ascending site indices).

    Contracts the state vector directly into the reduced matrix without
    materializing the full projector, so it is usable at 16 qubits.  Kept
    sites retain their original relative order; keeping every site gives the
    projector |psi><psi|.
    """
    keep = _check_keep(keep, len(state.dims))
    sites = state.dims.sites
    rest = tuple(i for i in range(len(sites)) if i not in keep)
    dk = prod(sites[i] for i in keep)
    t = state.amplitudes.reshape(sites).transpose(keep + rest).reshape(dk, -1)
    return DensityMatrix(Dims(tuple(sites[i] for i in keep)), t @ t.conj().T)
