"""Canonical purification and the q-Renyi reflected entropy.

The purification of a two-party density matrix rho_AB is the pure state
whose amplitudes are the matrix entries of sqrt(rho_AB): the row index
(mixed-radix over A, B) feeds the physical sites and the column index
feeds the mirror sites, so the purified register is ordered (A, B, A', B')
with dimensions [dA, dB, dA, dB].  The mirror sites thereby carry the
complex-conjugate basis, matching |psi> x |psi*> in the rank-1 case.
Tracing out the mirror pair recovers rho_AB exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import DEFAULT_ENTROPY, EntropyConfig, PSD_ATOL, entropy_from_spectrum
from .entropy import hermitian_spectrum
from .states import DensityMatrix, Dims, QuditState, partial_trace


@dataclass(frozen=True)
class CanonicalPurification:
    """Purified state over (A, B, A', B')."""

    state: QuditState


def sqrt_density(rho: DensityMatrix, clip_eps: float = DEFAULT_ENTROPY.clip_eps) -> np.ndarray:
    """Hermitian PSD square root of a density matrix.

    Eigenvalues below ``clip_eps`` in magnitude are treated as exact zeros
    before taking the root; rank-deficient inputs would otherwise leak
    sqrt(roundoff) ~ 1e-8 noise into every downstream amplitude.
    Eigenvalues below -1e-10 raise.
    """
    mat = 0.5 * (rho.matrix + rho.matrix.conj().T)
    vals, vecs = np.linalg.eigh(mat)
    if float(vals.min()) < -PSD_ATOL:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {vals.min()!r}")
    root = np.where(vals >= clip_eps, np.sqrt(np.clip(vals, 0.0, None)), 0.0)
    x = (vecs * root) @ vecs.conj().T
    return 0.5 * (x + x.conj().T)


def canonical_purification(rho_ab: DensityMatrix) -> CanonicalPurification:
    """Canonical purification of a two-party density matrix.

    The result is normalized explicitly; clipping of roundoff-negative
    eigenvalues can shift the norm by up to ~1e-9 below 1.
    """
    if len(rho_ab.dims) != 2:
        raise ValueError(f"expected a two-party density matrix, got dims {rho_ab.dims.sites}")
    da, db = rho_ab.dims.sites
    amps = sqrt_density(rho_ab).reshape(-1)
    amps = amps / np.linalg.norm(amps)
    state = QuditState(Dims((da, db, da, db)), amps)
    return CanonicalPurification(state)


def reflected_spectrum(
    rho_ab: DensityMatrix, clip_eps: float = DEFAULT_ENTROPY.clip_eps
) -> np.ndarray:
    """Clipped, descending spectrum of the (A, A') marginal of the canonical purification.

    Every S_R^(q)(A:B) is a Renyi sum over this one q-independent spectrum.
    """
    pur = canonical_purification(rho_ab)
    return hermitian_spectrum(partial_trace(pur.state, (0, 2)), clip_eps).eigenvalues


def reflected_entropy(
    rho_ab: DensityMatrix, q: float = 1.0, config: EntropyConfig = DEFAULT_ENTROPY
) -> float:
    """q-Renyi entropy of the (A, A') marginal of the canonical purification."""
    return entropy_from_spectrum(reflected_spectrum(rho_ab, config.clip_eps), float(q), config)
