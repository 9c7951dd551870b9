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

import numpy as np

from .entropy import DEFAULT_ENTROPY, EntropyConfig, clipped_eigenvalues, entropy_from_spectrum
from .entropy import hermitian_spectrum
from .states import DensityMatrix, Dims, QuditState, partial_trace


def sqrt_density(rho: DensityMatrix) -> np.ndarray:
    """Hermitian PSD square root of a density matrix.

    Eigenvalues are clipped by :func:`entgap.entropy.clipped_eigenvalues`
    before taking the root, so those below ``CLIP_EPS`` are exact zeros;
    rank-deficient inputs would otherwise leak sqrt(roundoff) ~ 1e-8 noise
    into every downstream amplitude.  Eigenvalues below -1e-10 raise.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    x = (vecs * np.sqrt(clipped_eigenvalues(vals))) @ vecs.conj().T
    return 0.5 * (x + x.conj().T)


def canonical_purification(rho_ab: DensityMatrix) -> QuditState:
    """Canonical purification of a two-party density matrix, over (A, B, A', B').

    The result is normalized explicitly; clipping of roundoff-negative
    eigenvalues can shift the norm by up to ~1e-9 below 1.
    """
    if len(rho_ab.dims) != 2:
        raise ValueError(f"expected a two-party density matrix, got dims {rho_ab.dims.sites}")
    da, db = rho_ab.dims.sites
    amps = sqrt_density(rho_ab).reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return QuditState(Dims((da, db, da, db)), amps)


def reflected_spectrum(rho_ab: DensityMatrix) -> np.ndarray:
    """Clipped, descending spectrum of the (A, A') marginal of the canonical purification.

    Every S_R^(q)(A:B) is a Renyi sum over this one q-independent spectrum.
    """
    return hermitian_spectrum(partial_trace(canonical_purification(rho_ab), (0, 2)))


def reflected_entropy(
    rho_ab: DensityMatrix, q: float = 1.0, config: EntropyConfig = DEFAULT_ENTROPY
) -> float:
    """q-Renyi entropy of the (A, A') marginal of the canonical purification."""
    return entropy_from_spectrum(reflected_spectrum(rho_ab), float(q), config)
