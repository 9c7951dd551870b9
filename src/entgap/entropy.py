"""Spectra, von Neumann / Renyi entropies, and the maximum tripartite information.

All entropies are reported in the base selected by :class:`EntropyConfig`
(natural log by default).  Eigenvalues with magnitude below ``CLIP_EPS``
(1e-12) are set to zero and excluded from every sum; the spectrum is never
renormalized afterwards.  Negative eigenvalues are tolerated down to
-1e-10 (partial-trace roundoff) and clipped here, not upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from .states import DensityMatrix, Dims, PartitionSpec, QuditState, partial_trace

PSD_ATOL = 1e-10
CLIP_EPS = 1e-12


@dataclass(frozen=True)
class EntropyConfig:
    """Logarithm base of the reported entropies."""

    log_base: str = "e"  # "e" (nats) or "2" (bits)

    def __post_init__(self) -> None:
        if self.log_base not in ("e", "2"):
            raise ValueError(f"log_base must be 'e' or '2', got {self.log_base!r}")

    @property
    def log_divisor(self) -> float:
        """Entropies in nats are divided by this to reach the configured base."""
        return 1.0 if self.log_base == "e" else math.log(2.0)


DEFAULT_ENTROPY = EntropyConfig()


def clipped_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Apply the clipping rule to raw eigenvalues of a density matrix.

    Values in (-CLIP_EPS, CLIP_EPS) become 0; residual negatives down to
    -1e-10 are roundoff and become 0 as well; anything below -1e-10 is a
    genuine positivity violation and raises.
    """
    vals = np.asarray(vals, dtype=np.float64)
    if vals.size and float(vals.min()) < -PSD_ATOL:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {vals.min()!r}")
    out = vals.copy()
    out[np.abs(out) < CLIP_EPS] = 0.0
    out[out < 0.0] = 0.0
    return out


def hermitian_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Descending eigenvalues of a density matrix, clipped and read-only.

    Raises if they violate positivity beyond -1e-10; Hermiticity and unit
    trace are :class:`DensityMatrix` invariants.
    """
    vals = np.linalg.eigvalsh(rho.matrix)
    out = clipped_eigenvalues(vals)[::-1].copy()
    out.setflags(write=False)
    return out


def entropy_from_spectrum(vals: np.ndarray, q: float, config: EntropyConfig) -> float:
    """Renyi-q entropy of an already-clipped spectrum (q=1 -> von Neumann)."""
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError(f"Renyi index must be positive and finite, got {q!r}")
    pos = vals[vals > 0.0]
    if pos.size == 0:
        return 0.0
    if q == 1.0:
        s = float(-np.sum(pos * np.log(pos)))
    else:
        s = float(np.log(np.sum(pos**q)) / (1.0 - q))
    return s / config.log_divisor


def von_neumann(rho: DensityMatrix, config: EntropyConfig = DEFAULT_ENTROPY) -> float:
    """Von Neumann entropy -sum(p log p) over the clipped spectrum."""
    return entropy_from_spectrum(hermitian_spectrum(rho), 1.0, config)


@lru_cache(maxsize=64)
def pure_tmi_terms(dims: Dims, partition: PartitionSpec) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Kept sites and sign of each term of S_A+S_B+S_A'+S_B'-S_AB-S_AB'-S_AA', AA' last.

    On a pure state S(X) = S(complement of X), so this sum is the I3 of all four
    triples.  Each term is kept on the smaller side of its cut (the region on a tie).
    """
    a, b, ap, bp = partition.a_sites, partition.b_sites, partition.ap_sites, partition.bp_sites
    terms = []
    for region, sign in [(a, 1), (b, 1), (ap, 1), (bp, 1), (a + b, -1), (a + bp, -1), (a + ap, -1)]:
        rest = tuple(i for i in range(len(dims)) if i not in region)
        smaller = math.prod(dims.sites[i] for i in rest) < math.prod(dims.sites[i] for i in region)
        terms.append((tuple(sorted(rest if smaller else region)), float(sign)))
    return tuple(terms)


def max_tmi(
    psi: QuditState, partition: PartitionSpec, config: EntropyConfig = DEFAULT_ENTROPY
) -> float:
    """Maximum tripartite mutual information over the four 3-party subsets.

    I3 = S_X+S_Y+S_Z-S_XY-S_XZ-S_YZ+S_XYZ, so GHZ gives +ln 2 and the state
    satisfies monogamy of mutual information (MMI, obeyed by holographic
    states) on every triple iff ``max_tmi <= 0``.  The state is pure, so the
    four triples share the one I3 of :func:`pure_tmi_terms`.
    """
    partition.validate_for(psi.dims)
    return sum(
        sign * von_neumann(partial_trace(psi, keep), config)
        for keep, sign in pure_tmi_terms(psi.dims, partition)
    )
