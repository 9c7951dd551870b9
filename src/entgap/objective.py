"""Unitary parametrization, gap objectives, and their analytic gradients.

The search state is ``psi = exp(M - M^dag) @ chi`` where ``chi`` is the
equal superposition and ``M`` is an upper-triangular complex matrix whose
entries are the optimization variables.  The objective is

    gap = S(AA') - 1/2 * S_R^(q)(A:B)

optionally plus a hinge penalty on the maximal tripartite mutual information,
active only where monogamy of mutual information (I3 <= 0) fails.  On the pure
state all four I3 are one sum of seven entropies, each on the smaller side of
its cut (:func:`entgap.entropy.pure_tmi_terms`), whose S_AA' term reuses the
gap's own spectrum.  Gradients are computed analytically by spectral calculus:
first-divided-difference (Daleckii-Krein) matrices propagate perturbations
through the matrix exponential and the density-matrix square root, and
entropy terms differentiate to spectral functions of their density
matrices.  Both divided differences are closed forms that stay exact as
eigenvalue pairs merge: a sinc for the exponential and 1/(r_i + r_j) on the
clipped roots for the square root.  Eigenvalues below
:data:`entgap.entropy.CLIP_EPS` contribute nothing.

The exp adjoint (:func:`_parameter_gradient`) takes its cotangent in the
eigenbasis of H = i(M - M^dag), where the sinc acts elementwise with its
phase split into a row and a column factor.  The search's cotangent on U,
``g_psi chi^dag``, has rank one, so the unitary family applies V and V^dag
to vectors only and never forms U, forward or backward; the MERA gates,
which act on many vectors, form theirs (:func:`_unitaries`).

The kernel works on stacks: every array carries leading stack axes, so a
search evaluates S parameter points with one call
(:func:`stacked_value_and_gradient`) and each numpy call, ``eigh`` and
``matmul`` included, acts on each point alone.  One point is the same code
on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite, prod
from typing import Sequence

import numpy as np

from .entropy import CLIP_EPS, DEFAULT_ENTROPY, EntropyConfig, clipped_eigenvalues, max_tmi
from .entropy import pure_tmi_terms, von_neumann
from .reflect import reflected_spectrum
from .states import (
    DensityMatrix,
    Dims,
    PartitionSpec,
    QuditState,
    equal_superposition,
    partial_trace,
)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Everything needed to evaluate the (penalized) gap of a parametrized state."""

    dims: Dims
    partition: PartitionSpec
    q: float = 1.0
    penalty_enabled: bool = False
    penalty_weight: float = 1.0
    entropy: EntropyConfig = field(default_factory=EntropyConfig)

    def __post_init__(self) -> None:
        self.partition.validate_for(self.dims)
        if not (isfinite(self.q) and self.q > 0.0):
            raise ValueError(f"Renyi index must be positive and finite, got {self.q!r}")
        if not (isfinite(self.penalty_weight) and self.penalty_weight >= 0.0):
            raise ValueError(f"penalty weight must be non-negative and finite, got {self.penalty_weight!r}")


@lru_cache(maxsize=64)
def _ut_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a row-major d x d matrix of its upper triangle and of the transposed entries."""
    rows, cols = np.triu_indices(d)
    return rows * d + cols, cols * d + rows


def _generator(entries: np.ndarray, d: int) -> np.ndarray:
    """Dense upper-triangular M (..., d, d) from packed entry vectors (..., d(d+1)/2)."""
    m = np.zeros(entries.shape[:-1] + (d * d,), dtype=np.complex128)
    m[..., _ut_indices(d)[0]] = entries
    return m.reshape(entries.shape[:-1] + (d, d))


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _spectrum(x: np.ndarray, d: int):
    """(theta, V) of H = i(M - M^dag) = V diag(theta) V^dag for real parameter rows x (..., d(d+1)).

    A real row is its packed complex entries viewed as float64, i.e.
    interleaved (re, im) pairs.  Every parameter row passes here, so this is
    where a row of the wrong length or with non-finite entries raises
    ValueError.  exp(M - M^dag) = V diag(exp(-i theta)) V^dag.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[-1] != d * (d + 1):
        raise ValueError(f"expected {d * (d + 1)} real parameters for d={d}, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("parameter entries must be finite")
    m = _generator(x.view(np.complex128), d)
    return np.linalg.eigh(1j * (m - _dagger(m)))


def _unitaries(x: np.ndarray, d: int):
    """(U, theta, V) with U = exp(M - M^dag) of real parameter rows x, for gates that act on many vectors."""
    theta, v = _spectrum(x, d)
    return (v * np.exp(-1j * theta)[..., None, :]) @ _dagger(v), theta, v


def _parameter_gradient(theta: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pull a gradient g_U on U = exp(M - M^dag) back to real parameter rows (..., d(d+1)).

    ``w = V^dag g_U V`` is the cotangent in the eigenbasis of H = V diag(theta) V^dag.
    The divided difference of exp(-i theta) is -i conj(e_i e_j) S_ij with
    e = exp(i theta / 2) and the real sinc S_ij = sin(delta/2) / (delta/2) of
    delta = theta_i - theta_j, which stays exact as pairs merge.  With its
    phase split into a row and a column factor, the gradient on H is i G with
    G = (V diag(e)) (w * S) (diag(e) V^dag), so no d x d complex exponential
    is taken, and entry (r, c) of the row, from the Hermitian part of i G,
    is G[r, c] - conj(G[c, r]).
    """
    d = theta.shape[-1]
    upper, lower = _ut_indices(d)
    e = np.exp(0.5j * theta)
    half = 0.5 * (theta[..., :, None] - theta[..., None, :])
    s = np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
    del half  # each temporary goes once used, so a stack holds few (S, d, d) arrays at once
    g = (v * e[..., None, :]) @ (w * s)
    del s
    # numpy reuses a temporary operand of 256 KiB or more as the output, swapping a
    # commutative product's operands, which round differently under FMA; the
    # complex products here have no such right operand (_dagger gives a view)
    g = (g @ (e[..., :, None] * _dagger(v))).reshape(theta.shape[:-1] + (d * d,))
    return (g.take(upper, axis=-1) - g.take(lower, axis=-1).conj()).view(np.float64)


def _rotate(x: np.ndarray, dims: Dims):
    """psi = exp(M - M^dag) chi of real parameter rows x, with U never formed.

    Returns (psi, a, theta, V) with a = V^dag chi, so psi = V (exp(-i theta) * a).
    """
    theta, v = _spectrum(x, dims.total)
    a = _dagger(v) @ _chi(dims)
    psi = (v @ (np.exp(-1j * theta) * a)[..., None])[..., 0]
    return psi, a, theta, v


def state_from_params(x: np.ndarray, config: ObjectiveConfig) -> QuditState:
    """Apply the unitary of the real parameter row x (d(d+1),) to the equal superposition.

    This is the search kernel's own forward step, so a logged row rebuilds the
    state the search evaluated, bit for bit.
    """
    return QuditState(config.dims, _rotate(x, config.dims)[0])


def two_party_density(psi: QuditState, partition: PartitionSpec) -> DensityMatrix:
    """rho_AB of a four-party pure state, with A fused before B.

    One contraction of the amplitudes, their sites transposed to party order
    (A, B, A', B'): the traced A'B' index is the column index of both factors.
    """
    partition.validate_for(psi.dims)
    sites = psi.dims.sites
    da = prod(sites[i] for i in partition.a_sites)
    db = prod(sites[i] for i in partition.b_sites)
    t = psi.amplitudes.reshape(sites).transpose(partition.all_sites()).reshape(da * db, -1)
    return DensityMatrix(Dims((da, db)), t @ t.conj().T)


class GapProfile:
    """The gap of one state on a q-grid, on the ``DensityMatrix`` reference path.

    S(AA') and the reflected spectrum do not depend on q, so each grid point is
    a Renyi sum.  Its partial traces, square root and spectra are computed apart
    from the search kernel ``_StateObjective``, which ``verify`` checks against it.
    """

    def __init__(self, psi: QuditState, partition: PartitionSpec, config: EntropyConfig):
        rho_ab = two_party_density(psi, partition)  # first: it checks the partition
        keep = tuple(sorted(partition.a_sites + partition.ap_sites))
        self.s_aap = von_neumann(partial_trace(psi, keep), config)
        self.spectrum = reflected_spectrum(rho_ab)
        self.config = config

    def gaps(self, q_grid: Sequence[float]) -> np.ndarray:
        """The gap at each q, bit for bit what ``entropy_from_spectrum`` gives one q at a time.

        numpy raises to a scalar 0.5 or 2.0 with ``sqrt`` or ``square``, so those rows do too.
        """
        qs = np.asarray(q_grid, dtype=np.float64)
        bad = ~(np.isfinite(qs) & (qs > 0.0))
        if bad.any():
            raise ValueError(f"Renyi index must be positive and finite, got {float(qs[bad][0])!r}")
        pos = self.spectrum[self.spectrum > 0.0]  # never empty: the spectrum sums to 1
        powers = pos ** qs[:, None]
        powers[qs == 0.5] = np.sqrt(pos)
        powers[qs == 2.0] = np.square(pos)
        s_r = np.log(powers.sum(axis=-1)) / np.where(qs == 1.0, 1.0, 1.0 - qs)
        s_r[qs == 1.0] = -np.sum(pos * np.log(pos))
        return self.s_aap - 0.5 * (s_r / self.config.log_divisor)


def gap(
    psi: QuditState,
    partition: PartitionSpec,
    q: float = 1.0,
    config: EntropyConfig = DEFAULT_ENTROPY,
) -> float:
    """S(AA') minus half the q-Renyi reflected entropy of rho_AB, on the reference path.

    To evaluate one state at many q, use :meth:`GapProfile.gaps` instead.
    """
    return float(GapProfile(psi, partition, config).gaps([q])[0])


def penalized_gap(
    psi: QuditState,
    partition: PartitionSpec,
    q: float = 1.0,
    config: EntropyConfig = DEFAULT_ENTROPY,
    weight: float = 1.0,
) -> float:
    """gap plus weight * max(Max(I3), 0).

    The hinge penalizes MMI violation: it is zero on states with
    Max(I3) <= 0 (see :func:`entgap.entropy.max_tmi` for the convention) and
    grows with the largest positive I3 otherwise.
    """
    return gap(psi, partition, q, config) + weight * max(max_tmi(psi, partition, config), 0.0)


# ---------------------------------------------------------------------------
# analytic value-and-gradient machinery


class _Marginal:
    """Cached permutation data for one reduced density matrix of a stack of pure states (S, N)."""

    __slots__ = ("shape", "kept_shape", "axes", "inv_axes", "dk", "dr")

    def __init__(self, sites: Sequence[int], keep_order: Sequence[int]):
        n = len(sites)
        rest = [i for i in range(n) if i not in set(keep_order)]
        perm = list(keep_order) + rest
        self.shape = (-1,) + tuple(sites)
        self.kept_shape = (-1,) + tuple(sites[i] for i in perm)
        # site permutations that keep the stack axis in front
        self.axes = (0,) + tuple(1 + i for i in perm)
        self.inv_axes = (0,) + tuple(1 + int(i) for i in np.argsort(perm))
        self.dk = prod(sites[i] for i in keep_order)
        self.dr = prod(sites[i] for i in rest) if rest else 1

    def forward(self, amps: np.ndarray):
        t = amps.reshape(self.shape).transpose(self.axes).reshape(-1, self.dk, self.dr)
        return t @ _dagger(t), t

    def backward(self, g_rho: np.ndarray, t: np.ndarray) -> np.ndarray:
        # d f = Re tr(G^dag d rho) with Hermitian G gives G_T = 2 G T
        g_t = 2.0 * (g_rho @ t)
        return g_t.reshape(self.kept_shape).transpose(self.inv_axes).reshape(len(g_t), -1)

    def entropy(self, amps: np.ndarray, q: float, log_div: float):
        """Entropies (S,), their derivatives on the eigenvalues, the eigenvectors and T."""
        rho, t = self.forward(amps)
        lam, w = np.linalg.eigh(rho)
        del rho
        value, g = _entropy_grad_diag(lam, q, log_div)
        return value, g, w, t

    def pullback(self, g: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The amplitude gradient of a function with derivatives g on the eigenvalues of rho."""
        return self.backward((w * g[:, None, :]) @ _dagger(w), t)


def _suffix_sum(terms: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Each row's sum of terms[start:], added as np.sum adds that slice alone.

    np.sum's pairwise blocks depend on where a term sits, so summing a whole row
    with zeros in front would round differently from the unpadded slice.
    """
    out = np.empty(len(terms))
    for k in set(start.tolist()):
        rows = start == k
        out[rows] = terms[rows, k:].sum(axis=-1)
    return out


def _entropy_grad_diag(vals: np.ndarray, q: float, log_div: float):
    """Entropy values and d(entropy)/d(eigenvalue) of raw eigh spectra (S, n).

    Clipped eigenvalues (|v| < CLIP_EPS, plus roundoff negatives) carry zero
    derivative, consistent with their exclusion from the entropy sum.  eigh
    sorts ascending, so the kept eigenvalues of each row are a suffix.
    """
    clipped = clipped_eigenvalues(vals)
    pos = clipped > 0.0
    start = vals.shape[-1] - pos.sum(axis=-1)
    lam = np.where(pos, clipped, 1.0)
    if q == 1.0:
        log_lam = np.log(lam)
        value = -_suffix_sum(lam * log_lam, start)
        g = -log_lam - 1.0
    else:
        s = _suffix_sum(lam**q, start)
        value = np.log(s) / (1.0 - q)
        g = (q / (1.0 - q)) * lam ** (q - 1.0) / s[:, None]
    return value / log_div, np.where(pos, g, 0.0) / log_div


def _sqrt_dk_matrix(root: np.ndarray) -> np.ndarray:
    """Daleckii-Krein first-divided-difference matrix for the matrix square root.

    On the roots r of the forward pass, (r_i - r_j) / (r_i^2 - r_j^2) is
    1 / (r_i + r_j), which holds at equal roots too.  Pairs inside the clipped
    kernel get 0: their perturbation block vanishes to first order for reduced
    densities of pure states, since rho = T T^dag.
    """
    total = root[..., :, None] + root[..., None, :]
    return np.divide(1.0, total, out=np.zeros_like(total), where=total > 0.0)


class _StateObjective:
    """Value and state-space gradient of the (penalized) gap for one config.

    Instances cache every site permutation needed for the marginals, so a
    single object can be reused across thousands of optimizer steps.  A call
    takes a stack of states (S, N), one state being a stack of one, and treats
    rows independently: row s gives bit for bit what state s gives alone.
    """

    def __init__(self, config: ObjectiveConfig):
        sites = config.dims.sites
        part = config.partition
        self.q = float(config.q)
        self.log_div = config.entropy.log_divisor

        self.marg_aap = _Marginal(sites, sorted(part.a_sites + part.ap_sites))
        self.marg_ab = _Marginal(sites, list(part.a_sites) + list(part.b_sites))
        self.d_ab = self.marg_ab.dk
        da = prod(sites[i] for i in part.a_sites)
        db = prod(sites[i] for i in part.b_sites)
        pdims = (da, db, da, db)
        self.marg_ref = _Marginal(pdims, (0, 2))

        self.penalty = bool(config.penalty_enabled)
        self.weight = float(config.penalty_weight)
        if self.penalty:
            # the last term, -S_AA', is the gap's own S(AA')
            terms = pure_tmi_terms(config.dims, part)[:-1]
            self.i3_terms = [(_Marginal(sites, keep), sign) for keep, sign in terms]

    def __call__(self, amps: np.ndarray, want_grad: bool = True):
        """Return (values, grads wrt amps or None, extras dict), one row per state."""
        q, log_div = self.q, self.log_div

        # every density matrix is dropped after its eigh and every backward
        # operand after use, so that few (S, d, d) arrays are alive at once
        s_aap, g1, w1, t1 = self.marg_aap.entropy(amps, 1.0, log_div)

        rho_ab, t_ab = self.marg_ab.forward(amps)
        mu, vr = np.linalg.eigh(rho_ab)
        del rho_ab
        if float(mu.min()) < -1e-8:
            raise FloatingPointError(f"rho_AB lost positivity: min eigenvalue {mu.min()!r}")
        # sub-clip eigenvalues are structural zeros of the rank-deficient
        # marginal; rooting them would inject sqrt(roundoff) noise
        root = np.where(mu >= CLIP_EPS, np.sqrt(np.clip(mu, 0.0, None)), 0.0)
        x = (vr * root[:, None, :]) @ _dagger(vr)
        phi = x.reshape(len(x), -1)

        s_ref, g2, w2, t2 = self.marg_ref.entropy(phi, q, log_div)
        del x, phi

        gap_value = s_aap - 0.5 * s_ref
        value = gap_value
        extras = {"gap": gap_value, "s_aap": s_aap, "s_reflected": s_ref}

        hinge = None
        if self.penalty:
            m_i3, pen = -s_aap, []
            for marg, sign in self.i3_terms:
                s_val, g_s, w_s, t_s = marg.entropy(amps, 1.0, log_div)
                m_i3 = m_i3 + sign * s_val
                pen.append((marg, sign * g_s, w_s, t_s))
            extras["max_tmi"] = m_i3
            hinge = m_i3 > 0.0  # switched per state
            value = np.where(hinge, value + self.weight * m_i3, value)
            if not hinge.any():
                hinge = None

        if not np.all(np.isfinite(value)):
            bad = float(value[~np.isfinite(value)][0])
            raise FloatingPointError(f"objective is not finite: {bad!r}")
        if not want_grad:
            return value, None, extras

        if hinge is not None:
            g1 = np.where(hinge[:, None], (1.0 - self.weight) * g1, g1)  # the hinge's -weight * S_AA'
        g_psi = self.marg_aap.pullback(g1, w1, t1)
        del t1, w1
        g_phi = self.marg_ref.pullback(-0.5 * g2, w2, t2)
        del t2, w2
        g_x = g_phi.reshape(-1, self.d_ab, self.d_ab)
        g_x = 0.5 * (g_x + _dagger(g_x))
        k = _sqrt_dk_matrix(root)
        g_rho_ab = vr @ ((_dagger(vr) @ g_x @ vr) * k) @ _dagger(vr)
        del g_x, k, vr
        g_psi = g_psi + self.marg_ab.backward(g_rho_ab, t_ab)
        del g_rho_ab, t_ab

        if hinge is not None:
            g_pen = g_psi
            for marg, g_s, w_s, t_s in pen:
                g_pen = g_pen + marg.pullback(self.weight * g_s, w_s, t_s)
            g_psi = np.where(hinge[:, None], g_pen, g_psi)

        if not np.all(np.isfinite(g_psi)):
            raise FloatingPointError("state-space gradient is not finite")
        return value, g_psi, extras


@lru_cache(maxsize=32)
def _cached_state_objective(config: ObjectiveConfig) -> _StateObjective:
    return _StateObjective(config)


@lru_cache(maxsize=32)
def _chi(dims: Dims) -> np.ndarray:
    chi = equal_superposition(dims).amplitudes
    chi.setflags(write=False)
    return chi


def objective_value_and_gradient(x: np.ndarray, config: ObjectiveConfig, want_grad: bool = True):
    """Objective value, its gradient, and diagnostic extras of one real parameter row x.

    x and the gradient are real vectors of length d(d+1): interleaved
    (re, im) pairs for each upper-triangular entry of M in row-major
    order.  Raises FloatingPointError on non-finite intermediates.  This is
    the stacked kernel of :func:`stacked_value_and_gradient` on a stack of one.
    """
    values, grads, extras = stacked_value_and_gradient(np.asarray(x)[None], config, want_grad)
    grad = None if grads is None else grads[0]
    return float(values[0]), grad, {k: float(v[0]) for k, v in extras.items()}


def stacked_value_and_gradient(x: np.ndarray, config: ObjectiveConfig, want_grad: bool = True):
    """Objective values (S,), gradients (S, d(d+1)) and extras of S parameter points.

    ``x`` holds one real parameter row per point, laid out as the gradient.
    Rows are independent: each one's results are bit for bit those of the
    row evaluated alone.  Raises ValueError on rows of the wrong length or
    with non-finite entries and FloatingPointError on non-finite
    intermediates in any row.
    """
    psi, a, theta, v = _rotate(x, config.dims)
    values, g_psi, extras = _cached_state_objective(config)(psi, want_grad=want_grad)
    if not want_grad:
        return values, None, extras
    # g_U = g_psi chi^dag has rank one, so V^dag g_U V = (V^dag g_psi) a^dag
    grads = _parameter_gradient(theta, v, (_dagger(v) @ g_psi[..., None]) * a.conj()[..., None, :])
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError("parameter gradient is not finite")
    return values, grads, extras
